import json
import os
import subprocess
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "anisolab", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_construct_and_artifacts(tmp_path):
    r = run_cli(
        ["construct", "--p", "2", "--alpha", "1", "--cycles", "4",
         "--out", "triple.json", "--schedule-csv", "schedule.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "triple.json").exists()
    lines = (tmp_path / "schedule.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    # determinism: byte-identical on re-run
    first = (tmp_path / "triple.json").read_bytes()
    r = run_cli(["construct", "--p", "2", "--alpha", "1", "--cycles", "4", "--out", "triple.json"], tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "triple.json").read_bytes() == first


def test_unknown_flag_exits_2(tmp_path):
    r = run_cli(["construct", "--nope"], tmp_path)
    assert r.returncode == 2


def test_unknown_phi_spec_fails(tmp_path):
    r = run_cli(["sublevel", "--phi", "wat:1", "--levels", "1", "--out", "x.csv"], tmp_path)
    assert r.returncode != 0


def test_phicirc_and_sobconj(tmp_path):
    r = run_cli(
        ["phicirc", "--phi", "radial:1.5", "--t-lo", "1e-8", "--t-hi", "1e8",
         "--points", "90", "--angles", "256", "--out", "tab.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["sobconj", "--table", "tab.json", "--out", "prof.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    prof = json.loads((tmp_path / "prof.json").read_text())
    assert prof["growth"] == "slow"
    assert "phin" in prof
    r = run_cli(["table", "--table", "tab.json", "--out", "tab.csv"], tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "tab.csv").read_text().startswith("s,t\n")


def test_sublevel_bounds_csv(tmp_path):
    run_cli(["construct", "--cycles", "4", "--out", "triple.json"], tmp_path)
    r = run_cli(
        ["sublevel", "--phi", "triple.json", "--levels", "10,1000",
         "--angles", "512", "--out", "areas.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "areas.csv").read_text().strip().split("\n")
    assert lines[0] == "t,area,lower_bound,upper_bound"
    for line in lines[1:]:
        t, area, lo, hi = (float(v) for v in line.split(","))
        assert lo <= area <= hi


def test_conjugate_binary(tmp_path):
    r = run_cli(
        ["conjugate", "--phi", "quadratic", "--extent", "3", "--n", "65", "--out", "c.bin"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    from anisolab.aniso2d import SampledFn2D

    s = SampledFn2D.from_binary(tmp_path / "c.bin")
    X, Y = np.meshgrid(s.x, s.y, indexing="ij")
    assert np.max(np.abs(s.values - 0.5 * (X**2 + Y**2))) <= 0.05


def test_compare_equivalent_pair(tmp_path):
    r = run_cli(
        ["compare", "--f", "powersum:2,2", "--g", "quadratic", "--report", "v.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert verdict["equivalent"]


def test_compare_non_equivalent_pair(tmp_path):
    r = run_cli(
        ["compare", "--f", "powersum:2,3", "--g", "quadratic", "--report", "v.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert verdict["equivalent"] is False
    assert not verdict["f_dominates_g"] and not verdict["g_dominates_f"]
    assert verdict["forward_constants"] == {"c": None, "d": None}


def test_probe_csv(tmp_path):
    run_cli(["construct", "--cycles", "9", "--out", "triple.json"], tmp_path)
    r = run_cli(
        ["probe", "--phi", "triple.json", "--rotations", "12", "--shears", "3",
         "--scales", "3", "--out", "probe.csv"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "probe.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 12 * 3 * 3
    assert all(line.split(",")[3] == "fail" for line in lines[1:])
    assert "108/108" in r.stdout


def test_capacity_cli(tmp_path):
    r = run_cli(
        ["capacity", "--phi", "radial:2", "--relative", "--mode", "dirichlet-only",
         "--n", "65", "--out", "cap.json", "--field", "u.bin"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    cap = json.loads((tmp_path / "cap.json").read_text())
    target = 2.0 * np.pi / np.log(4.0)
    assert abs(cap["value"] - target) / target <= 0.1
    assert (tmp_path / "u.bin").exists()


def test_solve_cli(tmp_path):
    r = run_cli(
        ["solve", "--phi", "quadratic", "--measure", "square:0.2", "--stages", "2",
         "--n", "33", "--out", "solve.json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "solve.json").read_text())
    assert rep["stages"] == 2
    assert rep["l1_gaps"][-1] < rep["l1_gaps"][0]
