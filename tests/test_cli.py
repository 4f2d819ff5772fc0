import json
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
DATA = os.path.join(os.path.dirname(__file__), "data")


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


def test_missing_triple_file_is_named(tmp_path):
    r = run_cli(["probe", "--phi", "missing.json", "--out", "p.csv"], tmp_path)
    assert r.returncode == 1
    assert "No such file or directory: 'missing.json'" in r.stderr


def test_negative_trudinger_delta_is_named(tmp_path):
    r = run_cli(["solve", "--phi", "trudinger:3,1.01,-5,1.01", "--out", "r.json"], tmp_path)
    assert r.returncode == 1
    assert "error: delta -5.0 must be >= 0" in r.stderr


def test_probe_of_a_function_without_terms_says_why(tmp_path):
    r = run_cli(["probe", "--phi", "radial:2", "--out", "p.csv"], tmp_path)
    assert r.returncode == 1
    assert "the probe needs a sum of directional terms" in r.stderr


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


def test_sobconj_tables_sit_on_the_input_nodes(tmp_path):
    # H and phi_n are returned on the input table's nodes; a fast-growing
    # profile's H saturates, and its float-flat top nodes are dropped
    s = np.logspace(-8, 8, 77)
    for p, flat_top in ((1.5, False), (3.0, True)):
        (tmp_path / "tab.json").write_text(json.dumps({"s": s.tolist(), "t": (s**p).tolist()}))
        r = run_cli(["sobconj", "--table", "tab.json", "--out", "prof.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        prof = json.loads((tmp_path / "prof.json").read_text())
        H_s = np.array(prof["H"]["s"])
        assert np.all(np.any(np.isclose(H_s[:, None], s, rtol=1e-14, atol=0.0), axis=1))
        if flat_top:
            half = len(s) // 2
            assert np.allclose(H_s[:half], s[:half], rtol=1e-14, atol=0.0)
            assert len(H_s) < len(s) and "phin" not in prof
        else:
            assert len(H_s) == len(prof["phin"]["s"]) == len(s)


@pytest.mark.parametrize(
    "args",
    [
        ["phicirc", "--phi", "quadratic", "--t-lo", "1", "--t-hi", "10", "--points", "5",
         "--out", "out.json"],
        ["sublevel", "--phi", "quadratic", "--levels", "1,10", "--out", "out.json"],
    ],
)
def test_zero_angles_are_named(tmp_path, args):
    r = run_cli([*args, "--angles", "0"], tmp_path)
    assert r.returncode == 1
    assert "error: n_angles 0 must be at least 1" in r.stderr
    assert not (tmp_path / "out.json").exists()


def test_table_rejects_entries_without_finite_logs(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"s": [-1.0, 1.0, 2.0], "t": [1.0, 2.0, 3.0]}))
    r = run_cli(["table", "--table", "bad.json", "--out", "tab.csv"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and "finite" in r.stderr
    assert not (tmp_path / "tab.csv").exists()


def test_table_names_a_missing_field(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"s": [1.0, 2.0, 3.0]}))
    r = run_cli(["table", "--table", "bad.json", "--out", "tab.csv"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error: t: missing")


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


@pytest.mark.parametrize(
    "phi, levels, named",
    [
        ("quadratic", "10,nan", "nan"),
        ("quadratic", "10,inf", "inf"),
        ("triple.json", "10,-5", "nan"),
        ("triple.json", "10,0", "-inf"),
    ],
)
def test_sublevel_rejects_non_finite_levels(tmp_path, phi, levels, named):
    run_cli(["construct", "--cycles", "4", "--out", "triple.json"], tmp_path)
    r = run_cli(
        ["sublevel", "--phi", phi, "--levels", levels, "--angles", "64", "--out", "areas.csv"],
        tmp_path,
    )
    assert r.returncode == 1
    assert f"error: log level {named} is not finite" in r.stderr
    assert not (tmp_path / "areas.csv").exists()


@pytest.mark.parametrize("levels, named", [("10,-5", "-5"), ("10,0", "0"), ("10,nan", "nan")])
def test_triple_sublevel_names_a_bad_level_as_typed(tmp_path, levels, named):
    run_cli(["construct", "--cycles", "4", "--out", "triple.json"], tmp_path)
    r = run_cli(
        ["sublevel", "--phi", "triple.json", "--levels", levels, "--angles", "64",
         "--out", "areas.csv"],
        tmp_path,
    )
    assert r.returncode == 1
    assert f"; level {named} must be positive and finite" in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "areas.csv").exists()


def test_builtin_sublevel_names_a_bad_level_as_typed(tmp_path):
    r = run_cli(
        ["sublevel", "--phi", "quadratic", "--levels", "10,-5,3", "--angles", "64",
         "--out", "areas.csv"],
        tmp_path,
    )
    assert r.returncode == 1
    assert "error: log level nan is not finite; level -5 must be positive and finite" in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "areas.csv").exists()


@pytest.mark.parametrize(
    "t_lo, t_hi, message",
    [
        ("-1", "10", "error: --t-lo -1 must be positive and finite"),
        ("1", "nan", "error: --t-hi nan must be positive and finite"),
        ("10", "1", "error: levels not strictly increasing: t[0] = 10 >= t[1] = "),
    ],
)
def test_phicirc_names_a_bad_level_range(tmp_path, t_lo, t_hi, message):
    r = run_cli(
        ["phicirc", "--phi", "quadratic", "--t-lo", t_lo, "--t-hi", t_hi, "--points", "5",
         "--angles", "64", "--out", "table.json"],
        tmp_path,
    )
    assert r.returncode == 1
    assert message in r.stderr
    assert "Warning" not in r.stderr
    assert not (tmp_path / "table.json").exists()


@pytest.mark.parametrize("points", ["1", "0"])
def test_phicirc_needs_two_points(tmp_path, points):
    r = run_cli(
        ["phicirc", "--phi", "quadratic", "--points", points, "--angles", "64",
         "--out", "table.json"],
        tmp_path,
    )
    assert r.returncode == 1
    assert f"error: --points {points} must be at least 2" in r.stderr
    assert not (tmp_path / "table.json").exists()


def test_a_triple_file_with_phi_reads_the_schedule(tmp_path, build9):
    # triple files once carried a serialized copy of the three functions
    # ("phi") beside the schedule; the reader ignores it, so a swapped pair
    # changes nothing
    with open(os.path.join(DATA, "triple_cycles9_with_phi.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["phi"][0], data["phi"][1] = data["phi"][1], data["phi"][0]
    (tmp_path / "triple.json").write_text(json.dumps(data))
    from anisolab.construction import TripleBuild

    back = TripleBuild.load(tmp_path / "triple.json")
    for f, g in zip(build9.phi, back.phi):
        assert np.array_equal(f.breakpoints_logt, g.breakpoints_logt)
        assert [(type(a), vars(a)) for a in f.pieces] == [(type(b), vars(b)) for b in g.pieces]
    r = run_cli(["probe", "--phi", "triple.json", "--rotations", "8", "--out", "probe.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "3528/3528 maps fail the axis decomposition (3528 evaluated up to sign)" in r.stdout


def test_a_triple_file_off_the_construction_names_the_field(tmp_path, build9):
    # moving a breakpoint and the next record's start together keeps the
    # schedule chained; the rebuild on load shows it is not the construction's
    data = build9.to_json_dict()
    data["schedule"][3]["logt_next"] = data["schedule"][4]["logt"] = 60.0
    (tmp_path / "triple.json").write_text(json.dumps(data))
    r = run_cli(["probe", "--phi", "triple.json", "--rotations", "8", "--out", "probe.csv"], tmp_path)
    assert r.returncode == 1
    assert "error: schedule[3].logt_next: 60.0 differs from the construction's 216.0" in r.stderr
    assert not (tmp_path / "probe.csv").exists()


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
    assert cap["stop_reason"] in ("rel_decrease", "gap")
    assert 0.0 <= cap["gap"] <= 1e-8 * cap["value"]
    assert cap["evaluations"] > cap["iterations"] > 0
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


@pytest.mark.parametrize("kappa", ["nan", "-1"])
def test_capacity_names_a_bad_kappa(tmp_path, kappa):
    r = run_cli(
        ["capacity", "--phi", "radial:2", "--kappa", kappa, "--n", "17", "--out", "cap.json"],
        tmp_path,
    )
    assert r.returncode == 1
    assert f"error: kappa {kappa} must be finite and >= 0" in r.stderr
    assert not (tmp_path / "cap.json").exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--stages", "0"], "error: --stages 0 must be at least 1"),
        (["--measure", "dirac:0.5"], "error: --measure 'dirac:0.5': expected dirac:x,y"),
        (["--phi", "radial"], "error: phi spec 'radial': expected radial:p[,coef]"),
    ],
    ids=["stages", "dirac", "radial"],
)
def test_solve_names_a_bad_argument(tmp_path, args, message):
    base = {"--phi": "quadratic", "--stages": "2", "--n": "17", "--out": "solve.json"}
    base.update(zip(args[::2], args[1::2]))
    r = run_cli(["solve", *(x for kv in base.items() for x in kv)], tmp_path)
    assert r.returncode == 1
    assert message in r.stderr
    assert not (tmp_path / "solve.json").exists()


def test_solve_rejects_an_atom_on_the_box_edge(tmp_path):
    # the zero-boundary solve never sees mass on the edge, so nothing is run
    r = run_cli(
        ["solve", "--phi", "quadratic", "--measure", "dirac:0,0.5", "--stages", "2",
         "--n", "33", "--out", "solve.json"],
        tmp_path,
    )
    assert r.returncode == 1
    assert "error: atom at (0.0, 0.5) is not inside the open box of the grid" in r.stderr
    assert "renormalized" not in r.stderr
    assert not (tmp_path / "solve.json").exists()
