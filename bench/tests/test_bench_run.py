import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import compare
import layers
import run

BENCH = Path(run.__file__).resolve().parent


def _boom():
    raise RuntimeError("solver blew up")


def _no_work():
    """A reference kernel for tests that time nothing."""


def test_raising_item_is_attempted_and_failed():
    items = [("fine", lambda: (True, {"x": 1.0})), ("boom", _boom), ("wrong", lambda: (False, {}))]
    passes = [run.run_pass(items, _no_work), run.run_pass(items, _no_work)]
    attempted, failed, problems = run.summarize_checks(passes)
    assert attempted == 6
    assert failed == 4
    assert any("solver blew up" in p for p in problems)


def test_pass_time_is_taken_relative_to_the_reference_kernel():
    import reference

    passes = [
        [{"cpu": 2.0, "ref": 0.1}, {"cpu": 1.0, "ref": 0.1}],
        [{"cpu": 4.0, "ref": 0.2}, {"cpu": 2.0, "ref": 0.2}],  # same work on a core half as fast
        [{"cpu": 2.0, "ref": 0.1}, {"cpu": 1.0, "ref": 0.1}],
    ]
    # cpu over the mean kernel time before and after: item 0 takes 20 kernel
    # runs in every pass; item 1 takes 1 / 0.15, 2 / 0.15 and 10 (the last
    # item has no kernel run after it), median 10
    assert np.isclose(run.pass_norm_seconds(passes), 30 * reference.NOMINAL_S)


def test_result_bytes_must_repeat_between_passes():
    counter = iter(range(10))
    items = [("drift", lambda: (True, {"x": float(next(counter))}))]
    passes = [run.run_pass(items, _no_work), run.run_pass(items, _no_work)]
    _, failed, problems = run.summarize_checks(passes)
    assert failed == 0
    assert problems == ["drift: result bytes differ between passes"]


def _tiny_spec():
    """Small inputs through the probe, conjugation and a weak solve.

    Entry points are looked up on their modules at call time, so the
    traced passes call the installed wrappers."""
    from anisolab import aniso2d, comparability, construction, pde
    from anisolab.aniso2d import GridSpec2D, quadratic_fn
    from anisolab.gridfield import GridField2D

    def make_inputs(rng):
        from workloads import _maps

        mats = _maps(rng.uniform(0, 6.28, 64), rng.uniform(-2, 2, 64), rng.uniform(-2, 2, 64))
        return {"triple": aniso2d.constructed_triple_fn(construction.build_triple(2.0, 1.0, 9)), "mats": mats,
                "load": rng.uniform(0.5, 2.0)}

    def items(inp):
        def probe():
            r = comparability.essential_anisotropy_probe(inp["triple"], inp["mats"])
            return r["all_fail"], {"drops": r["worst_drops"]}

        def conj():
            star = aniso2d.conjugate2d(quadratic_fn(), GridSpec2D.square(4.0, 17),
                                       primal_spec=GridSpec2D.square(1.0, 17))
            return True, {"v": star.values}

        def weak():
            f = GridField2D.unit_square(17)
            f.values[:] = inp["load"]
            u = pde.solve_weak(quadratic_fn(), f, rel_tol=1e-6)
            return True, {"u": u.values}

        return [("probe", probe), ("conj", conj), ("weak", weak)]

    return make_inputs, lambda inp: None, items, _no_work


def test_same_seed_gives_same_counts_and_traced_bytes_match_untraced():
    runs = [run.run_traced(_tiny_spec(), seed=7, seconds=0.0) for _ in range(2)]
    for metrics, units, samples, passes, attempted, failed, problems in runs:
        assert problems == []
        assert failed == 0
        assert metrics["comparability.probe.maps"] == 64
        assert metrics["comparability.probe.workers"] == 1
        assert metrics["aniso2d.conjugate2d.box_doublings"] == 3
        assert metrics["descent.iterations"] > 0
        assert layers.leftovers() == []
    for name in layers.DETERMINISTIC:
        assert runs[0][0][name] == runs[1][0][name], name


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "refute", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END


def _record(workload, wall):
    return {"workload": workload, "failed_ratio": 0.0,
            "result": {"metrics": {"pass_norm_s": {"value": wall, "unit": "s"}}}}


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("".join(json.dumps(_record(w, v)) + "\n" for w in ("a", "b") for v in (1.0, 2.0, 3.0)))
    new.write_text("".join(json.dumps(_record(w, v)) + "\n" for w in ("a", "b") for v in (2.0, 4.0, 6.0)))
    compare.main(str(old), str(new))
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:2]): line.split() for line in lines[1:]}
    assert set(rows) == {("a", "pass_norm_s"), ("b", "pass_norm_s"), ("a", "failed_ratio"), ("b", "failed_ratio")}
    assert rows[("a", "pass_norm_s")][-1] == "2.0000"
    assert np.isclose(float(rows[("b", "pass_norm_s")][4]), 2.0)
