"""anisolab benchmark: one closed-loop, single-process run of one workload.

Run from the repository root:

    python3 bench/run.py --workload refute --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload refute --seed 1 --seconds 22 --trace 1 --out .bench_out/new.jsonl
    python3 bench/run.py --compare bench/trajectory/0001-baseline.jsonl .bench_out/new.jsonl

The run builds its inputs from ``--seed``, then repeats passes over the
workload's items until ``--seconds`` have passed (closed loop: the next
pass starts when the previous one ends); every item's result is
checked against an analytic oracle and hashed, and every pass must give
the same hashes.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (``pass_norm_s``,
``setup_s``, ``peak_rss_mib``).  Times are CPU seconds of the process at
reference speed: a fixed kernel of ``bench/reference.py`` (the workload's
own for items, ``compute`` for set-ups) is timed just before every item
and every set-up, and each CPU time is divided by the kernel's times
around it and multiplied by the kernel's nominal time, which takes out
the drift of a shared core's speed.  ``pass_norm_s`` adds up, over the
items, each item's median over the run's passes; ``setup_s`` is the
median of several set-ups, each an import in a fresh interpreter followed
by input generation and warm-up.  The run pins every thread pool to one
thread, so a pass's CPU time is its elapsed time on a dedicated core;
unlike wall time it leaves out the time the host of a virtual machine
takes the core away (steal).  Raw CPU and wall time are still recorded
per item and reported by the traced run as ``process.cpu_s`` and
``pass.wall_s``, with the kernel's own time as ``reference.cpu_s``.

``--trace 1`` reports the per-layer metrics of ``bench/layers.py``: it
times untraced passes, then wraps the program's public entry points with
span recorders for further passes, and reports the ratio of pass times as
``trace.overhead_ratio``.  Counts that must repeat exactly (descent
iterations, probe maps, box doublings) are compared between traced
passes, and the traced passes must produce the same result bytes as the
untraced ones.

``--out FILE`` appends the full result (sample counts, per-item times,
machine and code facts) as one JSON line; ``--compare A B`` prints, per
workload and metric, the medians, quartiles and ratio of two such files.
"""

from __future__ import annotations

import os
import sys

# Pin the run environment before numpy loads its BLAS.  One BLAS thread
# keeps reduction order, and so iteration counts, fixed; one probe worker
# makes the process's CPU time equal to its time on a dedicated core.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ANISOLAB_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4
MIN_TRACED_PASSES = 2

END_TO_END = [("pass_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def _plain(x):
    """JSON-ready copy of an item payload; floats keep every digit."""
    import numpy as np

    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def run_pass(items, kernel, tracer=None):
    """Run every item once; returns per-item wall and CPU seconds, the
    reference kernel's CPU seconds just before the item, verdict, result
    hash and error."""
    import reference

    rows = []
    for name, fn in items:
        error = None
        ref = reference.cpu_seconds(kernel)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"item.{name}"):
                    ok, payload = fn()
            else:
                ok, payload = fn()
            ok = bool(ok)
        except Exception:
            ok, payload = False, None
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        digest = hashlib.sha256(json.dumps(_plain(payload), sort_keys=True).encode()).hexdigest()
        rows.append({"item": name, "seconds": dt, "cpu": cpu, "ref": ref, "ok": ok, "digest": digest, "error": error})
    return rows


def run_passes(items, kernel, seconds, min_passes=1, tracer=None, on_pass=None):
    passes = []
    t_start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t_start < seconds:
        passes.append(run_pass(items, kernel, tracer))
        if on_pass is not None:
            on_pass()
    return passes


def pass_seconds(passes, clock="cpu"):
    """One pass's time: the sum over items of each item's median time in
    the run (``clock`` "cpu" for CPU seconds, "seconds" for wall seconds)."""
    return sum(statistics.median(p[i][clock] for p in passes) for i in range(len(passes[0])))


def pass_norm_seconds(passes):
    """One pass's CPU time at reference speed: the sum over items of each
    item's median ratio of its CPU time to the reference kernel's, times
    the kernel's nominal time.  The kernel's time for an item is the mean
    of the runs just before and just after it (the next item's)."""
    import reference

    rows = [r for p in passes for r in p]
    after = [r["ref"] for r in rows[1:]] + [rows[-1]["ref"]]
    ratios = [2.0 * r["cpu"] / (r["ref"] + a) for r, a in zip(rows, after)]
    n = len(passes[0])
    per_item = (statistics.median(ratios[k * n + i] for k in range(len(passes))) for i in range(n))
    return reference.NOMINAL_S * sum(per_item)


def summarize_checks(passes, first=None):
    """(attempted, failed, problems): an exception or a false oracle is a
    failure; hashes that differ between passes are a problem."""
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if not r["ok"])
    problems = [f"{r['item']}: {r['error'].strip().splitlines()[-1]}" for p in passes for r in p if r["error"]]
    first = first if first is not None else passes[0]
    for p in passes:
        for r, r0 in zip(p, first):
            if r["digest"] != r0["digest"]:
                problems.append(f"{r['item']}: result bytes differ between passes")
    return attempted, failed, sorted(set(problems))


def facts():
    """Machine and code facts recorded with every result."""
    import numpy as np

    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError):  # show_config's layout differs across numpy versions
        pass
    src_files = sorted(SRC.glob("anisolab/**/*.py"))
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": dict(THREAD_ENV),
        "commit": git_commit(ROOT),
        "src_files": len(src_files),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in src_files),
    }


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def import_cpu_seconds():
    """CPU seconds of a fresh interpreter that imports the workloads, and
    with them numpy and the program."""
    def children_cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    c0 = children_cpu()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    subprocess.run([sys.executable, "-c", "import workloads"], env=env, check=True, timeout=120)
    return children_cpu() - c0


def run_untraced(spec, seed, seconds):
    import numpy as np

    import reference

    make_inputs, warmup, make_items, kernel = spec
    kernel()  # warm-up
    reference.compute()
    setups = []
    for _ in range(SETUP_REPEATS):
        # set-up is imports and small arrays whatever the workload
        ref = reference.cpu_seconds(reference.compute)
        import_s = import_cpu_seconds()
        c0 = time.process_time()
        inputs = make_inputs(np.random.default_rng(seed))
        warmup(inputs)
        setups.append((import_s + time.process_time() - c0) / ref)
    passes = run_passes(make_items(inputs), kernel, seconds)
    attempted, failed, problems = summarize_checks(passes)
    metrics = {
        "pass_norm_s": pass_norm_seconds(passes),
        "setup_s": reference.NOMINAL_S * statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {"pass_norm_s": len(passes), "setup_s": SETUP_REPEATS, "peak_rss_mib": 1}
    return metrics, dict(END_TO_END), samples, passes, attempted, failed, problems


def run_traced(spec, seed, seconds, spans_path=None):
    import numpy as np

    import layers
    import workloads
    from tracer import Tracer

    make_inputs, warmup, make_items, kernel = spec
    tracer = Tracer()
    problems = []

    # set-up once under tracing: build_triple and friends belong to setup_s
    layers.install(tracer, [workloads])
    inputs = make_inputs(np.random.default_rng(seed))
    warmup(inputs)
    setup_layers = layers.layer_metrics(tracer)
    all_spans = list(tracer.spans)
    tracer.uninstall()
    tracer.reset()
    items = make_items(inputs)

    untraced = run_passes(items, kernel, seconds / 2.0)

    layers.install(tracer, [workloads])
    per_pass = []

    def collect():
        per_pass.append(layers.layer_metrics(tracer))
        all_spans.extend(tracer.spans)
        tracer.reset()

    try:
        traced = run_passes(items, kernel, seconds / 2.0, MIN_TRACED_PASSES, tracer, collect)
    finally:
        tracer.uninstall()
    left = layers.leftovers([workloads])
    if left:
        problems.append(f"wrappers left installed: {left}")

    attempted, failed, checks = summarize_checks(untraced + traced, first=untraced[0])
    problems += checks
    for name in layers.DETERMINISTIC:
        values = {p[name] for p in per_pass}
        if len(values) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(values)}")

    metrics = layers.median_metrics(per_pass)
    metrics["construction.build_triple.s"] += setup_layers["construction.build_triple.s"]
    metrics["pass.wall_s"] = pass_seconds(untraced, "seconds")
    metrics["process.cpu_s"] = pass_seconds(untraced)
    metrics["reference.cpu_s"] = statistics.median(r["ref"] for p in untraced for r in p)
    metrics["trace.overhead_ratio"] = pass_norm_seconds(traced) / pass_norm_seconds(untraced)
    samples = {name: len(per_pass) for name in metrics}
    samples["construction.build_triple.s"] = len(per_pass) + 1
    samples["pass.wall_s"] = samples["process.cpu_s"] = len(untraced)
    samples["reference.cpu_s"] = sum(len(p) for p in untraced)
    samples["trace.overhead_ratio"] = len(untraced) + len(traced)
    if spans_path:
        write_spans(spans_path, tracer.names, all_spans)
    units = dict(layers.UNITS)
    ordered = {name: metrics[name] for name, _, _ in layers.PER_LAYER}
    return ordered, units, samples, untraced + traced, attempted, failed, problems


def write_spans(path, names, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, nid, t0, t1 in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": names[nid], "start": t0, "end": t1}))
            fh.write("\n")


def run(args):
    if not (SRC / "anisolab" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'anisolab'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    if args.trace:
        out = run_traced(spec, args.seed, args.seconds, args.spans)
    else:
        out = run_untraced(spec, args.seed, args.seconds)
    metrics, units, samples, passes, attempted, failed, problems = out

    info = facts()
    print(f"facts: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{attempted} items attempted, {failed} failed (failed_ratio {failed / attempted:.4g})")
    for problem in problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]:6s} n={samples[name]}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "failed_ratio": failed / attempted,
            "samples": samples,
            "problems": problems,
            "items": [[{k: r[k] for k in ("item", "seconds", "cpu", "ref", "ok", "digest")} for r in p] for p in passes],
            "facts": info,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result as one JSON line to this file")
    ap.add_argument("--spans", help="with --trace 1, write every recorded span to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two result files")
    args = ap.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
