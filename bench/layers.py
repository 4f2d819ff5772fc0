"""Which entry points of the program the traced run wraps, and the
per-layer metrics computed from the recorded spans.

Each metric is listed with its unit and the direction that is better;
``BENCHMARK.json`` repeats the same list.  The comment on each group names
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Tracer, traced_leftovers

# (name, unit, better)
PER_LAYER = [
    # 1-D evaluation and piecewise dispatch -> pass_norm_s on refute (condenser via PowerFn)
    ("young1d.log_value.calls", "count", "lower"),
    ("young1d.log_value.self_s", "s", "lower"),
    ("young1d.log_value.s_per_call", "s", "lower"),
    ("young1d.value.calls", "count", "lower"),
    ("young1d.value.self_s", "s", "lower"),
    ("young1d.value.s_per_call", "s", "lower"),
    # log-domain sums and vectorized bisection -> pass_norm_s on refute
    ("numerics.logaddexp_many.calls", "count", "lower"),
    ("numerics.logaddexp_many.self_s", "s", "lower"),
    ("numerics.bisect_increasing_arrays.calls", "count", "lower"),
    ("numerics.bisect_increasing_arrays.self_s", "s", "lower"),
    # construction -> setup_s and wall_s on refute
    ("construction.build_triple.s", "s", "lower"),
    ("construction.incomparability_certificate.s", "s", "lower"),
    # 2-D evaluation -> pass_norm_s on condenser and measure-data
    ("aniso2d.value.calls", "count", "lower"),
    ("aniso2d.value.self_s", "s", "lower"),
    ("aniso2d.value.s_per_call", "s", "lower"),
    ("aniso2d.grad.calls", "count", "lower"),
    ("aniso2d.grad.self_s", "s", "lower"),
    ("aniso2d.grad.s_per_call", "s", "lower"),
    # Legendre max-reduction -> pass_norm_s and peak_rss_mib on transform
    ("aniso2d.legendre.calls", "count", "lower"),
    ("aniso2d.legendre.self_s", "s", "lower"),
    ("aniso2d.legendre.ops", "count", "lower"),
    ("aniso2d.legendre.ops_per_s", "1/s", "higher"),
    ("aniso2d.conjugate2d.box_doublings", "count", "lower"),
    # probe -> pass_norm_s on refute
    ("comparability.probe.maps", "count", "higher"),
    ("comparability.probe.n_failing", "count", "higher"),
    ("comparability.probe.self_s", "s", "lower"),
    ("comparability.probe.maps_per_s", "1/s", "higher"),
    ("comparability.probe.workers", "count", "higher"),
    ("comparability.axis_decomposition_test.calls", "count", "lower"),
    # ray casting -> pass_norm_s on refute and transform
    ("rearrangement.ray_radii_log.calls", "count", "lower"),
    ("rearrangement.ray_radii_log.rays", "count", "lower"),
    ("rearrangement.ray_radii_log.self_s", "s", "lower"),
    # Sobolev profile -> pass_norm_s on transform
    ("sobolev.build_profile.self_s", "s", "lower"),
    ("sobolev.build_H.calls", "count", "lower"),
    # descent engine -> pass_norm_s on condenser and measure-data
    ("descent.solves", "count", "lower"),
    ("descent.iterations", "count", "lower"),
    ("descent.iterations_max", "count", "lower"),
    ("descent.self_s", "s", "lower"),
    ("descent.s_per_iteration", "s", "lower"),
    ("descent.linesearch_exits", "count", "lower"),
    ("descent.cap_hits", "count", "lower"),
    # grid differences -> pass_norm_s on condenser and measure-data
    ("gridfield.forward_gradient.calls", "count", "lower"),
    ("gridfield.forward_gradient.self_s", "s", "lower"),
    ("gridfield.divergence_of.calls", "count", "lower"),
    ("gridfield.divergence_of.self_s", "s", "lower"),
    # capacity solves -> pass_norm_s on condenser
    ("capacity.solves", "count", "lower"),
    ("capacity.self_s", "s", "lower"),
    ("capacity.iter_growth", "ratio", "lower"),
    # weak solves -> pass_norm_s on measure-data
    ("pde.solve_weak.calls", "count", "lower"),
    ("pde.solve_weak.iterations", "count", "lower"),
    ("pde.solve_weak.self_s", "s", "lower"),
    ("pde.mollify_measure.self_s", "s", "lower"),
    # reported only, never gated: wall time includes host steal, a real
    # parallel speed-up would raise cpu_s, and reference.cpu_s (the
    # workload's kernel of reference.py) shows how fast the shared core ran
    ("pass.wall_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("reference.cpu_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# counts that must repeat exactly for the same seed
DETERMINISTIC = [
    "descent.iterations",
    "comparability.probe.maps",
    "comparability.probe.n_failing",
    "aniso2d.conjugate2d.box_doublings",
    "capacity.solves",
    "pde.solve_weak.iterations",
    "aniso2d.legendre.ops",
]


def _legendre_ops(args, kwargs, result, error):
    primal, dual_spec = args[0], args[1]
    nx, ny = primal.values.shape
    m1, m2 = len(dual_spec.x), len(dual_spec.y)
    # pass 1 scans xi_1 for every (eta_1, xi_2); pass 2 scans xi_2 for every (eta_1, eta_2)
    return {"ops": m1 * ny * nx + m1 * m2 * ny}


def _descent(args, kwargs, result, error):
    if error is not None:
        partial = getattr(error, "result", None)  # set by IterationCapError only
        return {"iterations": getattr(partial, "iterations", 0), "cap": int(partial is not None), "linesearch": 0}
    return {"iterations": result.iterations, "cap": 0, "linesearch": int(result.rel_decrease == 0.0)}


def _capacity_solve(args, kwargs, result, error):
    return {"iterations": getattr(result, "iterations", 0), "n": getattr(result, "n", 0)}


def _probe(args, kwargs, result, error):
    workers = kwargs.get("n_workers") or int(os.environ.get("ANISOLAB_THREADS", "1"))
    if result is None:
        return {"maps": 0, "n_failing": 0, "workers": workers}
    return {"maps": result["n_maps"], "n_failing": result["n_failing"], "workers": workers}


def _rays(args, kwargs, result, error):
    n_angles = args[2] if len(args) > 2 else kwargs["n_angles"]
    return {"rays": int(n_angles)}


def _iterations_attr(args, kwargs, result, error):
    return {"iterations": getattr(result, "iterations", 0)}


def install(tracer: Tracer, callers=()):
    """Wrap the public entry points of each layer, in the program's modules
    and in ``callers`` (modules that imported them by name)."""
    from anisolab import (
        aniso2d,
        capacity,
        comparability,
        construction,
        descent,
        gridfield,
        numerics,
        pde,
        rearrangement,
        sobolev,
        young1d,
    )

    classes_1d = [
        young1d.PowerFn,
        young1d.PowerLogFn,
        young1d.PowerLogBaseFn,
        young1d.PowerExpFn,
        young1d.PiecewiseYoungFn1D,
    ]
    for cls in classes_1d:
        tracer.patch_method(cls, "log_value", "young1d.log_value")
        tracer.patch_method(cls, "log_derivative", "young1d.log_value")
        tracer.patch_method(cls, "value", "young1d.value")
        tracer.patch_method(cls, "derivative", "young1d.value")
    classes_2d = [aniso2d.AnisoFn2D, aniso2d.RadialFn2D]
    for cls in classes_2d:
        tracer.patch_method(cls, "value", "aniso2d.value")
        tracer.patch_method(cls, "grad", "aniso2d.grad")

    modules = [aniso2d, capacity, comparability, construction, descent, gridfield,
               numerics, pde, rearrangement, sobolev, young1d]
    scan = modules + list(callers)

    def fn(module, attr, name, observe=None):
        tracer.patch_function(module, attr, name, scan, observe)

    fn(numerics, "logaddexp_many", "numerics.logaddexp_many")
    fn(numerics, "bisect_increasing_arrays", "numerics.bisect_increasing_arrays")
    fn(construction, "build_triple", "construction.build_triple")
    fn(construction, "incomparability_certificate", "construction.incomparability_certificate")
    fn(aniso2d, "conjugate_of_samples", "aniso2d.legendre", _legendre_ops)
    fn(aniso2d, "conjugate2d", "aniso2d.conjugate2d")
    fn(comparability, "essential_anisotropy_probe", "comparability.probe", _probe)
    fn(comparability, "axis_decomposition_test", "comparability.axis_decomposition_test")
    fn(rearrangement, "ray_radii_log", "rearrangement.ray_radii_log", _rays)
    fn(sobolev, "build_profile", "sobolev.build_profile")
    fn(sobolev, "build_H", "sobolev.build_H")
    fn(descent, "minimize_projected", "descent", _descent)
    fn(gridfield, "forward_gradient", "gridfield.forward_gradient")
    fn(gridfield, "divergence_of", "gridfield.divergence_of")
    fn(capacity, "sobolev_capacity", "capacity.solve", _capacity_solve)
    fn(capacity, "relative_capacity", "capacity.solve", _capacity_solve)
    fn(capacity, "capacity_property_suite", "capacity.suite")
    fn(capacity, "point_capacity_scaling", "capacity.point_scaling")
    fn(pde, "solve_weak", "pde.solve_weak", _iterations_attr)
    fn(pde, "mollify_measure", "pde.mollify_measure")


def leftovers(callers=()):
    """Wrappers still installed anywhere the traced run patches (empty after uninstall)."""
    import sys

    modules = [m for k, m in sys.modules.items() if k.startswith("anisolab") and m is not None]
    modules += list(callers)
    classes = [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    return traced_leftovers(modules, classes)


def layer_metrics(tracer: Tracer):
    """Per-layer metrics (name -> value) from the spans recorded so far."""
    names = tracer.names
    selfs = tracer.self_times()
    by_name = {}
    for sid, parent, nid, t0, t1 in tracer.spans:
        by_name.setdefault(names[nid], []).append((sid, parent, t0, t1))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(prefix):
        return sum(
            selfs[sid]
            for name, rows in by_name.items()
            if name == prefix or name.startswith(prefix + ".")
            for sid, *_ in rows
        )

    def total_s(name):
        return sum(t1 - t0 for _, _, t0, t1 in by_name.get(name, ()))

    def count(name, key, reduce=sum):
        vals = [tracer.counts[sid][key] for sid, *_ in by_name.get(name, ()) if sid in tracer.counts]
        return reduce(vals) if vals else 0

    def per(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("young1d.log_value", "young1d.value", "aniso2d.value", "aniso2d.grad"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.s_per_call"] = per(m[f"{layer}.self_s"], m[f"{layer}.calls"])
    for layer in ("numerics.logaddexp_many", "numerics.bisect_increasing_arrays",
                  "gridfield.forward_gradient", "gridfield.divergence_of"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    m["construction.build_triple.s"] = total_s("construction.build_triple")
    m["construction.incomparability_certificate.s"] = total_s("construction.incomparability_certificate")

    m["aniso2d.legendre.calls"] = calls("aniso2d.legendre")
    m["aniso2d.legendre.self_s"] = self_s("aniso2d.legendre")
    m["aniso2d.legendre.ops"] = count("aniso2d.legendre", "ops")
    m["aniso2d.legendre.ops_per_s"] = per(m["aniso2d.legendre.ops"], m["aniso2d.legendre.self_s"])
    legendre_parents = [parent for _, parent, _, _ in by_name.get("aniso2d.legendre", ())]
    m["aniso2d.conjugate2d.box_doublings"] = sum(
        legendre_parents.count(sid) - 1 for sid, *_ in by_name.get("aniso2d.conjugate2d", ())
    )

    m["comparability.probe.maps"] = count("comparability.probe", "maps")
    m["comparability.probe.n_failing"] = count("comparability.probe", "n_failing")
    m["comparability.probe.self_s"] = self_s("comparability.probe")
    m["comparability.probe.maps_per_s"] = per(m["comparability.probe.maps"], total_s("comparability.probe"))
    m["comparability.probe.workers"] = count("comparability.probe", "workers", max)
    m["comparability.axis_decomposition_test.calls"] = calls("comparability.axis_decomposition_test")

    m["rearrangement.ray_radii_log.calls"] = calls("rearrangement.ray_radii_log")
    m["rearrangement.ray_radii_log.rays"] = count("rearrangement.ray_radii_log", "rays")
    m["rearrangement.ray_radii_log.self_s"] = self_s("rearrangement.ray_radii_log")

    m["sobolev.build_profile.self_s"] = self_s("sobolev.build_profile")
    m["sobolev.build_H.calls"] = calls("sobolev.build_H")

    m["descent.solves"] = calls("descent")
    m["descent.iterations"] = count("descent", "iterations")
    m["descent.iterations_max"] = count("descent", "iterations", max)
    m["descent.self_s"] = self_s("descent")
    m["descent.s_per_iteration"] = per(total_s("descent"), m["descent.iterations"])
    m["descent.linesearch_exits"] = count("descent", "linesearch")
    m["descent.cap_hits"] = count("descent", "cap")

    m["capacity.solves"] = calls("capacity.solve")
    m["capacity.self_s"] = self_s("capacity")
    m["capacity.iter_growth"] = _iter_growth(tracer, by_name)

    m["pde.solve_weak.calls"] = calls("pde.solve_weak")
    m["pde.solve_weak.iterations"] = count("pde.solve_weak", "iterations")
    m["pde.solve_weak.self_s"] = self_s("pde.solve_weak")
    m["pde.mollify_measure.self_s"] = self_s("pde.mollify_measure")
    return m


def _iter_growth(tracer, by_name):
    """Descent iterations at the finest ladder grid over those at the coarsest."""
    ladders = {sid for sid, *_ in by_name.get("capacity.point_scaling", ())}
    rungs = [
        tracer.counts[sid]
        for sid, parent, _, _ in by_name.get("capacity.solve", ())
        if parent in ladders and sid in tracer.counts
    ]
    if not rungs:
        return 0.0
    n_lo = min(r["n"] for r in rungs)
    n_hi = max(r["n"] for r in rungs)
    lo = sum(r["iterations"] for r in rungs if r["n"] == n_lo)
    hi = sum(r["iterations"] for r in rungs if r["n"] == n_hi)
    return hi / lo if lo else 0.0


def median_metrics(per_pass):
    """Median of each metric over passes (list of dicts with equal keys)."""
    return {k: float(np.median([p[k] for p in per_pass])) for k in per_pass[0]}
