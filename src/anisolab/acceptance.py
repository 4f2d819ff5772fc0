"""Acceptance criteria runners shared by the CLI and the test suite.

Each criterion function returns a dict with a "pass" boolean and the
measured quantities that justify it; "seconds" carries the wall time so
callers can check the runtime budgets separately (it is stripped from
deterministic summaries).  ``quick=True`` shrinks grids and family sizes
for smoke runs; the full settings are the acceptance configuration.
"""

from __future__ import annotations

import json
import time

import numpy as np

from .aniso2d import (
    AnisoFn2D,
    GridSpec2D,
    conjugate2d,
    constructed_triple_fn,
    eval2d,
    intro_exp_fn,
    involution_error,
    power_sum_fn,
    quadratic_fn,
    radial_power_fn,
    trudinger_fn,
    verify_young_inequality,
    check_monotonicity_property,
)
from .capacity import (
    capacity_property_suite,
    diffuse_singular_split,
    disk_mask,
    relative_capacity,
    square_mask,
)
from .comparability import (
    axis_decomposition_test,
    canonical_shear,
    composed_forms,
    default_probe_family,
    essential_anisotropy_probe,
    power_sum_envelope_check,
)
from .construction import (
    build_triple,
    envelope_report,
    incomparability_certificate,
    schedule_order_violation,
)
from .gridfield import GridField2D
from .numerics import log1p_exp
from .pde import (
    ApproxSequence,
    DiscreteMeasure,
    mollify_measure,
    solve_weak,
    truncation_bounds_check,
    uniqueness_experiment,
)
from .rearrangement import phi_circ, verify_growth_envelope, verify_levelset_bounds
from .sobolev import build_profile, classify_growth
from .tables import MonotoneTable
from .young1d import PowerFn, check_convex

DEFAULT_SEED = 20240811
POISSON_CENTER = 0.07367135138980674  # series value of the unit-square torsion center


def _timed(fn):
    def wrapper(*a, **kw):
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        out["seconds"] = time.perf_counter() - t0
        return out

    return wrapper


@_timed
def criterion_construction(quick=False, seed=DEFAULT_SEED):
    t0 = time.perf_counter()
    build = build_triple(2.0, 1.0, 6)
    build_seconds = time.perf_counter() - t0
    sched = build.schedule
    increasing = schedule_order_violation(sched) is None
    growth_ok = all(
        log1p_exp(r.logt_next) ** build.alpha >= r.k ** (build.p + 1.0) - 1e-9
        for r in sched
    )
    t0_ok = sched[0].logt == 0.0
    convex_ok = all(check_convex(f).ok for f in build.phi)
    env = envelope_report(build)
    certs = incomparability_certificate(build)
    margins = [c.log_margin for c in certs]
    margins_ok = all(m >= 0.0 for m in margins) and all(
        b > a for a, b in zip(margins[:-1], margins[1:])
    )
    return {
        "pass": bool(
            increasing
            and growth_ok
            and t0_ok
            and convex_ok
            and env["all_between_envelopes"]
            and env["min_matches_lower_envelope"]
            and env["max_matches_upper_envelope"]
            and margins_ok
            and build_seconds < RUNTIME_BUDGETS["1_construction"]
        ),
        "margins": margins,
        "build_seconds": build_seconds,
        "envelope": env,
        "schedule_increasing": increasing,
        "growth_condition": growth_ok,
        "convexity": convex_ok,
    }


@_timed
def criterion_sandwich(quick=False, seed=DEFAULT_SEED):
    build = build_triple(2.0, 1.0, 4 if quick else 6)
    n_angles = 512 if quick else 2048
    t_list = np.logspace(1.0, 8.0, 8 if quick else 20)
    bounds = verify_levelset_bounds(build, t_list, n_angles=n_angles)
    env = verify_growth_envelope(build, np.logspace(1.0, 8.0, 8 if quick else 16), n_angles=n_angles)
    return {
        "pass": bool(bounds["ok"] and env["stable_within_20pct"] and env["C"] >= 1.0),
        "bounds_ok": bounds["ok"],
        "envelope_C": env["C"],
        "envelope_C_doubled": env["C_doubled_range"],
        "envelope_stable": env["stable_within_20pct"],
    }


@_timed
def criterion_conjugation(quick=False, seed=DEFAULT_SEED):
    n = 129 if quick else 513
    rng = np.random.default_rng(seed)
    out = {"pass": True}
    for name, phi in (("quadratic", quadratic_fn()), ("power_sum_2_4", power_sum_fn(2, 4))):
        spec = GridSpec2D.square(4.0, n)
        err = involution_error(phi, spec)
        # maximizers reach the dual box corner, so the primal box is set
        # twice as wide at the same spacing; xi drawn from its nodes is a
        # point the discrete maximum ran over, so the slack is rounding only
        primal = GridSpec2D.square(8.0, 2 * n - 1)
        star = conjugate2d(phi, spec, primal_spec=primal)
        k = min(10_000, n * n)
        ii = rng.integers(0, n, k)
        jj = rng.integers(0, n, k)
        pi = rng.integers(0, primal.n, k)
        pj = rng.integers(0, primal.n, k)
        xi = np.stack([primal.x[pi], primal.x[pj]], axis=-1)
        slack = verify_young_inequality(phi, star, xi, (ii, jj))
        X, Y = np.meshgrid(spec.x, spec.y, indexing="ij")
        scale = float(np.max(phi.value(X, Y)))
        out[name] = {"involution_error": err, "young_slack": slack, "scale": scale}
        out["pass"] = bool(out["pass"] and err <= 0.02 and slack <= 1e-6 * scale)
    # analytic conjugate of a pure power
    p = 3.0
    phi = radial_power_fn(p, 1.0 / p)
    spec = GridSpec2D.square(4.0, n)
    star = conjugate2d(phi, spec)
    Xs, Ys = np.meshgrid(star.x, star.y, indexing="ij")
    q = p / (p - 1.0)
    ref = np.hypot(Xs, Ys) ** q / q
    perr = float(np.max(np.abs(star.values - ref)) / np.max(ref))
    out["power_conjugate_error"] = perr
    out["pass"] = bool(out["pass"] and perr <= 0.01)
    return out


@_timed
def criterion_monotonicity_example(quick=False, seed=DEFAULT_SEED):
    phi = intro_exp_fn()
    v1 = eval2d(phi, (2.0, 0.0))
    v2 = eval2d(phi, (3.0, 3.0))
    ref1 = 4.0 * (1.0 + np.exp(2.0))
    exact = abs(v1 - ref1) <= 1e-13 * ref1 and abs(v2 - 18.0) <= 1e-13 * 18.0
    violations = check_monotonicity_property(phi, [((2.0, 0.0), (3.0, 3.0))])
    return {
        "pass": bool(exact and len(violations) == 1),
        "phi_2_0": v1,
        "phi_3_3": v2,
        "violation_flagged": len(violations) == 1,
    }


@_timed
def criterion_probe(quick=False, seed=DEFAULT_SEED):
    build = build_triple(2.0, 1.0, 9)
    triple = constructed_triple_fn(build)
    if quick:
        mats, _ = default_probe_family(36, 7, 7)
    else:
        mats, _ = default_probe_family(360, 21, 21)
    probe = essential_anisotropy_probe(triple, mats)
    # Trudinger straightens under the canonical shear
    tr = trudinger_fn()
    forms = composed_forms(tr, canonical_shear().as_array()[None])[0]
    terms = [(fx, fy, fn) for (fx, fy), (_, _, fn) in zip(forms, tr.terms)]
    tr_sheared = axis_decomposition_test(AnisoFn2D(terms, name="trudinger@shear"))
    ps_identity = axis_decomposition_test(power_sum_fn(2, 3))
    env = power_sum_envelope_check(1, 2, 3, n_samples=20_000 if quick else 100_000, seed=seed)
    return {
        "pass": bool(
            probe["all_fail"]
            and tr_sheared["equivalent"]
            and ps_identity["equivalent"]
            and env["sandwich_finite"]
        ),
        "triple_maps_failing": probe["n_failing"],
        "triple_maps_total": probe["n_maps"],
        "trudinger_shear_equivalent": tr_sheared["equivalent"],
        "power_sum_identity_equivalent": ps_identity["equivalent"],
        "envelope_constants": [env["c_env_over_phi"], env["c_phi_over_env"]],
    }


@_timed
def criterion_rearrangement_sobolev(quick=False, seed=DEFAULT_SEED):
    out = {"pass": True}
    # radial rearrangement oracles
    tg = np.logspace(-6, 6, 60 if quick else 160)
    tab = phi_circ(power_sum_fn(2, 2), tg, n_angles=512 if quick else 2048)
    s = np.exp(np.linspace(np.log(2e-3), np.log(7.0), 25))
    err_disk = float(np.max(np.abs(tab.value(s) - s**2) / s**2))
    tab_e = phi_circ(power_sum_fn(2, 2, 1.0, 4.0), tg, n_angles=2048)
    err_ell = float(np.max(np.abs(tab_e.value(s) - 2.0 * s**2) / (2.0 * s**2)))
    out["phicirc_disk_error"] = err_disk
    out["phicirc_ellipse_error"] = err_ell
    out["pass"] = bool(out["pass"] and err_disk <= 1e-6 and err_ell <= 1e-4)
    # Sobolev conjugate exponents through the full pipeline
    out["phin_exponents"] = {}
    for p in (1.0, 1.5):
        tgp = np.logspace(-8, 8, 120)
        tabp = phi_circ(radial_power_fn(p), tgp, n_angles=256)
        prof = build_profile(tabp)
        half = len(prof.phin.logx) // 2
        slope = float(np.polyfit(prof.phin.logx[half:], prof.phin.logy[half:], 1)[0])
        target = 2.0 * p / (2.0 - p)
        out["phin_exponents"][p] = slope
        out["pass"] = bool(out["pass"] and abs(slope - target) <= 0.02 * target)
    # growth classification on pure powers
    expected = {1.0: "slow", 1.25: "slow", 1.5: "slow", 1.75: "slow", 2.5: "fast", 3.0: "fast"}
    labels = {}
    for p, want in expected.items():
        x = np.logspace(-8, 8, 200)
        got = classify_growth(MonotoneTable.from_values(x, x**p)).label
        labels[p] = got
        out["pass"] = bool(out["pass"] and got == want)
    labels[2.0] = classify_growth(MonotoneTable.from_values(np.logspace(-8, 8, 200), np.logspace(-8, 8, 200) ** 2)).label
    out["pass"] = bool(out["pass"] and labels[2.0] == "inconclusive")
    out["growth_labels"] = {str(k): v for k, v in labels.items()}
    return out


@_timed
def criterion_capacity(quick=False, seed=DEFAULT_SEED):
    out = {"pass": True}
    # annulus against the classical conductor value
    n = 129 if quick else 257
    target = 2.0 * np.pi / np.log(4.0)
    K = disk_mask(n, 0.5, 0.5, 0.1)
    Om = disk_mask(n, 0.5, 0.5, 0.4)
    res = relative_capacity(
        radial_power_fn(2.0), PowerFn(2.0), 1.0, K, Om, n, mode="dirichlet-only"
    )
    ann_err = abs(res.value - target) / target
    out["annulus_value"] = res.value
    out["annulus_error"] = ann_err
    out["pass"] = bool(out["pass"] and ann_err <= 0.05)
    # property suite on six configurations
    ns = 65 if quick else 129
    pairs = [
        (square_mask(ns, 0.30, 0.50, 0.30, 0.50), square_mask(ns, 0.40, 0.62, 0.40, 0.62)),
        (square_mask(ns, 0.25, 0.45, 0.25, 0.45), square_mask(ns, 0.55, 0.75, 0.55, 0.75)),
        (square_mask(ns, 0.30, 0.60, 0.40, 0.55), square_mask(ns, 0.40, 0.55, 0.30, 0.60)),
        (disk_mask(ns, 0.45, 0.45, 0.12), disk_mask(ns, 0.55, 0.55, 0.12)),
        (square_mask(ns, 0.35, 0.55, 0.35, 0.55), square_mask(ns, 0.35, 0.55, 0.35, 0.55)),
        (disk_mask(ns, 0.5, 0.5, 0.08), square_mask(ns, 0.30, 0.70, 0.30, 0.70)),
    ]
    suite = capacity_property_suite(
        quadratic_fn(1.0), PowerFn(2.0), 1.0, pairs, ns, rel_tol_check=1e-3
    )
    out["suite_ok"] = suite["ok"]
    out["pass"] = bool(out["pass"] and suite["ok"])
    # point capacity separation: the split of one centred atom
    nvals = (33, 65, 129) if quick else (33, 65, 129, 257)
    atom = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    (d15,), (d30,) = (
        diffuse_singular_split(atom, p, n_values=nvals)["details"] for p in (1.5, 3.0)
    )
    v15, v30 = d15["values"], d30["values"]
    out["point_ratio_p15"] = v15[-1] / v15[0]
    out["point_ratio_p30"] = v30[-1] / v30[0]
    out["point_values"] = {"1.5": v15, "3.0": v30}
    out["pass"] = bool(
        out["pass"]
        and d15["null_supported"]
        and not d30["null_supported"]
        and v15[-1] < v30[-1]
    )
    return out


@_timed
def criterion_pde(quick=False, seed=DEFAULT_SEED):
    out = {"pass": True}
    n = 65 if quick else 129
    base = GridField2D.unit_square(n)
    # torsion center value
    f = GridField2D.unit_square(n)
    f.values[:] = 1.0
    u = solve_weak(quadratic_fn(), f)
    center = float(u.values[n // 2, n // 2])
    cerr = abs(center - POISSON_CENTER) / POISSON_CENTER
    out["poisson_center"] = center
    out["poisson_error"] = cerr
    out["pass"] = bool(out["pass"] and cerr <= 0.01)
    # truncation bounds for a Dirac datum under p = 1.5 growth
    scales = [0.5 * 2.0**-s for s in range(1, 4 if quick else 6)]
    mud = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    phi15 = radial_power_fn(1.5)
    sols = []
    prev = None
    for eps in scales:
        hf = mollify_measure(mud, eps, "gaussian", base)
        sol = solve_weak(phi15, hf, rel_tol=1e-9, u0=prev)
        prev = sol.values.copy()
        sols.append(sol)
    # probe truncation levels inside every stage's active range: the first
    # stage peaks lowest, so anchor the ladder there
    umax_first = float(np.max(np.abs(sols[0].values)))
    k_list = [0.1 * umax_first * 2.0**j for j in range(4)]
    tb = truncation_bounds_check(sols, k_list, phi15)
    out["C0"] = tb["C0"]
    out["C0_stable"] = tb["ok"]
    out["ladder_iterations"] = [sol.iterations for sol in sols]
    out["ladder_stop_reasons"] = [sol.stop_reason for sol in sols]
    out["pass"] = bool(out["pass"] and tb["ok"])
    # two-sequence uniqueness experiment, (f, G = 0), quadratic growth
    dens = GridField2D.unit_square(n)
    ax = dens.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    dens.values = np.where((np.abs(X - 0.5) <= 0.2) & (np.abs(Y - 0.5) <= 0.2), 1.0, 0.0)
    mu = DiscreteMeasure(atoms=[], density=dens)
    # epsilon_0 = 1: the last-stage solution gap then sits well above the
    # solver's noise floor, keeping the trend curves strictly monotone
    seq_scales = [2.0**-s for s in range(1, 4 if quick else 6)]
    rep = uniqueness_experiment(
        quadratic_fn(),
        mu,
        ApproxSequence(kernel="gaussian", scales=seq_scales),
        ApproxSequence(kernel="bump", scales=seq_scales),
        base,
        rel_tol=1e-11,
    )
    out["l1_gaps"] = rep.l1_gaps
    out["gap_integrals"] = rep.gap_integrals
    out["pass"] = bool(
        out["pass"]
        and rep.l1_gaps[-1] < 1e-3
        and rep.gaps_decreasing()
        and rep.gap_integrals_decreasing()
    )
    return out


@_timed
def criterion_determinism(seed=DEFAULT_SEED):
    """Two runs of the seeded deterministic core must serialize identically."""

    def run_once():
        build = build_triple(2.0, 1.0, 6)
        certs = incomparability_certificate(build)
        env = power_sum_envelope_check(1, 2, 3, n_samples=5000, seed=seed)
        mats, _ = default_probe_family(12, 3, 3)
        probe = essential_anisotropy_probe(constructed_triple_fn(build_triple(2.0, 1.0, 9)), mats)
        payload = {
            "schedule": [[r.k, r.logt, r.logh, r.logs, r.logt_next] for r in build.schedule],
            "margins": [c.log_margin for c in certs],
            "envelope": env,
            "probe_failing": int(probe["n_failing"]),
        }
        return json.dumps(payload, sort_keys=True).encode()

    a, b = run_once(), run_once()
    return {"pass": a == b, "bytes": len(a)}


CRITERIA = {
    "1_construction": criterion_construction,
    "2_sandwich": criterion_sandwich,
    "3_conjugation": criterion_conjugation,
    "4_monotonicity_example": criterion_monotonicity_example,
    "5_probe": criterion_probe,
    "6_rearrangement_sobolev": criterion_rearrangement_sobolev,
    "7_capacity": criterion_capacity,
    "8_pde": criterion_pde,
}

RUNTIME_BUDGETS = {
    "1_construction": 5.0,
    "2_sandwich": 30.0,
    "3_conjugation": 120.0,
    "4_monotonicity_example": 1.0,
    "5_probe": 300.0,
    "6_rearrangement_sobolev": 60.0,
    "7_capacity": 600.0,
    "8_pde": 900.0,
}


def run_all(quick=False, seed=DEFAULT_SEED):
    """Run the whole acceptance battery; returns (summary, timings)."""
    summary = {"quick": bool(quick), "seed": int(seed), "criteria": {}}
    timings = {}
    for name, fn in CRITERIA.items():
        res = fn(quick=quick, seed=seed)
        seconds = res.pop("seconds")
        timings[name] = seconds
        # wall-clock values stay out of the summary so reruns are byte-identical
        for key in [k for k in res if k.endswith("seconds")]:
            timings[f"{name}.{key}"] = res.pop(key)
        res["within_budget"] = bool(seconds <= RUNTIME_BUDGETS[name])
        summary["criteria"][name] = res
    det = criterion_determinism(seed=seed)
    timings["9_determinism"] = det.pop("seconds")
    summary["criteria"]["9_determinism"] = det
    summary["all_pass"] = bool(all(c["pass"] for c in summary["criteria"].values()))
    return summary, timings
