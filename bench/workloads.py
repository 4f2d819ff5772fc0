"""The benchmark's four workloads.

Each workload turns a seed into inputs (``make_inputs``), runs a short
untimed warm-up through the same code paths (``warmup``), and lists its
items: callables returning ``(ok, payload)``, where ``ok`` is the verdict
of the lab's analytic oracle for that item and ``payload`` holds the
numbers the verdict rests on (hashed to compare runs byte for byte).
Each also names the kernel of ``reference.py`` that does the same kind of
work as its items, which the run uses to take out the drift of the core's
speed.

The reason each workload exists is written beside its definition; the
sizes are chosen so that one pass takes a few seconds on a 2-core box,
which lets a run of ``--seconds 22`` take several passes.
"""

from __future__ import annotations

import numpy as np

from anisolab.aniso2d import (
    AnisoFn2D,
    GridSpec2D,
    conjugate2d,
    constructed_triple_fn,
    involution_error,
    power_sum_fn,
    quadratic_fn,
    radial_power_fn,
    trudinger_fn,
    verify_young_inequality,
)
from anisolab.capacity import (
    capacity_property_suite,
    disk_mask,
    point_capacity_scaling,
    relative_capacity,
    square_mask,
)
from anisolab.comparability import (
    axis_decomposition_test,
    canonical_shear,
    default_probe_family,
    essential_anisotropy_probe,
)
from anisolab.construction import build_triple, incomparability_certificate
from anisolab.gridfield import GridField2D
from anisolab.pde import (
    ApproxSequence,
    DiscreteMeasure,
    mollify_measure,
    solve_weak,
    truncation_bounds_check,
    uniqueness_experiment,
)
from anisolab.rearrangement import phi_circ, verify_growth_envelope, verify_levelset_bounds
from anisolab.sobolev import build_profile, classify_growth
from anisolab.tables import MonotoneTable
from anisolab.young1d import PowerFn

import reference

POISSON_CENTER = 0.07367135138980674  # series value of the unit-square torsion centre


def _maps(thetas, shears, log2_scales):
    """Rotation @ shear @ unimodular scaling, the probe family's parametrization."""
    c, s = np.cos(thetas), np.sin(thetas)
    lam = 2.0 ** log2_scales
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    shear = np.zeros_like(rot)
    shear[:, 0, 0] = shear[:, 1, 1] = 1.0
    shear[:, 1, 0] = shears
    scale = np.zeros_like(rot)
    scale[:, 0, 0] = lam
    scale[:, 1, 1] = 1.0 / lam
    return rot @ shear @ scale


# ---------------------------------------------------------------------------
# refute: the paper's headline example.  Dominated by young1d piecewise
# dispatch, numerics.logaddexp_many, the comparability scan and ray casting
# over huge log breakpoints; no Legendre and no descent work.


PROBE_ANGLES = 36  # of the 360: all of them take ~24 s a pass on one 2.1 GHz Xeon core
RANDOM_MAPS = 2048


def refute_inputs(rng):
    build = build_triple(2.0, 1.0, 9)
    family, _ = default_probe_family(360, 21, 21)
    angles = np.sort(rng.choice(360, size=PROBE_ANGLES, replace=False))
    probe_mats = family.reshape(360, 21 * 21, 2, 2)[angles].reshape(-1, 2, 2)
    random_mats = _maps(
        rng.uniform(0.0, 2.0 * np.pi, RANDOM_MAPS),
        rng.uniform(-2.0, 2.0, RANDOM_MAPS),
        rng.uniform(-2.0, 2.0, RANDOM_MAPS),
    )
    levels = np.sort(10.0 ** rng.uniform(1.0, 8.0, 8))
    env_lo, env_hi = rng.uniform(1.0, 1.5), rng.uniform(7.5, 8.0)
    return {
        "build": build,
        "triple": constructed_triple_fn(build),
        "probe_mats": probe_mats,
        "random_mats": random_mats,
        "levels": levels,
        "envelope_levels": np.logspace(env_lo, env_hi, 16),
        "trudinger": (rng.uniform(2.5, 3.5), rng.uniform(1.5, 2.5)),
        "power_sum": (rng.uniform(1.5, 2.5), rng.uniform(2.5, 3.5)),
    }


def refute_warmup(inp):
    essential_anisotropy_probe(inp["triple"], inp["probe_mats"][:64])
    verify_levelset_bounds(inp["build"], inp["levels"][:1], n_angles=64)


def _probe_item(triple, mats):
    def run():
        probe = essential_anisotropy_probe(triple, mats)
        ok = probe["all_fail"] and probe["n_maps"] == len(mats)
        return ok, {"n_failing": probe["n_failing"], "drops": probe["worst_drops"]}

    return run


def refute_items(inp):
    build, triple = inp["build"], inp["triple"]

    def certificates():
        certs = incomparability_certificate(build)
        margins = [c.log_margin for c in certs]
        ok = all(m >= 0.0 for m in margins) and all(b > a for a, b in zip(margins, margins[1:]))
        return ok, {"margins": margins}

    def sandwich():
        rep = verify_levelset_bounds(build, inp["levels"], n_angles=2048)
        return rep["ok"], {"log_area": [r["log_area"] for r in rep["rows"]]}

    def envelope():
        env = verify_growth_envelope(build, inp["envelope_levels"], n_angles=2048)
        ok = env["stable_within_20pct"] and env["C"] >= 1.0
        return ok, {"C": env["C"], "C2": env["C_doubled_range"]}

    def axis_tests():
        # the triple refuses the axis decomposition; a sheared Trudinger
        # function and a power sum accept it
        alpha, beta = inp["trudinger"]
        tr = trudinger_fn(alpha, beta)
        shear = canonical_shear().as_array()
        terms = [(*(shear.T @ np.array([dx, dy])), fn) for dx, dy, fn in tr.terms]
        sheared = axis_decomposition_test(AnisoFn2D(terms, name="trudinger@shear"))
        ps = axis_decomposition_test(power_sum_fn(*inp["power_sum"]))
        tri = axis_decomposition_test(triple)
        ok = sheared["equivalent"] and ps["equivalent"] and not tri["equivalent"]
        return ok, {"triple_drop": tri["worst_drop"]}

    return [
        ("probe_family", _probe_item(triple, inp["probe_mats"])),
        ("probe_random", _probe_item(triple, inp["random_mats"])),
        ("certificates", certificates),
        ("levelset_sandwich", sandwich),
        ("growth_envelope", envelope),
        ("axis_decomposition", axis_tests),
    ]


# ---------------------------------------------------------------------------
# transform: conjugation at n = 257 and 513.  The O(n^3) Legendre kernel
# dominates, so a faster transform (ROADMAP item 3) must show here; ray
# casting runs on smooth radial functions, unlike in refute.


def transform_inputs(rng):
    return {
        "radial_p": rng.uniform(2.5, 3.5),
        "power_sum": (rng.uniform(2.0, 3.0), rng.uniform(3.0, 4.0)),
        # maximizers sit at |eta| / (2 c) <= 2 / c: for c above 1/2 the
        # primal box doubles exactly twice (1 -> 4) whatever the seed
        "quad_coef": rng.uniform(0.55, 0.65),
        "pair_seed": int(rng.integers(2**31)),
        "ellipse": (rng.uniform(0.5, 2.0), rng.uniform(2.0, 4.0)),
        "phin_p": rng.uniform(1.1, 1.6),
        "slow_p": rng.uniform(1.0, 1.8),
        "fast_p": rng.uniform(2.3, 3.5),
    }


def transform_warmup(inp):
    conjugate2d(quadratic_fn(), GridSpec2D.square(4.0, 33))
    phi_circ(power_sum_fn(2, 2), np.logspace(-2, 2, 4), n_angles=64)


def _power_conjugate(p, eta):
    """Closed-form conjugate of |t|^p on one axis: (p - 1) (|eta| / p)^(p / (p - 1))."""
    return (p - 1.0) * (np.abs(eta) / p) ** (p / (p - 1.0))


def _young_slack(phi, star, primal, rng, k=10_000):
    """Largest Young slack over random (xi, eta) pairs.  The xi come from
    the primal grid the transform maximized over: there the sampled
    conjugate satisfies the inequality exactly, while off-grid points may
    exceed it by the discretization error."""
    ii, jj = rng.integers(0, star.nx, k), rng.integers(0, star.ny, k)
    xi = np.stack([primal.x[rng.integers(0, primal.n, k)], primal.y[rng.integers(0, primal.n, k)]], axis=-1)
    return verify_young_inequality(phi, star, xi, (ii, jj))


def transform_items(inp):
    def radial_513():
        p = inp["radial_p"]
        star = conjugate2d(radial_power_fn(p, 1.0 / p), GridSpec2D.square(4.0, 513))
        xs, ys = np.meshgrid(star.x, star.y, indexing="ij")
        q = p / (p - 1.0)
        ref = np.hypot(xs, ys) ** q / q
        err = float(np.max(np.abs(star.values - ref)) / np.max(ref))
        return err <= 0.01, {"err": err}

    def quadratic_257():
        rng = np.random.default_rng(inp["pair_seed"])
        phi, spec = quadratic_fn(), GridSpec2D.square(4.0, 257)
        inv = involution_error(phi, spec)
        # maximizers reach the dual box corner, so the primal box is set
        # twice as wide (same spacing) instead of doubling from the edge
        primal = GridSpec2D.square(8.0, 513)
        star = conjugate2d(phi, spec, primal_spec=primal)
        slack = _young_slack(phi, star, primal, rng)
        scale = float(phi.value(4.0, 4.0))
        return inv <= 0.02 and slack <= 1e-6 * scale, {"inv": inv, "slack": slack}

    def power_sum_257():
        rng = np.random.default_rng(inp["pair_seed"] + 1)
        p1, p2 = inp["power_sum"]
        phi, spec = power_sum_fn(p1, p2), GridSpec2D.square(4.0, 257)
        inv = involution_error(phi, spec)
        star = conjugate2d(phi, spec)
        xs, ys = np.meshgrid(star.x, star.y, indexing="ij")
        ref = _power_conjugate(p1, xs) + _power_conjugate(p2, ys)
        err = float(np.max(np.abs(star.values - ref)) / np.max(ref))
        slack = _young_slack(phi, star, spec, rng)
        scale = float(phi.value(4.0, 4.0))
        ok = inv <= 0.02 and err <= 0.01 and slack <= 1e-6 * scale
        return ok, {"inv": inv, "err": err, "slack": slack}

    def box_doubling_257():
        # a primal box a quarter of the dual one: maximizers sit on its edge
        # until the box has doubled past |eta| / (2 c), twice for every seed
        c = inp["quad_coef"]
        dual = GridSpec2D.square(4.0, 257)
        star = conjugate2d(power_sum_fn(2, 2, c, c), dual, primal_spec=GridSpec2D.square(1.0, 257))
        xs, ys = np.meshgrid(star.x, star.y, indexing="ij")
        ref = (xs**2 + ys**2) / (4.0 * c)
        err = float(np.max(np.abs(star.values - ref)) / np.max(ref))
        return err <= 0.01, {"err": err}

    def phicirc_disk_ellipse():
        tg = np.logspace(-6, 6, 60)
        s = np.exp(np.linspace(np.log(2e-3), np.log(7.0), 25))
        disk = phi_circ(power_sum_fn(2, 2), tg, n_angles=2048)
        err_disk = float(np.max(np.abs(disk.value(s) - s**2) / s**2))
        a, b = inp["ellipse"]
        ell = phi_circ(power_sum_fn(2, 2, a, b), tg, n_angles=2048)
        ref = np.sqrt(a * b) * s**2  # {a x^2 + b y^2 <= t} has area pi t / sqrt(ab)
        err_ell = float(np.max(np.abs(ell.value(s) - ref) / ref))
        return err_disk <= 1e-6 and err_ell <= 1e-4, {"disk": err_disk, "ellipse": err_ell}

    def phin_exponent():
        p = inp["phin_p"]
        tab = phi_circ(radial_power_fn(p), np.logspace(-8, 8, 120), n_angles=256)
        prof = build_profile(tab)
        half = len(prof.phin.logx) // 2
        slope = float(np.polyfit(prof.phin.logx[half:], prof.phin.logy[half:], 1)[0])
        target = 2.0 * p / (2.0 - p)
        return abs(slope - target) <= 0.02 * target, {"slope": slope}

    def growth_labels():
        x = np.logspace(-8, 8, 200)
        slow = classify_growth(MonotoneTable.from_values(x, x ** inp["slow_p"]))
        fast = classify_growth(MonotoneTable.from_values(x, x ** inp["fast_p"]))
        ok = slow.label == "slow" and fast.label == "fast"
        return ok, {"slow": slow.tail_slope, "fast": fast.tail_slope}

    return [
        ("radial_513", radial_513),
        ("quadratic_257", quadratic_257),
        ("power_sum_257", power_sum_257),
        ("box_doubling_257", box_doubling_257),
        ("phicirc_disk_ellipse", phicirc_disk_ellipse),
        ("phin_exponent", phin_exponent),
        ("growth_labels", growth_labels),
    ]


# ---------------------------------------------------------------------------
# condenser: capacity solves.  Descent iterations under box projection and
# warm starts dominate, so mesh-independent solves (ROADMAP item 4) must
# show here; no Legendre or probe code runs.

# Descent iteration counts jump by a tenth or more when the radii move by
# a hair, so a pass solves three seeded annuli and their sum moves less; at
# n = 97 the three cost about what one did at n = 129.
ANNULUS_N = 97
ANNULI = 3
SUITE_N = 65
LADDER_N = (33, 65)


def condenser_inputs(rng):
    n, ns = ANNULUS_N, SUITE_N
    # narrow ranges: the seed moves values, not the iteration counts much
    r_in, r_out = rng.uniform(0.10, 0.11, ANNULI), rng.uniform(0.38, 0.40, ANNULI)
    c = rng.uniform(-0.01, 0.01, (ANNULI, 2))
    d = rng.uniform(0.09, 0.11, 2)  # offset of the two disks from the middle
    r = rng.uniform(0.11, 0.12)
    lo, w = rng.uniform(0.30, 0.32), rng.uniform(0.19, 0.21)
    shift = rng.uniform(0.09, 0.11)
    return {
        "annuli": [
            (ri, ro, disk_mask(n, 0.5 + cx, 0.5 + cy, ri), disk_mask(n, 0.5 + cx, 0.5 + cy, ro))
            for ri, ro, (cx, cy) in zip(r_in, r_out, c)
        ],
        "pairs": [
            (
                disk_mask(ns, 0.5 - d[0], 0.5 - d[1], r),
                disk_mask(ns, 0.5 + d[0], 0.5 + d[1], r),
            ),
            (
                square_mask(ns, lo, lo + w, lo, lo + w),
                square_mask(ns, lo + shift, lo + shift + w, lo + shift, lo + shift + w),
            ),
        ],
    }


def condenser_warmup(inp):
    n = 17
    relative_capacity(radial_power_fn(2.0), PowerFn(2.0), 1.0, disk_mask(n, 0.5, 0.5, 0.15),
                      disk_mask(n, 0.5, 0.5, 0.4), n, mode="dirichlet-only")


def _annulus_item(r_in, r_out, k_mask, om_mask):
    def run():
        res = relative_capacity(
            radial_power_fn(2.0), PowerFn(2.0), 1.0, k_mask, om_mask, ANNULUS_N, mode="dirichlet-only"
        )
        target = 2.0 * np.pi / np.log(r_out / r_in)
        err = abs(res.value - target) / target
        return err <= 0.05, {"value": res.value, "iterations": res.iterations}

    return run


def condenser_items(inp):
    def property_suite():
        suite = capacity_property_suite(
            quadratic_fn(1.0), PowerFn(2.0), 1.0, inp["pairs"], SUITE_N, rel_tol_check=1e-3
        )
        return suite["ok"], {"rows": [[r["C_a"], r["C_b"], r["C_union"], r["C_inter"]] for r in suite["rows"]]}

    def point_ladder():
        # one halving of the cell scales the point capacity by 2^-(2-p) for
        # p < 2 and leaves it bounded below for p > 2
        rep = point_capacity_scaling([1.5, 3.0], n_values=LADDER_N)
        v15, v30 = rep[1.5]["values"], rep[3.0]["values"]
        r15, r30 = v15[-1] / v15[0], v30[-1] / v30[0]
        ok = abs(r15 / 2.0**-0.5 - 1.0) <= 0.1 and r30 >= 0.85 and v15[-1] < v30[-1]
        return ok, {"p15": v15, "p30": v30}

    annuli = [(f"annulus_{i}", _annulus_item(*a)) for i, a in enumerate(inp["annuli"])]
    return annuli + [("property_suite", property_suite), ("point_ladder", point_ladder)]


# ---------------------------------------------------------------------------
# measure-data: weak solves with measure data.  Uses the same descent
# engine with no box projection, a tight tolerance and the secant
# preconditioner, so a descent change that helps condenser but costs PDE
# solves (ROADMAP 4c) shows here.

# Descent iteration counts jump by a fifth when the data move by a hair
# (even a mirror image of the same data), so a pass solves two seeded
# cases of each kind and their sum moves less; n = 49 keeps the pass at a
# few seconds.
PDE_N = 49
CASES = 2


def measure_inputs(rng):
    n = PDE_N
    base = GridField2D.unit_square(n)
    ax = base.axis()
    xs, ys = np.meshgrid(ax, ax, indexing="ij")
    cases = []
    for _ in range(CASES):
        cx, cy = rng.uniform(0.48, 0.52, 2)
        half = rng.uniform(0.19, 0.21)
        dens = GridField2D.unit_square(n)
        dens.values = np.where((np.abs(xs - cx) <= half) & (np.abs(ys - cy) <= half), 1.0, 0.0)
        cases.append({
            "load": rng.uniform(0.5, 2.0),
            "dirac": DiscreteMeasure(atoms=[(*rng.uniform(0.48, 0.52, 2), rng.uniform(0.8, 1.25))]),
            "density": DiscreteMeasure(atoms=[], density=dens),
        })
    return {"base": base, "cases": cases}


def measure_warmup(inp):
    f = GridField2D.unit_square(17)
    f.values[:] = 1.0
    solve_weak(radial_power_fn(1.5), f, rel_tol=1e-6)


def _measure_case_items(base, case):
    def torsion():
        f = GridField2D.unit_square(PDE_N)
        f.values[:] = case["load"]
        u = solve_weak(quadratic_fn(), f)
        centre = float(u.values[PDE_N // 2, PDE_N // 2])
        target = case["load"] * POISSON_CENTER  # linear in the load for quadratic growth
        err = abs(centre - target) / target
        return err <= 0.01, {"centre": centre, "iterations": u.iterations}

    def truncation_ladder():
        phi = radial_power_fn(1.5)
        sols, prev = [], None
        for eps in (0.25, 0.125, 0.0625):
            data = mollify_measure(case["dirac"], eps, "gaussian", base)
            sol = solve_weak(phi, data, rel_tol=1e-9, u0=prev)
            prev = sol.values.copy()
            sols.append(sol)
        top = float(np.max(np.abs(sols[0].values)))
        tb = truncation_bounds_check(sols, [0.1 * top * 2.0**j for j in range(4)], phi)
        return tb["ok"], {"C0": tb["C0"], "per_stage": tb["per_stage"]}

    def uniqueness():
        scales = [0.5, 0.25, 0.125]
        rep = uniqueness_experiment(
            quadratic_fn(),
            case["density"],
            ApproxSequence(kernel="gaussian", scales=scales),
            ApproxSequence(kernel="bump", scales=scales),
            base,
            rel_tol=1e-11,
        )
        ok = rep.l1_gaps[-1] < 1e-3 and rep.gaps_decreasing() and rep.gap_integrals_decreasing()
        return ok, {"l1": rep.l1_gaps, "gap": rep.gap_integrals}

    return [("torsion", torsion), ("truncation_ladder", truncation_ladder), ("uniqueness", uniqueness)]


def measure_items(inp):
    return [
        (f"{name}_{k}", fn)
        for k, case in enumerate(inp["cases"])
        for name, fn in _measure_case_items(inp["base"], case)
    ]


# (inputs, warm-up, items, the reference kernel that does the same kind of work)
WORKLOADS = {
    "refute": (refute_inputs, refute_warmup, refute_items, reference.compute),
    "transform": (transform_inputs, transform_warmup, transform_items, reference.memory),
    "condenser": (condenser_inputs, condenser_warmup, condenser_items, reference.compute),
    "measure-data": (measure_inputs, measure_warmup, measure_items, reference.compute),
}
