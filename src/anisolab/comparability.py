"""Domination, equivalence, and the linear-change-of-variables probe.

Domination of F over G means c G(d x) <= F(x) globally for some positive
constants; it is refuted on finite samples only as a trend, never as a
proof: for each scaling d the feasible constant is exp of the minimal
log-gap log F(x) - log G(d x), and a verdict of failure requires that
minimum to run away to -inf along a recorded witness sequence.

For the constructed competing triple the refutation witnesses are placed
cycle by cycle: along the kernel direction of one composed linear form
the sum Phi(x, 0) + Phi(0, y) keeps the leading function's contribution
while Phi itself drops it, and radii are clamped so the two trailing
functions sit on their power segment while the leader sits on its
log-weighted segment.  The resulting gap decreases between consecutive
leading cycles of the same index by at least the log-ratio of the zone
scales, uniformly over the constant grids, which is what makes a
definite per-map verdict possible at a finite cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .aniso2d import AnisoFn2D
from .numerics import logaddexp_many

__all__ = [
    "DominationVerdict",
    "LinearMap2D",
    "dominates",
    "equivalent",
    "equivalent_on_rays",
    "axis_decomposition_test",
    "default_probe_family",
    "canonical_shear",
    "composed_forms",
    "essential_anisotropy_probe",
    "power_sum_envelope_check",
]

DEFAULT_D_GRID = np.exp(np.linspace(-20.0, 20.0, 41) * np.log(2.0))
DROP_MIN = 1.0  # the least per-decade trend drop (nats) that refutes a domination
TREND_TAIL = 3  # decade minima a diverging trend must fall across
LOG_C_MIN = -20.0 * np.log(2.0)
LOG_C_MAX = 20.0 * np.log(2.0)
# axis_decomposition_test's generic cloud: the log10 range of the ray
# radii and samples per decade
AXIS_DECADES = (-6.0, 8.0)
AXIS_PER_DECADE = 3
# cycle-witness refutation: the least total gap drop (nats) that counts
# as divergence, and the margin (nats) kept from each zone's ends
WITNESS_DROP_MIN = 0.5
WITNESS_SAFETY = 0.25
WITNESS_K_MIN = 2  # zones [s_k, t_{k+1}] are wide enough for clamping from here on
PROBE_CHUNK = 1024  # maps per independent chunk of the probe; see essential_anisotropy_probe
DET_MIN = 1e-6  # a linear map with |det| below this counts as singular


@dataclass(frozen=True)
class LinearMap2D:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.det) < DET_MIN:
            raise ValueError(f"map too close to singular (|det| < {DET_MIN:g})")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def as_array(self):
        return np.array([[self.a, self.b], [self.c, self.d]])


@dataclass
class DominationVerdict:
    dominates: bool
    c: float | None = None
    d: float | None = None
    witnesses: list = field(default_factory=list)  # per-d failure records


def _trend_diverges(mins):
    """True if the per-bucket minima run away at either end of the scan."""
    mins = np.asarray(mins, dtype=float)
    mins = mins[np.isfinite(mins)]
    if len(mins) < TREND_TAIL:
        return False
    k = int(np.argmin(mins))
    if k == len(mins) - 1:
        seq = mins[-TREND_TAIL:]
    elif k == 0:
        seq = mins[:TREND_TAIL][::-1]
    else:
        return False
    strictly = bool(np.all(np.diff(seq) < 0.0))
    return strictly and (float(np.max(mins) - mins[-1 if k else 0]) >= DROP_MIN)


def _decade_minima(log_samples, gaps):
    """Per-decade minima of ``gaps`` along its last axis, row by row."""
    buckets = np.floor((log_samples - log_samples[0]) / np.log(10.0)).astype(int)
    mins = np.full(gaps.shape[:-1] + (buckets[-1] + 1,), np.inf)
    np.minimum.at(mins.T, buckets, gaps.T)
    return mins


def dominates(log_f, log_g, log_samples):
    """Does F dominate G (c G(d x) <= F(x)) on the sampled log-argument grid?

    ``log_f``/``log_g`` map log x to log F(x)/log G(x), such as a 1-D
    function's ``log_value``; they may return one row of values per ray
    of a 2-D cloud, shape (rows, n), and a trend diverging along any row
    refutes the domination.  Samples must be ordered and span a wide
    range (a dozen decades is the working default).  The scalings d run
    over ``DEFAULT_D_GRID``.  Returns a verdict with certificate
    constants, or witness trends per tested d.
    """
    log_samples = np.asarray(log_samples, dtype=float)
    logF = log_f(log_samples)
    best = None
    witnesses = []
    for d in DEFAULT_D_GRID:
        gaps = logF - log_g(log_samples + np.log(d))
        mins = _decade_minima(log_samples, gaps)
        min_gap = float(np.min(gaps))
        diverging = any(_trend_diverges(row) for row in np.atleast_2d(mins))
        feasible = min_gap >= LOG_C_MIN
        if not diverging and feasible:
            # prefer the certificate with scaling closest to 1
            if best is None or abs(np.log(d)) < abs(np.log(best[1])):
                best = (min_gap, float(d))
        else:
            worst_at = float(log_samples[int(np.argmin(gaps)) % len(log_samples)])
            witnesses.append(
                {
                    "d": float(d),
                    "decade_minima": mins.tolist(),
                    "diverging": diverging,
                    "min_gap": min_gap,
                    "worst_log_argument": worst_at,
                }
            )
    if best is not None:
        return DominationVerdict(
            dominates=True, c=float(np.exp(min(best[0], LOG_C_MAX))), d=best[1]
        )
    return DominationVerdict(dominates=False, witnesses=witnesses)


def equivalent(log_f, log_g, log_samples):
    fwd = dominates(log_f, log_g, log_samples)
    bwd = dominates(log_g, log_f, log_samples)
    return {"equivalent": fwd.dominates and bwd.dominates, "forward": fwd, "backward": bwd}


# ---------------------------------------------------------------------------
# 2-D clouds


def equivalent_on_rays(log_f, log_g, dirs, log_r):
    """Two-sided domination of 2-D functions F, G on the rays r u, u in dirs.

    ``log_f(ux, uy, log_r)`` is log F(r u), broadcast over its arguments
    (the ``log_value_dir`` of a 2-D function).  Both are evaluated on all
    rays at once, one row per direction, through :func:`equivalent`.
    """
    ux, uy = np.asarray(dirs, dtype=float).T[:, :, None]
    return equivalent(partial(log_f, ux, uy), partial(log_g, ux, uy), log_r)


def _standard_directions(phi):
    angles = np.pi * np.arange(1, 8) / 8.0
    dirs = [(np.cos(a), np.sin(a)) for a in angles]
    dirs = [(1.0, 0.0), (0.0, 1.0)] + dirs
    if hasattr(phi, "terms"):
        for dx, dy, _ in phi.terms:
            n = float(np.hypot(dx, dy))
            ker = (-dy / n, dx / n)
            dirs.append(ker)
    return dirs


def axis_decomposition_test(phi):
    """Is Phi(x, y) equivalent to Phi(x, 0) + Phi(0, y) on a sample cloud?

    The constructed triple carries its schedule, and for it the dedicated
    cycle-witness refutation decides the verdict; other functions go
    through the generic two-sided cloud scan over ``DEFAULT_D_GRID``.
    """
    if hasattr(phi, "build"):
        forms = np.array([[dx, dy] for dx, dy, _ in phi.terms])
        fails, drops = _triple_axis_fails(phi.build, forms[None, :, :], np.log(DEFAULT_D_GRID))
        return {
            "equivalent": not bool(fails[0]),
            "method": "cycle-witness",
            "worst_drop": float(drops[0]),
        }
    dirs = _standard_directions(phi)
    lo, hi = AXIS_DECADES
    logr = np.linspace(lo * np.log(10.0), hi * np.log(10.0), int((hi - lo) * AXIS_PER_DECADE) + 1)

    def axis_sum(ux, uy, lr):
        # Phi(x, 0) + Phi(0, y); a zero coordinate contributes log 0 = -inf
        with np.errstate(divide="ignore"):
            return np.logaddexp(
                phi.log_value_dir(ux, 0.0 * uy, lr), phi.log_value_dir(0.0 * ux, uy, lr)
            )

    rep = equivalent_on_rays(phi.log_value_dir, axis_sum, dirs, logr)
    return {"method": "cloud", **rep}


# ---------------------------------------------------------------------------
# cycle-witness refutation for the constructed triple


def _witness_cycles(build):
    """Usable leading cycles per stored index, those from
    ``WITNESS_K_MIN`` on."""
    per_index = {0: [], 1: [], 2: []}
    for rec in build.schedule:
        if rec.k >= WITNESS_K_MIN:
            per_index[rec.heavy_index].append((rec.logs, rec.logh, rec.logt_next))
    return per_index


def _triple_axis_fails(build, forms, log_d):
    """Vectorized per-map refutation of the axis decomposition.

    forms: (M, 3, 2) composed linear forms of Phi o T.
    Returns (fails (M,), worst_drop (M,)): fails[m] means the gap sequence
    along some kernel direction decreases across that index's leading
    cycles for every d in the grid, by ``WITNESS_DROP_MIN`` in all.
    """
    M = forms.shape[0]
    D = len(log_d)
    per_index = _witness_cycles(build)
    fails_d = np.zeros((M, D), dtype=bool)
    worst_drop = np.zeros(M)
    log2 = np.log(2.0)
    phis = [build.phi[i] for i in range(3)] * 2  # the axis sum's six parts
    for m_idx in range(3):
        zones = per_index[m_idx]
        if len(zones) < 2:
            continue
        lights = [i for i in range(3) if i != m_idx]
        fm = forms[:, m_idx, :]  # (M, 2)
        nrm = np.hypot(fm[:, 0], fm[:, 1])
        u = np.stack([-fm[:, 1] / nrm, fm[:, 0] / nrm], axis=1)  # kernel direction
        with np.errstate(divide="ignore"):
            logc = [
                np.log(np.abs(forms[:, i, 0] * u[:, 0] + forms[:, i, 1] * u[:, 1]))
                for i in lights
            ]
            logb = np.log(
                np.maximum(np.abs(fm[:, 0] * u[:, 0]), np.abs(fm[:, 1] * u[:, 1]))
            )
            # the six coefficient logs of the axis sum, shifted by log d once
            # for all zones
            coef_d = [
                np.log(np.abs(forms[:, i, axis] * u[:, axis]))[:, None] + log_d[None, :]
                for axis in (0, 1)
                for i in range(3)
            ]
        # per (map, d): the last usable gap, whether there is one, their
        # number, the total drop and whether every step decreased
        prev = np.full((M, D), np.nan)
        have = np.zeros((M, D), dtype=bool)
        count = np.zeros((M, D), dtype=np.int64)
        drop = np.zeros((M, D))
        dec = np.ones((M, D), dtype=bool)
        for logs_k, logh_k, logt_next in zones:
            lo_l = np.maximum(logs_k + WITNESS_SAFETY - logc[0], logs_k + WITNESS_SAFETY - logc[1])
            hi_l = np.minimum(
                logt_next - WITNESS_SAFETY - logc[0], logt_next - WITNESS_SAFETY - logc[1]
            )
            lo = logh_k + log2 - logb[:, None] - log_d[None, :]
            hi = logt_next - WITNESS_SAFETY - logb[:, None] - log_d[None, :]
            np.maximum(lo_l[:, None], lo, out=lo)
            np.minimum(hi_l[:, None], hi, out=hi)
            usable = lo <= hi
            with np.errstate(invalid="ignore"):
                logr = np.add(lo, hi, out=lo)
                logr *= 0.5
            np.copyto(logr, 0.0, where=~usable)
            arg = np.add(logc[0][:, None], logr, out=hi)
            la = logaddexp_many(
                build.phi[lights[0]].log_value(arg),
                build.phi[lights[1]].log_value(np.add(logc[1][:, None], logr, out=arg)),
            )
            # a zero component (coef -inf) gives arg -inf, which log_value
            # maps to -inf; logr is finite in every usable row but the
            # rank-deficient ones, where la is NaN
            with np.errstate(invalid="ignore"):
                lb = logaddexp_many(
                    *[phi.log_value(np.add(c, logr, out=arg)) for phi, c in zip(phis, coef_d)]
                )
                gap = np.subtract(la, lb, out=la)
                # strictly decreasing along the usable subsequence, with
                # enough drop
                usable &= np.isfinite(gap)
                both = have & usable
                np.logical_and(dec, gap < prev, out=dec, where=both)
                np.subtract(prev, gap, out=prev, where=both)  # the step; gap replaces it below
                np.add(drop, prev, out=drop, where=both)
            np.copyto(prev, gap, where=usable)
            have |= usable
            count += usable
        diverging = dec & (count >= 2) & (drop >= WITNESS_DROP_MIN)
        fails_d |= diverging
        worst_drop = np.maximum(worst_drop, drop.max(axis=1))
    return fails_d.all(axis=1), worst_drop


# ---------------------------------------------------------------------------
# probe over map families


def default_probe_family(n_rot=360, n_shear=21, n_scale=21):
    """Rotations x shears x unimodular scalings, row-major: (M, 2, 2) maps
    and an (M, 3) array of their (theta in degrees, shear, scale).

    The rotations run over theta = 0, 1, ..., n_rot - 1 degrees.  A map at
    theta >= 180 is built as the exact negation of the map at theta - 180
    (R(theta) = -R(theta - 180), to within 6e-15 in cos/sin), so the probe
    evaluates one of the two.
    """
    thetas = np.deg2rad(np.arange(n_rot))
    shears = np.linspace(-2.0, 2.0, n_shear)
    scales = np.exp(np.linspace(-2.0, 2.0, n_scale) * np.log(2.0))
    h = min(n_rot, 180)
    c, s = np.cos(thetas[:h]), np.sin(thetas[:h])
    R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    S = np.zeros((n_shear, 2, 2))
    S[:, 0, 0] = S[:, 1, 1] = 1.0
    S[:, 1, 0] = shears
    L = np.zeros((n_scale, 2, 2))
    L[:, 0, 0] = scales
    L[:, 1, 1] = 1.0 / scales
    mats = np.empty((n_rot, n_shear, n_scale, 2, 2))
    np.matmul((R[:, None] @ S[None])[:, :, None], L[None, None], out=mats[:h])
    for a in range(180, n_rot, 180):
        np.negative(mats[a - 180 : min(a, n_rot - 180)], out=mats[a : a + 180])
    params = np.stack(np.meshgrid(np.rad2deg(thetas), shears, scales, indexing="ij"), axis=-1)
    return mats.reshape(-1, 2, 2), params.reshape(-1, 3)


def canonical_shear():
    """(x, y) -> (x, x - y): straightens the Trudinger example."""
    return LinearMap2D(1.0, 0.0, 1.0, -1.0)


def composed_forms(phi, mats):
    """Per-map composed linear forms of Phi o T: f_i = T^T d_i."""
    dirs = np.array([[dx, dy] for dx, dy, _ in phi.terms])  # (3, 2)
    return np.einsum("mji,kj->mki", mats, dirs)


def _sign_classes(mats):
    """Each map up to sign, once: (distinct, where) with ``distinct`` the
    maps whose first nonzero entry is positive, in order of first
    occurrence, and ``mats[m] = +-distinct[where[m]]`` exactly."""
    flat = mats.reshape(len(mats), 4)
    lead = flat[np.arange(len(flat)), np.argmax(flat != 0.0, axis=1)]
    canon = np.where((lead < 0.0)[:, None], -flat, flat)
    keys = np.ascontiguousarray(canon).view(np.dtype((np.void, 32))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return canon[first[order]].reshape(-1, 2, 2), rank[inverse]


def essential_anisotropy_probe(phi, mats):
    """Axis-decomposition verdicts for Phi o T over the maps ``mats``
    (an (M, 2, 2) array, such as :func:`default_probe_family` gives).

    Phi is even term by term and negation is exact through the composed
    forms, the kernel directions and every |.|, so T and -T get byte-equal
    verdicts: the maps are sign-normalised, each distinct one is evaluated
    once, in order of first occurrence (neighbouring maps of a family land
    on the same pieces of the triple), and the results are scattered back
    to every input index.  For the constructed triple the batched
    cycle-witness path scans the distinct maps in chunks of
    ``PROBE_CHUNK`` (1,024: a (maps x 41 d) float temporary is then 328
    KiB, so a zone's dozen live ones stay in a 2 MiB L2 cache; on such a
    Xeon core 1,024 beat 512, 2,048 and 4,096); for other functions each
    map goes through the generic cloud test; ``phi`` must be a sum of
    directional terms (a ``terms`` list).  Chunks are independent, row by
    row, so their size cannot change a result.

    Both paths report the per-map ``fails`` (bool) and ``worst_drops``
    (the cycle-witness gap drops; zeros on the cloud path), with
    ``method``, ``n_maps``, ``n_evaluated`` (the distinct maps up to
    sign), ``n_failing`` and ``all_fail``.  A map with |det| < ``DET_MIN``
    raises ValueError naming its input index, as :class:`LinearMap2D`
    does.
    """
    if not hasattr(phi, "terms"):
        raise ValueError(
            f"the probe needs a sum of directional terms; {type(phi).__name__} has none"
        )
    singular = np.flatnonzero(np.abs(np.linalg.det(mats)) < DET_MIN)
    if singular.size:
        raise ValueError(f"map {singular[0]} is too close to singular (|det| < {DET_MIN:g})")
    distinct, where = _sign_classes(np.asarray(mats, dtype=float))
    n = len(distinct)
    forms = composed_forms(phi, distinct)
    fails = np.zeros(n, dtype=bool)
    drops = np.zeros(n)
    if hasattr(phi, "build"):
        method = "cycle-witness"
        log_d = np.log(DEFAULT_D_GRID)
        for a in range(0, n, PROBE_CHUNK):
            b = min(a + PROBE_CHUNK, n)
            fails[a:b], drops[a:b] = _triple_axis_fails(phi.build, forms[a:b], log_d)
    else:
        method = "cloud"
        fns = [fn for _, _, fn in phi.terms]
        for m, f in enumerate(forms):
            phi_t = AnisoFn2D([(fx, fy, fn) for (fx, fy), fn in zip(f, fns)], name=phi.name + "@T")
            fails[m] = not axis_decomposition_test(phi_t)["equivalent"]
    fails, drops = fails[where], drops[where]
    return {
        "method": method,
        "n_maps": len(mats),
        "n_evaluated": n,
        "n_failing": int(np.sum(fails)),
        "all_fail": bool(np.all(fails)),
        "fails": fails,
        "worst_drops": drops,
    }


# ---------------------------------------------------------------------------
# power-sum envelope


def power_sum_envelope_check(p, q, r, n_samples=100_000, seed=20240811):
    """Two-sided comparison of |x|^p + |x-y|^q + |y|^r with its orthotropic
    envelope |x|^p + |y|^r + |x|^q + |y|^q on a random log-radial cloud.

    Reports the empirical constants sup(envelope/Phi) and sup(Phi/envelope)
    overall and split by the proof's case geometry (comparable coordinates
    versus a dominating difference)."""
    p, q, r = sorted((float(p), float(q), float(r)))
    rng = np.random.default_rng(seed)
    lograd = rng.uniform(-6.0 * np.log(10.0), 6.0 * np.log(10.0), n_samples)
    ang = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    x = np.exp(lograd) * np.cos(ang)
    y = np.exp(lograd) * np.sin(ang)
    ax, ay, axy = np.abs(x), np.abs(y), np.abs(x - y)
    with np.errstate(over="ignore"):
        phi = ax**p + axy**q + ay**r
        env = ax**p + ay**r + ax**q + ay**q
    good = np.isfinite(phi) & np.isfinite(env) & (phi > 0.0) & (env > 0.0)
    phi, env = phi[good], env[good]
    ratio_up = env / phi
    ratio_dn = phi / env
    with np.errstate(divide="ignore", invalid="ignore"):
        case_i = (ax[good] <= 3.0 * ay[good]) & (ay[good] <= 3.0 * ax[good])
    case_ii = axy[good] >= 0.5 * (ax[good] + ay[good])
    out = {
        "c_env_over_phi": float(np.max(ratio_up)),
        "c_phi_over_env": float(np.max(ratio_dn)),
        "sandwich_finite": bool(np.isfinite(np.max(ratio_up)) and np.isfinite(np.max(ratio_dn))),
        "case_i_fraction": float(np.mean(case_i)),
        "case_ii_fraction": float(np.mean(case_ii)),
        "cases_cover": bool(np.all(case_i | case_ii)),
        "samples": int(np.sum(good)),
    }
    if np.any(case_i):
        out["c_env_over_phi_case_i"] = float(np.max(ratio_up[case_i]))
    if np.any(case_ii):
        out["c_env_over_phi_case_ii"] = float(np.max(ratio_up[case_ii]))
    return out
