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
from types import SimpleNamespace

import numpy as np

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
    "essential_anisotropy_probe",
    "power_sum_envelope_check",
]

DEFAULT_D_GRID = np.exp(np.linspace(-20.0, 20.0, 41) * np.log(2.0))
LOG_C_MIN = -20.0 * np.log(2.0)
LOG_C_MAX = 20.0 * np.log(2.0)


@dataclass(frozen=True)
class LinearMap2D:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.det) < 1e-6:
            raise ValueError("map too close to singular (|det| < 1e-6)")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def as_array(self):
        return np.array([[self.a, self.b], [self.c, self.d]])

    def compose(self, other):
        m = self.as_array() @ other.as_array()
        return LinearMap2D(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


@dataclass
class DominationVerdict:
    dominates: bool
    c: float | None = None
    d: float | None = None
    witnesses: list = field(default_factory=list)  # per-d failure records


def _trend_diverges(mins, drop_min, tail=3):
    """True if the per-bucket minima run away at either end of the scan."""
    mins = np.asarray(mins, dtype=float)
    mins = mins[np.isfinite(mins)]
    if len(mins) < tail:
        return False
    k = int(np.argmin(mins))
    if k == len(mins) - 1:
        seq = mins[-tail:]
    elif k == 0:
        seq = mins[:tail][::-1]
    else:
        return False
    strictly = bool(np.all(np.diff(seq) < 0.0))
    return strictly and (float(np.max(mins) - mins[-1 if k else 0]) >= drop_min)


def _decade_minima(log_samples, gaps, per_decade=np.log(10.0)):
    """Per-decade minima of ``gaps`` along its last axis, row by row."""
    buckets = np.floor((log_samples - log_samples[0]) / per_decade).astype(int)
    mins = np.full(gaps.shape[:-1] + (buckets[-1] + 1,), np.inf)
    np.minimum.at(mins.T, buckets, gaps.T)
    return mins


def dominates(F, G, log_samples, d_grid=None, drop_min=1.0):
    """Does F dominate G (c G(d x) <= F(x)) on the sampled log-argument grid?

    ``F``/``G`` expose ``log_value``, which may return one row of values
    per ray of a 2-D cloud, shape (rows, n); a trend diverging along any
    row refutes the domination.  Samples must be ordered and span a wide
    range (a dozen decades is the working default).  Returns a verdict
    with certificate constants, or witness trends per tested d.
    """
    if d_grid is None:
        d_grid = DEFAULT_D_GRID
    log_samples = np.asarray(log_samples, dtype=float)
    logF = F.log_value(log_samples)
    best = None
    witnesses = []
    for d in d_grid:
        gaps = logF - G.log_value(log_samples + np.log(d))
        mins = _decade_minima(log_samples, gaps)
        min_gap = float(np.min(gaps))
        diverging = any(_trend_diverges(row, drop_min) for row in np.atleast_2d(mins))
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


def equivalent(F, G, log_samples, d_grid=None, drop_min=1.0):
    fwd = dominates(F, G, log_samples, d_grid, drop_min)
    bwd = dominates(G, F, log_samples, d_grid, drop_min)
    return {"equivalent": fwd.dominates and bwd.dominates, "forward": fwd, "backward": bwd}


# ---------------------------------------------------------------------------
# 2-D clouds


def equivalent_on_rays(log_f, log_g, dirs, log_r, d_grid=None, drop_min=1.0):
    """Two-sided domination of 2-D functions F, G on the rays r u, u in dirs.

    ``log_f(ux, uy, log_r)`` is log F(r u), broadcast over its arguments
    (the ``log_value_dir`` of a 2-D function).  Both are evaluated on all
    rays at once, one row per direction, through :func:`equivalent`.
    """
    ux, uy = np.asarray(dirs, dtype=float).T[:, :, None]
    F = SimpleNamespace(log_value=partial(log_f, ux, uy))
    G = SimpleNamespace(log_value=partial(log_g, ux, uy))
    return equivalent(F, G, log_r, d_grid, drop_min)


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


def axis_decomposition_test(
    phi, d_grid=None, decades=(-6.0, 8.0), per_decade=3, drop_min=1.0
):
    """Is Phi(x, y) equivalent to Phi(x, 0) + Phi(0, y) on a sample cloud?

    The constructed triple carries its schedule, and for it the dedicated
    cycle-witness refutation decides the verdict; other functions go
    through the generic two-sided cloud scan.
    """
    if d_grid is None:
        d_grid = DEFAULT_D_GRID
    if hasattr(phi, "build"):
        forms = np.array([[dx, dy] for dx, dy, _ in phi.terms])
        fails, drops = _triple_axis_fails(phi.build, forms[None, :, :], np.log(d_grid))
        return {
            "equivalent": not bool(fails[0]),
            "method": "cycle-witness",
            "worst_drop": float(drops[0]),
        }
    dirs = _standard_directions(phi)
    logr = np.linspace(decades[0] * np.log(10.0), decades[1] * np.log(10.0),
                       int((decades[1] - decades[0]) * per_decade) + 1)

    def axis_sum(ux, uy, lr):
        # Phi(x, 0) + Phi(0, y); a zero coordinate contributes log 0 = -inf
        with np.errstate(divide="ignore"):
            return np.logaddexp(
                phi.log_value_dir(ux, 0.0 * uy, lr), phi.log_value_dir(0.0 * ux, uy, lr)
            )

    rep = equivalent_on_rays(phi.log_value_dir, axis_sum, dirs, logr, d_grid, drop_min)
    return {"method": "cloud", **rep}


# ---------------------------------------------------------------------------
# cycle-witness refutation for the constructed triple


def _witness_cycles(build, k_min=2):
    """Usable leading cycles per stored index: zones [s_k, t_{k+1}] wide
    enough for clamping only open up from the third cycle."""
    per_index = {0: [], 1: [], 2: []}
    for rec in build.schedule:
        if rec.k >= k_min:
            per_index[rec.heavy_index].append((rec.logs, rec.logh, rec.logt_next))
    return per_index


def _triple_axis_fails(build, forms, log_d, drop_min=0.5, safety=0.25):
    """Vectorized per-map refutation of the axis decomposition.

    forms: (M, 3, 2) composed linear forms of Phi o T.
    Returns (fails (M,), worst_drop (M,)): fails[m] means the gap sequence
    along some kernel direction decreases across that index's leading
    cycles for every d in the grid.
    """
    M = forms.shape[0]
    D = len(log_d)
    per_index = _witness_cycles(build)
    fails_d = np.zeros((M, D), dtype=bool)
    worst_drop = np.zeros(M)
    log2 = np.log(2.0)
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
            # all six coefficient logs for the axis sum
            logB_coef = [
                [np.log(np.abs(forms[:, i, 0] * u[:, 0])) for i in range(3)],
                [np.log(np.abs(forms[:, i, 1] * u[:, 1])) for i in range(3)],
            ]
        K = len(zones)
        gaps = np.full((M, D, K), np.nan)
        for kz, (logs_k, logh_k, logt_next) in enumerate(zones):
            lo_l = np.maximum(logs_k + safety - logc[0], logs_k + safety - logc[1])
            hi_l = np.minimum(
                logt_next - safety - logc[0], logt_next - safety - logc[1]
            )
            lo_h = logh_k + log2 - logb[:, None] - log_d[None, :]
            hi_h = logt_next - safety - logb[:, None] - log_d[None, :]
            lo = np.maximum(lo_l[:, None], lo_h)
            hi = np.minimum(hi_l[:, None], hi_h)
            usable = lo <= hi
            with np.errstate(invalid="ignore"):
                logr = np.where(usable, 0.5 * (lo + hi), 0.0)
            la = np.logaddexp(
                build.phi[lights[0]].log_value(logc[0][:, None] + logr),
                build.phi[lights[1]].log_value(logc[1][:, None] + logr),
            )
            parts = []
            with np.errstate(invalid="ignore"):
                for axis in (0, 1):
                    for i in range(3):
                        coef = logB_coef[axis][i][:, None]
                        arg = coef + log_d[None, :] + logr
                        v = build.phi[i].log_value(np.where(np.isfinite(arg), arg, -np.inf))
                        parts.append(np.where(np.isneginf(coef), -np.inf, v))
                lb = logaddexp_many(*parts)
                gaps[:, :, kz] = np.where(usable, la - lb, np.nan)
        # strictly decreasing along the usable subsequence, with enough drop
        dec = np.ones((M, D), dtype=bool)
        drop = np.zeros((M, D))
        count = np.isfinite(gaps).sum(axis=2)
        prev = np.full((M, D), np.nan)
        for kz in range(K):
            cur = gaps[:, :, kz]
            have_prev = np.isfinite(prev) & np.isfinite(cur)
            dec &= ~have_prev | (cur < prev)
            drop = np.where(have_prev, drop + (prev - cur), drop)
            prev = np.where(np.isfinite(cur), cur, prev)
        diverging = dec & (count >= 2) & (drop >= drop_min)
        fails_d |= diverging
        worst_drop = np.maximum(worst_drop, drop.max(axis=1))
    return fails_d.all(axis=1), worst_drop


# ---------------------------------------------------------------------------
# probe over map families


def default_probe_family(n_rot=360, n_shear=21, n_scale=21):
    """Rotations x shears x unimodular scalings, row-major parameter order."""
    thetas = np.deg2rad(np.arange(n_rot))
    shears = np.linspace(-2.0, 2.0, n_shear)
    scales = np.exp(np.linspace(-2.0, 2.0, n_scale) * np.log(2.0))
    mats = np.empty((n_rot * n_shear * n_scale, 2, 2))
    params = []
    idx = 0
    for th in thetas:
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        for s in shears:
            S = np.array([[1.0, 0.0], [s, 1.0]])
            RS = R @ S
            for lam in scales:
                mats[idx] = RS @ np.array([[lam, 0.0], [0.0, 1.0 / lam]])
                params.append((float(np.rad2deg(th)), float(s), float(lam)))
                idx += 1
    return mats, params


def canonical_shear():
    """(x, y) -> (x, x - y): straightens the Trudinger example."""
    return LinearMap2D(1.0, 0.0, 1.0, -1.0)


def composed_forms(phi, mats):
    """Per-map composed linear forms of Phi o T: f_i = T^T d_i."""
    dirs = np.array([[dx, dy] for dx, dy, _ in phi.terms])  # (3, 2)
    return np.einsum("mji,kj->mki", mats, dirs)


def _worker_count():
    import os

    try:
        return max(1, int(os.environ.get("ANISOLAB_THREADS", "1")))
    except ValueError:
        return 1


def essential_anisotropy_probe(
    phi, mats=None, d_grid=None, chunk=4096, drop_min=0.5, n_workers=None
):
    """Axis-decomposition verdicts for Phi o T over a family of maps.

    For the constructed triple the batched cycle-witness path runs the
    whole default family (360 x 21 x 21) in one scan; for other functions
    each requested map goes through the generic cloud test.  Chunks are
    independent; ANISOLAB_THREADS (or ``n_workers``) caps the pool, and
    the reduction is indexed, so scheduling cannot change the result.
    """
    if mats is None:
        mats, _ = default_probe_family()
    if d_grid is None:
        d_grid = DEFAULT_D_GRID
    log_d = np.log(np.asarray(d_grid, dtype=float))
    if n_workers is None:
        n_workers = _worker_count()
    if hasattr(phi, "build"):
        forms = composed_forms(phi, mats)
        fails = np.zeros(len(mats), dtype=bool)
        drops = np.zeros(len(mats))
        spans = [(a, min(a + chunk, len(mats))) for a in range(0, len(mats), chunk)]

        def run_span(span):
            a, b = span
            return span, _triple_axis_fails(phi.build, forms[a:b], log_d, drop_min=drop_min)

        if n_workers > 1 and len(spans) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(run_span, spans))
        else:
            results = [run_span(s) for s in spans]
        for (a, b), (f, w) in results:
            fails[a:b] = f
            drops[a:b] = w
        return {
            "method": "cycle-witness",
            "n_maps": len(mats),
            "n_failing": int(np.sum(fails)),
            "all_fail": bool(np.all(fails)),
            "fails": fails,
            "worst_drops": drops,
        }
    results = []
    from .aniso2d import AnisoFn2D

    for mat in mats:
        terms = []
        for dx, dy, fn in phi.terms:
            f = mat.T @ np.array([dx, dy])
            terms.append((f[0], f[1], fn))
        composed = AnisoFn2D(terms, name=phi.name + "@T")
        results.append(axis_decomposition_test(composed, d_grid=d_grid))
    return {
        "method": "cloud",
        "n_maps": len(mats),
        "verdicts": results,
        "n_failing": sum(0 if r["equivalent"] else 1 for r in results),
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
