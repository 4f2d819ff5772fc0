"""Two-dimensional Young functions, gradients, and discrete conjugation.

Anisotropic functions are finite sums of 1-D Young functions composed
with direction vectors, Phi(xi) = sum_i psi_i(<d_i, xi>); sublevel sets
are bounded exactly when the directions span the plane, which the
constructor enforces.  A radial wrapper covers the isotropic |xi|^p
family the capacity experiments need.

The Young conjugate is computed exactly on sample grids: the max over the
product grid factorizes into two 1-D discrete Legendre transforms (first
over xi_1 for every (eta_1, xi_2), then over xi_2), each batched over rows
in O(n + m) per row by a lower-hull scan merged with the sorted dual nodes
(Lucet, Numer. Algorithms 16, 1997; Felzenszwalb and Huttenlocher, Theory
of Computing 8, 2012).  Values and argmax indices match exhaustive
maximization bit for bit, ties going to the lowest index; a maximizer on
the primal boundary triggers box expansion, capped at four doublings.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import RangeError, logaddexp_many
from .young1d import PowerExpFn, PowerFn, PowerLogBaseFn, is_doubling

__all__ = [
    "AnisoFn2D",
    "RadialFn2D",
    "SampledFn2D",
    "GridSpec2D",
    "BoxTooSmallError",
    "constructed_triple_fn",
    "trudinger_fn",
    "power_sum_fn",
    "intro_exp_fn",
    "quadratic_fn",
    "radial_power_fn",
    "eval2d",
    "grad2d",
    "conjugate2d",
    "conjugate_of_samples",
    "biconjugate2d",
    "involution_error",
    "verify_young_inequality",
    "check_monotonicity_property",
]


class BoxTooSmallError(RuntimeError):
    """Legendre argmax persisted on the primal boundary after expansions."""


def _signed_eval(fn, s):
    """psi(|s|) for an even 1-D function, elementwise."""
    return fn.value(np.abs(s))


def _signed_derivative(fn, s):
    """d/ds psi(|s|) = sign(s) psi'(|s|), the right-derivative selection."""
    return np.sign(s) * fn.derivative(np.abs(s))


class AnisoFn2D:
    """Sum of 1-D Young functions composed with plane directions."""

    def __init__(self, terms, name="aniso"):
        self.terms = [(float(dx), float(dy), fn) for dx, dy, fn in terms]
        self.name = name
        dirs = np.array([[dx, dy] for dx, dy, _ in self.terms])
        if np.linalg.matrix_rank(dirs, tol=1e-12) < 2:
            raise ValueError("directions must span the plane (sublevel sets unbounded)")

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape)
        for dx, dy, fn in self.terms:
            out = out + _signed_eval(fn, dx * x + dy * y)
        return out if out.ndim else float(out)

    def log_value_dir(self, ux, uy, logr):
        """log Phi(r * u) from log r; u need not be normalized."""
        ux = np.asarray(ux, dtype=float)
        uy = np.asarray(uy, dtype=float)
        logr = np.asarray(logr, dtype=float)
        parts = []
        for dx, dy, fn in self.terms:
            c = np.abs(dx * ux + dy * uy)
            with np.errstate(divide="ignore"):
                parts.append(fn.log_value(np.log(c) + logr))
        out = logaddexp_many(*parts)
        return out if np.ndim(out) else float(out)

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = np.zeros(np.broadcast(x, y).shape)
        gy = np.zeros_like(gx)
        for dx, dy, fn in self.terms:
            v = _signed_derivative(fn, dx * x + dy * y)
            gx = gx + v * dx
            gy = gy + v * dy
        if gx.ndim:
            return gx, gy
        return float(gx), float(gy)

    def is_doubling(self):
        return all(is_doubling(fn) for _, _, fn in self.terms)

    def growth_indices(self, log_lo=-12.0, log_hi=12.0):
        from .young1d import doubling_indices

        lo, hi = np.inf, -np.inf
        for _, _, fn in self.terms:
            i, s = doubling_indices(fn, log_lo, log_hi)
            lo, hi = min(lo, i), max(hi, s)
        return lo, hi


class RadialFn2D:
    """Phi(xi) = psi(|xi|) for a 1-D Young function psi."""

    def __init__(self, fn, name="radial"):
        self.fn = fn
        self.name = name

    def value(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        out = self.fn.value(r)
        return out if np.ndim(out) else float(out)

    def log_value_dir(self, ux, uy, logr):
        ux = np.asarray(ux, dtype=float)
        uy = np.asarray(uy, dtype=float)
        n = np.hypot(ux, uy)
        out = self.fn.log_value(np.log(n) + np.asarray(logr, dtype=float))
        return out if np.ndim(out) else float(out)

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(r > 0.0, self.fn.derivative(r) / np.where(r > 0, r, 1.0), 0.0)
        gx, gy = scale * x, scale * y
        if np.ndim(gx):
            return gx, gy
        return float(gx), float(gy)

    def is_doubling(self):
        return is_doubling(self.fn)

    def growth_indices(self, log_lo=-12.0, log_hi=12.0):
        from .young1d import doubling_indices

        return doubling_indices(self.fn, log_lo, log_hi)


# -- built-ins ---------------------------------------------------------------


def constructed_triple_fn(build):
    """Phi(x, y) = phi1(x) + phi2(y) + phi3(x - y) from a finished build."""
    f = AnisoFn2D(
        [
            (1.0, 0.0, build.phi[0]),
            (0.0, 1.0, build.phi[1]),
            (1.0, -1.0, build.phi[2]),
        ],
        name="constructed_triple",
    )
    f.build = build
    return f


def trudinger_fn(alpha=3.0, beta=2.0, delta=1.0, base=np.e):
    """|x-y|^alpha + |x|^beta log^delta(base+|x|): anisotropic but shearable."""
    return AnisoFn2D(
        [
            (1.0, -1.0, PowerFn(alpha)),
            (1.0, 0.0, PowerLogBaseFn(beta, delta, base)),
        ],
        name="trudinger",
    )


def power_sum_fn(p1, p2, c1=1.0, c2=1.0):
    return AnisoFn2D(
        [(1.0, 0.0, PowerFn(p1, c1)), (0.0, 1.0, PowerFn(p2, c2))],
        name=f"power_sum({p1:g},{p2:g})",
    )


def intro_exp_fn():
    """|x|^2 + |y|^2 + |x-y|^2 exp|x-y|: breaks componentwise monotonicity."""
    return AnisoFn2D(
        [
            (1.0, 0.0, PowerFn(2)),
            (0.0, 1.0, PowerFn(2)),
            (1.0, -1.0, PowerExpFn(2)),
        ],
        name="intro_exp",
    )


def quadratic_fn(coef=0.5):
    return power_sum_fn(2, 2, coef, coef)


def radial_power_fn(p, coef=1.0):
    return RadialFn2D(PowerFn(p, coef), name=f"|xi|^{p:g}" + ("" if coef == 1.0 else f"*{coef:g}"))


# -- spec operations ---------------------------------------------------------


def eval2d(phi, xi):
    """Phi(xi) as a float; overflow raises RangeError (use log_value_dir then)."""
    v = phi.value(xi[0], xi[1])
    if np.isinf(v):
        raise RangeError("Phi overflows at this point; use log_value_dir")
    return float(v)


def grad2d(phi, xi):
    gx, gy = phi.grad(xi[0], xi[1])
    return np.array([gx, gy])


def check_monotonicity_property(phi, pairs, rtol=1e-12):
    """Pairs (xi, eta) with |xi_i| <= |eta_i| where Phi(xi) > Phi(eta).

    A componentwise-monotone function has no violations; returns the list
    of (xi, eta, Phi(xi), Phi(eta)) that break the inequality.
    """
    violations = []
    for xi, eta in pairs:
        if not (abs(xi[0]) <= abs(eta[0]) and abs(xi[1]) <= abs(eta[1])):
            raise ValueError(f"pair {xi}, {eta} not componentwise ordered")
        a = phi.value(xi[0], xi[1])
        b = phi.value(eta[0], eta[1])
        if a > b * (1.0 + rtol):
            violations.append((tuple(xi), tuple(eta), float(a), float(b)))
    return violations


# -- sampled functions and conjugation ---------------------------------------


@dataclass(frozen=True)
class GridSpec2D:
    """Symmetric box [-extent_x, extent_x] x [-extent_y, extent_y], n odd."""

    extent_x: float
    extent_y: float
    n: int

    def __post_init__(self):
        if not (self.extent_x > 0.0 and self.extent_y > 0.0):
            raise ValueError("grid extents must be positive")
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError("grid size must be odd and >= 3 so the origin is a node")

    @property
    def x(self):
        return np.linspace(-self.extent_x, self.extent_x, self.n)

    @property
    def y(self):
        return np.linspace(-self.extent_y, self.extent_y, self.n)

    @staticmethod
    def square(extent, n):
        return GridSpec2D(float(extent), float(extent), int(n))


@dataclass
class SampledFn2D:
    """Values on a uniform grid; values[i, j] sits at (x0 + i hx, y0 + j hy)."""

    x0: float
    y0: float
    hx: float
    hy: float
    values: np.ndarray

    @property
    def nx(self):
        return self.values.shape[0]

    @property
    def ny(self):
        return self.values.shape[1]

    @property
    def x(self):
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def y(self):
        return self.y0 + self.hy * np.arange(self.ny)

    @classmethod
    def from_spec(cls, spec, values):
        return cls(
            x0=-spec.extent_x,
            y0=-spec.extent_y,
            hx=2.0 * spec.extent_x / (spec.n - 1),
            hy=2.0 * spec.extent_y / (spec.n - 1),
            values=values,
        )

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["x", "y", "value"])
            xs, ys = self.x, self.y
            for i in range(self.nx):
                for j in range(self.ny):
                    w.writerow([repr(xs[i]), repr(ys[j]), repr(self.values[i, j])])

    def to_binary(self, path):
        """nx, ny (int64 LE), x0, y0, h (float64 LE), then row-major float64."""
        if not np.isclose(self.hx, self.hy, rtol=1e-12, atol=0.0):
            raise ValueError("binary format carries one spacing; grid must be square")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<qqddd", self.nx, self.ny, self.x0, self.y0, self.hx))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    @classmethod
    def from_binary(cls, path):
        """Read :meth:`to_binary` output; a malformed file raises ValueError."""
        with open(path, "rb") as fh:
            header = fh.read(40)
            if len(header) < 40:
                raise ValueError(f"{path}: header has {len(header)} of 40 bytes")
            nx, ny, x0, y0, h = struct.unpack("<qqddd", header)
            if nx < 1 or ny < 1:
                raise ValueError(f"{path}: grid size {nx} x {ny} is not positive")
            if not (np.isfinite(x0) and np.isfinite(y0)):
                raise ValueError(f"{path}: origin ({x0!r}, {y0!r}) is not finite")
            if not (np.isfinite(h) and h > 0.0):
                raise ValueError(f"{path}: spacing {h!r} is not finite and positive")
            payload = os.fstat(fh.fileno()).st_size - 40
            if payload != 8 * nx * ny:
                raise ValueError(
                    f"{path}: payload has {payload} bytes, a {nx} x {ny} grid needs {8 * nx * ny}"
                )
            data = np.frombuffer(fh.read(payload), dtype="<f8").reshape(nx, ny)
        return cls(x0=x0, y0=y0, hx=h, hy=h, values=data.copy())


# Relative slack of the float comparisons in _legendre_1d: 16 eps = 32 unit
# roundoffs, several times the error of evaluating eta * x - v and of the
# hull's chord and slope arithmetic (each a few roundoffs).
_TOL = 16.0 * np.finfo(float).eps


def _lower_chains(x, v, scale):
    """Per row of ``v``, the primal indices kept by a monotone-chain scan
    for the lower convex hull of the finite points (x[i], v[r, i]).

    A point is popped only when it lies above the chord of its neighbours
    by more than the float error bound, so no popped point can reach the
    float maximum of eta * x - v for any eta; points on or near the hull,
    collinear runs included, stay on the chain.  Returns (chain, size):
    chain[r, :size[r]] are row r's kept indices in increasing order, and
    the rest of chain is 0.  +inf samples are never pushed.
    """
    rows_n, n = v.shape
    chain = np.zeros((rows_n, n), dtype=np.int32)
    size = np.zeros(rows_n, dtype=np.intp)
    finite = np.isfinite(v)
    for i in range(n):
        rows = np.flatnonzero(finite[:, i])
        pend = rows[size[rows] >= 2]
        while pend.size:
            b = chain[pend, size[pend] - 1]
            a = chain[pend, size[pend] - 2]
            va, vb, vc = v[pend, a], v[pend, b], v[pend, i]
            gap = (vb - va) - (vc - va) * ((x[b] - x[a]) / (x[i] - x[a]))
            slack = _TOL * (scale[pend] + np.abs(va) + np.abs(vb) + np.abs(vc))
            pend = pend[gap > slack]
            size[pend] -= 1
            pend = pend[size[pend] >= 2]
        chain[rows, size[rows]] = i
        size[rows] += 1
    return chain, size


def _legendre_1d(x, v, eta):
    """Row-wise discrete Legendre transform with the lowest argmax.

    g[r, k] = max_i (eta[k] * x[i] - v[r, i]) and arg[r, k] the lowest
    maximizing i, bit for bit what ``np.argmax`` over the full product
    gives; a row of +inf samples gives (-inf, 0).  ``x`` must increase
    strictly, ``eta`` must not decrease, ``v`` holds finite or +inf values.

    Each row's chain (see :func:`_lower_chains`) is merged with the sorted
    dual nodes by :func:`_merge_chains`, a block of rows at a time so that
    the merge's temporaries stay near ``_MERGE_BLOCK`` elements each.
    """
    rows_n, n = v.shape
    m = len(eta)
    vmin = np.min(v, axis=1)
    scale = float(np.max(np.abs(eta)) * np.max(np.abs(x))) + np.where(
        np.isfinite(vmin), np.abs(vmin), 0.0
    )
    chain, size = _lower_chains(x, v, scale)
    g = np.empty((rows_n, m))
    arg = np.empty((rows_n, m), dtype=np.int32)
    step = max(1, _MERGE_BLOCK // max(n, m))
    for a in range(0, rows_n, step):
        b = min(a + step, rows_n)
        g[a:b], arg[a:b] = _merge_chains(x, v[a:b], eta, chain[a:b], size[a:b], scale[a:b])
    return g, arg


# Elements per temporary of one _merge_chains block (256 KiB of float64).
# The merge makes a dozen temporaries; on whole (rows, n) grids they come
# to tens of MiB, which the allocator keeps in its heap after the call, so
# the process's resident size would depend on how that heap fragments.
_MERGE_BLOCK = 1 << 15


def _merge_chains(x, v, eta, chain, size, scale):
    """Lowest argmax and max of eta[k] * x[i] - v[r, i] for the rows of one
    block, given their chains and scales from :func:`_legendre_1d`.

    Chain point p can hold the float maximum only for eta in
    [s_{p-1} - w, s_p + w], with s the chain slopes and w their error
    bounds, so a prefix max and a suffix min of those ends give every dual
    node a contiguous window of candidates, found by ``np.searchsorted``.
    The candidates are evaluated with the brute-force expression and the
    first largest wins.  Windows hold one or two points unless eta meets
    the slope of a (nearly) collinear run, whose points then tie exactly,
    so the cost is O(n + m) per row.
    """
    rows_n, n = v.shape
    m = len(eta)
    xc = x[chain]
    vc = np.take_along_axis(v, chain, axis=1)
    edge = np.arange(n - 1)[None, :] < (size[:, None] - 1)
    with np.errstate(all="ignore"):
        dx = np.diff(xc, axis=1)
        slope = np.diff(vc, axis=1) / dx
        err = _TOL * (
            scale[:, None] + np.abs(vc[:, :-1]) + np.abs(vc[:, 1:]) + np.max(np.abs(x)) * np.abs(slope)
        ) / dx
        hi = np.full((rows_n, n), np.inf)
        hi[:, :-1] = np.where(edge, slope + err, np.inf)
        lo = np.full((rows_n, n), -np.inf)
        lo[:, 1:] = np.where(edge, slope - err, np.inf)
    hi = np.maximum.accumulate(hi, axis=1)
    lo = np.minimum.accumulate(lo[:, ::-1], axis=1)[:, ::-1]
    # window of dual node k: chain positions with hi >= eta[k] and lo <= eta[k]
    first = np.array([np.searchsorted(row, eta, side="left") for row in hi])
    last = np.array([np.searchsorted(row, eta, side="right") for row in lo]) - 1
    last = np.maximum(last, first)  # never an empty window

    r = np.arange(rows_n)[:, None]
    arg = chain[r, first]
    g = eta[None, :] * x[arg] - v[r, arg]
    g_flat, arg_flat = g.reshape(-1), arg.reshape(-1)
    live = np.flatnonzero(last > first)
    rl, kl = np.divmod(live, m)
    pos = first.reshape(-1)[live]
    while live.size:
        pos = pos + 1
        i = chain[rl, pos]
        val = eta[kl] * x[i] - v[rl, i]
        up = val > g_flat[live]
        g_flat[live[up]] = val[up]
        arg_flat[live[up]] = i[up]
        more = pos < last.reshape(-1)[live]
        live, rl, kl, pos = live[more], rl[more], kl[more], pos[more]
    return g, arg


def _legendre_kernel(xs, ys, values, eta1, eta2):
    """max over grid of <eta, xi> - values, with argmax tracking.

    Returns (star, i_star, j_star) with star[k, l] the max over (i, j) of
    eta1[k] xs[i] + eta2[l] ys[j] - values[i, j], as two row-batched 1-D
    transforms: first over xs[i] for every (eta1[k], ys[j]), then over
    ys[j]; (i_star, j_star) is the maximizer the iterated ``np.argmax``
    would pick.
    """
    g1, arg1 = _legendre_1d(xs, values.T, eta1)
    # eta2 y - (-g1) is bit for bit eta2 y + g1; negated in place, since
    # g1 is needed no further
    star, jarg = _legendre_1d(ys, np.negative(g1, out=g1).T, eta2)
    iarg = arg1.T[np.arange(len(eta1))[:, None], jarg]
    return star, iarg, jarg


def conjugate_of_samples(primal, dual_spec):
    """Discrete Legendre transform of a SampledFn2D onto a dual grid.

    Samples must be finite or +inf.  Returns (SampledFn2D, boundary_hit)
    where boundary_hit reports whether any argmax (the lowest index among
    ties) landed on the primal box edge.
    """
    if not (primal.hx > 0.0 and primal.hy > 0.0):
        raise ValueError("primal grid spacings must be positive")
    if np.any(np.isnan(primal.values) | np.isneginf(primal.values)):
        raise ValueError("samples must be finite or +inf")
    star, iarg, jarg = _legendre_kernel(
        primal.x, primal.y, primal.values, dual_spec.x, dual_spec.y
    )
    hit = bool(
        np.any(iarg == 0)
        or np.any(iarg == primal.nx - 1)
        or np.any(jarg == 0)
        or np.any(jarg == primal.ny - 1)
    )
    return SampledFn2D.from_spec(dual_spec, star), hit


def conjugate2d(phi, dual_spec, primal_spec=None, max_expand=4):
    """Young conjugate of phi sampled on the dual grid.

    Each attempt samples phi on the primal grid (non-finite values become
    +inf) and takes one exact discrete Legendre transform of the samples
    with :func:`conjugate_of_samples`, in O(n^2) time on n x n grids.  The
    primal box starts at ``primal_spec`` (default: the dual box) and
    doubles while any maximizer touches its edge, up to ``max_expand``
    doublings; persistent boundary maximizers raise
    :class:`BoxTooSmallError`.
    """
    spec = primal_spec or GridSpec2D(dual_spec.extent_x, dual_spec.extent_y, dual_spec.n)
    for _ in range(max_expand + 1):
        vals = phi.value(*np.meshgrid(spec.x, spec.y, indexing="ij"))
        vals = np.where(np.isfinite(vals), vals, np.inf)
        out, hit = conjugate_of_samples(
            SampledFn2D.from_spec(spec, vals), dual_spec
        )
        if not hit:
            return out
        spec = GridSpec2D(2.0 * spec.extent_x, 2.0 * spec.extent_y, spec.n)
    raise BoxTooSmallError(
        f"argmax still on the primal boundary after {max_expand} doublings"
    )


def _dual_extents(phi, spec, margin=1.05):
    """Componentwise gradient range of phi over the box edge (dual box sizing)."""
    edge = np.concatenate(
        [
            np.stack(np.meshgrid([-spec.extent_x, spec.extent_x], spec.y, indexing="ij"), -1).reshape(-1, 2),
            np.stack(np.meshgrid(spec.x, [-spec.extent_y, spec.extent_y], indexing="ij"), -1).reshape(-1, 2),
        ]
    )
    gx, gy = phi.grad(edge[:, 0], edge[:, 1])
    return margin * float(np.max(np.abs(gx))), margin * float(np.max(np.abs(gy)))


def biconjugate2d(phi, primal_spec, dual_n=None, max_expand=4):
    """Biconjugate of phi sampled back on the primal grid.

    The intermediate dual box is sized from the gradient range of phi on
    the primal box edge, so that maximizers of the second transform stay
    interior for interior primal points.
    """
    dual_n = dual_n or primal_spec.n
    ex, ey = _dual_extents(phi, primal_spec)
    dual_spec = GridSpec2D(ex, ey, dual_n)
    star = conjugate2d(phi, dual_spec, primal_spec=primal_spec, max_expand=max_expand)
    back, _ = conjugate_of_samples(star, primal_spec)
    return back, star


def involution_error(phi, spec, interior_fraction=0.5, dual_n=None):
    """Sup error of the biconjugate against phi on an interior sub-box,
    normalized by the sup of |phi| there."""
    back, _ = biconjugate2d(phi, spec, dual_n=dual_n)
    X, Y = np.meshgrid(spec.x, spec.y, indexing="ij")
    ref = phi.value(X, Y)
    keep_x = np.abs(spec.x) <= interior_fraction * spec.extent_x
    keep_y = np.abs(spec.y) <= interior_fraction * spec.extent_y
    sub = np.ix_(np.where(keep_x)[0], np.where(keep_y)[0])
    scale = float(np.max(np.abs(ref[sub])))
    err = float(np.max(np.abs(back.values[sub] - ref[sub])))
    return err / max(scale, np.finfo(float).tiny)


def verify_young_inequality(phi, phi_star, xi_points, eta_points):
    """max over pairs of <xi, eta> - Phi(xi) - conj(eta) (signed slack).

    ``phi_star`` may be a SampledFn2D (eta_points must then be node
    indices) or any object with ``value``.  Nonpositive slack confirms the
    Fenchel-Young inequality on the sample.
    """
    if isinstance(phi_star, SampledFn2D):
        ii, jj = eta_points
        eta = np.stack([phi_star.x[ii], phi_star.y[jj]], axis=-1)
        star_vals = phi_star.values[ii, jj]
    else:
        eta = np.asarray(eta_points, dtype=float)
        star_vals = phi_star.value(eta[:, 0], eta[:, 1])
    xi = np.asarray(xi_points, dtype=float)
    pairing = xi[:, 0] * eta[:, 0] + xi[:, 1] * eta[:, 1]
    slack = pairing - phi.value(xi[:, 0], xi[:, 1]) - star_vals
    return float(np.max(slack))
