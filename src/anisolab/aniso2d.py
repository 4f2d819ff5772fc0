"""Two-dimensional Young functions, gradients, and discrete conjugation.

Anisotropic functions are finite sums of 1-D Young functions composed
with direction vectors, Phi(xi) = sum_i psi_i(<d_i, xi>); sublevel sets
are bounded exactly when the directions span the plane, which the
constructor enforces.  A radial wrapper covers the isotropic |xi|^p
family the capacity experiments need.

The Young conjugate is computed exactly on sample grids: the max over the
product grid factorizes into two 1-D discrete Legendre transforms (first
over xi_1 for every (eta_1, xi_2), then over xi_2), each batched over
rows.  A finite row that passes a one-pass convexity test is merged with
the sorted dual nodes in O(n + m) (Lucet, Numer. Algorithms 16, 1997;
Felzenszwalb and Huttenlocher, Theory of Computing 8, 2012); any other
row is maximized exhaustively in O(n m).  Values and argmax indices match
exhaustive maximization bit for bit, ties going to the lowest index; a
maximizer on the primal boundary triggers box expansion, capped at four
doublings.
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
    "conjugate2d",
    "conjugate_of_samples",
    "biconjugate2d",
    "involution_error",
    "verify_young_inequality",
    "check_monotonicity_property",
]


INVOLUTION_INTERIOR = 0.5  # involution_error compares on this fraction of the box
MONOTONICITY_RTOL = 1e-12  # relative slack of check_monotonicity_property
MAX_EXPAND = 4  # primal box doublings conjugate2d tries before BoxTooSmallError
DUAL_MARGIN = 1.05  # biconjugate2d's dual box over the gradient range on the primal edge


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

    @property
    def conjugate(self):
        """Phi* as a callable (x, y) -> values, or None.

        Two terms whose 1-D functions have closed-form conjugates give it:
        their directions a_1, a_2 span the plane, so sigma = tau_1 a_1 +
        tau_2 a_2 has one solution per cell and Phi*(sigma) =
        psi_1*(tau_1) + psi_2*(tau_2).
        """
        if len(self.terms) != 2 or not all(hasattr(fn, "conjugate") for *_, fn in self.terms):
            return None
        (ax, ay, f1), (bx, by, f2) = self.terms
        det = ax * by - ay * bx

        def conjugate(x, y):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            return f1.conjugate((by * x - bx * y) / det) + f2.conjugate((ax * y - ay * x) / det)

        return conjugate


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

    @property
    def conjugate(self):
        """Phi*(x, y) = psi*(|(x, y)|) as a callable, or None when psi has
        no closed-form conjugate."""
        if not hasattr(self.fn, "conjugate"):
            return None
        return lambda x, y: self.fn.conjugate(np.hypot(x, y))


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


def check_monotonicity_property(phi, pairs):
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
        if a > b * (1.0 + MONOTONICITY_RTOL):
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
# convexity test's chord and slope arithmetic (each a few roundoffs).
_TOL = 16.0 * np.finfo(float).eps

# Elements per temporary of one _legendre_1d block (256 KiB of float64).
# The merge makes a dozen temporaries; on whole (rows, n) grids they come
# to tens of MiB, which the allocator keeps in its heap after the call, so
# the process's resident size would depend on how that heap fragments.
_MERGE_BLOCK = 1 << 15


def _convex_rows(x, v, scale):
    """Per row of ``v``, whether every sample is finite and no consecutive
    triple (i - 2, i - 1, i) has its middle point above the chord of its
    neighbours by more than the float error bound.

    On such a row no point is ruled out of the float maximum of
    eta * x - v, which :func:`_merge_rows` relies on.  Rows go a block at
    a time, with temporaries near ``_MERGE_BLOCK`` elements each.
    """
    rows_n, n = v.shape
    ratio = (x[1:-1] - x[:-2]) / (x[2:] - x[:-2])
    out = np.isfinite(v).all(axis=1)
    step = max(1, _MERGE_BLOCK // n)
    with np.errstate(invalid="ignore"):
        for a in range(0, rows_n, step):
            va, vb, vc = v[a : a + step, :-2], v[a : a + step, 1:-1], v[a : a + step, 2:]
            gap = (vb - va) - (vc - va) * ratio
            slack = _TOL * (scale[a : a + step, None] + np.abs(va) + np.abs(vb) + np.abs(vc))
            out[a : a + step] &= ~np.any(gap > slack, axis=1)
    return out


def _legendre_1d(x, v, eta):
    """Row-wise discrete Legendre transform with the lowest argmax.

    g[r, k] = max_i (eta[k] * x[i] - v[r, i]) and arg[r, k] the lowest
    maximizing i, bit for bit what ``np.argmax`` over the full product
    gives; a row of +inf samples gives (-inf, 0).  ``x`` must increase
    strictly, ``eta`` must not decrease, ``v`` holds finite or +inf values.

    Rows that pass :func:`_convex_rows` are merged with the sorted dual
    nodes by :func:`_merge_rows` in O(n + m) each; every other row is
    maximized exhaustively over the full product in O(n m).  Rows go a
    block at a time, so that temporaries stay near ``_MERGE_BLOCK``
    elements each.
    """
    rows_n, n = v.shape
    m = len(eta)
    vmin = np.min(v, axis=1)
    scale = float(np.max(np.abs(eta)) * np.max(np.abs(x))) + np.where(
        np.isfinite(vmin), np.abs(vmin), 0.0
    )
    convex = _convex_rows(x, v, scale)
    g = np.empty((rows_n, m))
    arg = np.empty((rows_n, m), dtype=np.int32)
    rows = np.flatnonzero(convex)
    step = max(1, _MERGE_BLOCK // max(n, m))
    for a in range(0, rows.size, step):
        r = rows[a : a + step]
        g[r], arg[r] = _merge_rows(x, v[r], eta, scale[r])
    rows = np.flatnonzero(~convex)
    step = max(1, _MERGE_BLOCK // (n * m))
    for a in range(0, rows.size, step):
        r = rows[a : a + step]
        vals = eta[None, :, None] * x[None, None, :] - v[r, None, :]
        arg[r] = np.argmax(vals, axis=2)
        g[r] = np.max(vals, axis=2)
    return g, arg


def _merge_rows(x, v, eta, scale):
    """Lowest argmax and max of eta[k] * x[i] - v[r, i] for a block of rows
    that pass :func:`_convex_rows`, given their scales from
    :func:`_legendre_1d`.

    Point i can hold the float maximum only for eta in
    [s_{i-1} - w, s_i + w], with s the chord slopes and w their error
    bounds, so a prefix max and a suffix min of those ends give every dual
    node a contiguous window of candidates, found by ``np.searchsorted``.
    The candidates are evaluated with the brute-force expression and the
    first largest wins.  Windows hold one or two points unless eta meets
    the slope of a (nearly) collinear run, whose points then tie exactly,
    so the cost is O(n + m) per row.
    """
    rows_n, n = v.shape
    m = len(eta)
    with np.errstate(all="ignore"):
        dx = np.diff(x)
        slope = np.diff(v, axis=1) / dx
        err = _TOL * (
            scale[:, None] + np.abs(v[:, :-1]) + np.abs(v[:, 1:]) + np.max(np.abs(x)) * np.abs(slope)
        ) / dx
        hi = np.full((rows_n, n), np.inf)
        hi[:, :-1] = slope + err
        lo = np.full((rows_n, n), -np.inf)
        lo[:, 1:] = slope - err
    hi = np.maximum.accumulate(hi, axis=1)
    lo = np.minimum.accumulate(lo[:, ::-1], axis=1)[:, ::-1]
    # window of dual node k: indices with hi >= eta[k] and lo <= eta[k]
    first = np.array([np.searchsorted(row, eta, side="left") for row in hi], dtype=np.int32)
    last = np.array([np.searchsorted(row, eta, side="right") for row in lo]) - 1
    last = np.maximum(last, first)  # never an empty window

    r = np.arange(rows_n)[:, None]
    g = eta[None, :] * x[first] - v[r, first]
    g_flat, arg_flat = g.reshape(-1), first.reshape(-1)  # first turns into the argmax
    live = np.flatnonzero(last > first)
    rl, kl = np.divmod(live, m)
    i = arg_flat[live]
    while live.size:
        i = i + 1
        val = eta[kl] * x[i] - v[rl, i]
        up = val > g_flat[live]
        g_flat[live[up]] = val[up]
        arg_flat[live[up]] = i[up]
        more = i < last.reshape(-1)[live]
        live, rl, kl, i = live[more], rl[more], kl[more], i[more]
    return g, first


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
    ties) landed on the primal box edge.  Each 1-D pass costs O(n + m) per
    row on finite, discretely convex rows, as samples of a Young function
    and their partial conjugates are; a nonconvex or partly +inf row costs
    O(n m).
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


def conjugate2d(phi, dual_spec, primal_spec=None):
    """Young conjugate of phi sampled on the dual grid.

    Each attempt samples phi on the primal grid (non-finite values become
    +inf) and takes one exact discrete Legendre transform of the samples
    with :func:`conjugate_of_samples`, in O(n^2) time on n x n grids.  The
    primal box starts at ``primal_spec`` (default: the dual box) and
    doubles while any maximizer touches its edge, up to ``MAX_EXPAND``
    doublings; persistent boundary maximizers raise
    :class:`BoxTooSmallError`.
    """
    spec = primal_spec or GridSpec2D(dual_spec.extent_x, dual_spec.extent_y, dual_spec.n)
    for _ in range(MAX_EXPAND + 1):
        vals = phi.value(*np.meshgrid(spec.x, spec.y, indexing="ij"))
        vals = np.where(np.isfinite(vals), vals, np.inf)
        out, hit = conjugate_of_samples(
            SampledFn2D.from_spec(spec, vals), dual_spec
        )
        if not hit:
            return out
        spec = GridSpec2D(2.0 * spec.extent_x, 2.0 * spec.extent_y, spec.n)
    raise BoxTooSmallError(
        f"argmax still on the primal boundary after {MAX_EXPAND} doublings"
    )


def _dual_extents(phi, spec):
    """Componentwise gradient range of phi over the box edge (dual box sizing)."""
    edge = np.concatenate(
        [
            np.stack(np.meshgrid([-spec.extent_x, spec.extent_x], spec.y, indexing="ij"), -1).reshape(-1, 2),
            np.stack(np.meshgrid(spec.x, [-spec.extent_y, spec.extent_y], indexing="ij"), -1).reshape(-1, 2),
        ]
    )
    gx, gy = phi.grad(edge[:, 0], edge[:, 1])
    return DUAL_MARGIN * float(np.max(np.abs(gx))), DUAL_MARGIN * float(np.max(np.abs(gy)))


def biconjugate2d(phi, primal_spec):
    """Biconjugate of phi sampled back on the primal grid.

    The intermediate dual grid has the primal grid's size, on a box sized
    from the gradient range of phi on the primal box edge, so that
    maximizers of the second transform stay interior for interior primal
    points.
    """
    ex, ey = _dual_extents(phi, primal_spec)
    dual_spec = GridSpec2D(ex, ey, primal_spec.n)
    star = conjugate2d(phi, dual_spec, primal_spec=primal_spec)
    back, _ = conjugate_of_samples(star, primal_spec)
    return back, star


def involution_error(phi, spec):
    """Sup error of the biconjugate against phi on the interior sub-box
    (``INVOLUTION_INTERIOR`` of each half-width), normalized by the sup of
    |phi| there."""
    back, _ = biconjugate2d(phi, spec)
    X, Y = np.meshgrid(spec.x, spec.y, indexing="ij")
    ref = phi.value(X, Y)
    keep_x = np.abs(spec.x) <= INVOLUTION_INTERIOR * spec.extent_x
    keep_y = np.abs(spec.y) <= INVOLUTION_INTERIOR * spec.extent_y
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
