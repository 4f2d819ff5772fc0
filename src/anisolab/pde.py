"""Measure-data experiments: mollified solves, truncation bounds, uniqueness.

The operator is the variational one, A = grad Phi, so each approximate
problem -div A(grad u) = h_s with zero boundary is the Euler-Lagrange
equation of a convex energy.  :func:`solve_weak` minimizes it by the
grid-energy descent the capacities use (:mod:`anisolab.descent`, whose
docstring states the energy and the metric), with psi(u) = -f u and the
box edge as the only fixed nodes.  A measure is atoms plus a density;
data split as f - div G go in as the single node density
``f - divergence_of(Gx, Gy, h, n)``, which gives the energy of the flux
term -G . grad u exactly, since sum(G . grad u) = -sum(u div G) in the
forward-difference pairing.

The uniqueness experiment drives two approximation sequences, each a
mollifier kernel at geometric scales, toward the same measure and
reports two trend curves: the L1 distance between same-stage solutions
and the monotonicity-gap integral

    int_{|T_l uA - T_l uB| <= t} (A(grad uA) - A(grad uB)) . grad(uA - uB)

whose integrand is nonnegative cellwise for convex Phi.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .descent import minimize_projected
from .gridfield import GridField2D, forward_gradient
from .sobolev import luxemburg_norm_gradient

__all__ = [
    "DiscreteMeasure",
    "ApproxSequence",
    "SolveReport",
    "truncate",
    "mollify_measure",
    "solve_weak",
    "truncation_bounds_check",
    "uniqueness_experiment",
]

TRUNCATION_STABILITY = 0.30  # truncation_bounds_check's spread allowed around the median
GAP_T, GAP_L = 0.05, 1.0  # t and l of the monotonicity-gap integral


@dataclass
class DiscreteMeasure:
    """Atoms (x, y, weight) plus an optional density."""

    atoms: list = field(default_factory=list)
    density: GridField2D | None = None

    def atom_nodes(self, g):
        """(i, j, weight) per atom, binned to the nearest node of g.  An atom
        that bins to the edge of g or beyond it raises ValueError: the
        zero-boundary problems hold u = 0 there, so they never see it."""
        for x, y, w in self.atoms:
            i = int(round(x / g.h))
            j = int(round(y / g.h))
            if not (1 <= i <= g.n - 2 and 1 <= j <= g.n - 2):
                raise ValueError(f"atom at ({x}, {y}) is not inside the open box of the grid")
            yield i, j, w

    def node_values(self, g):
        """Node density on the grid of g: atoms binned to the nearest node
        plus the density."""
        vals = np.zeros_like(g.values)
        for i, j, w in self.atom_nodes(g):
            vals[i, j] += w / (g.h * g.h)
        if self.density is not None:
            vals = vals + self.density.values
        return vals

    def total_variation(self, g):
        """Total mass of |mu|, the density integrated on the grid of g."""
        tv = sum(abs(w) for _, _, w in self.atoms)
        if self.density is not None:
            tv += float(np.sum(np.abs(self.density.values))) * g.cell_area
        return tv


def truncate(f, k):
    """Symmetric clamp to [-k, k], nodewise."""
    if k <= 0.0:
        raise ValueError("truncation level must be positive")
    return GridField2D(np.clip(f.values, -k, k), f.h)


def _kernel_profile(kind, r2_over_eps2):
    if kind == "gaussian":
        return np.exp(-4.0 * r2_over_eps2)  # std = eps/(2 sqrt 2): support ~ eps
    if kind == "bump":
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(
                r2_over_eps2 < 1.0,
                np.exp(1.0 - 1.0 / np.maximum(1e-300, 1.0 - r2_over_eps2)),
                0.0,
            )
    raise ValueError(f"unknown kernel {kind!r}")


def mollify_measure(measure, eps, kernel, base):
    """Smooth data field approximating the measure at scale eps.

    Atoms become normalized kernel blobs (discrete mass exactly the atom
    weight; blobs clipped by the boundary are renormalized with a
    warning; an atom that does not bin to an interior node of ``base``
    raises ValueError, as in :meth:`DiscreteMeasure.atom_nodes`), and
    the density is convolved with the same kernel: that is what an
    approximation sequence of smooth data does.
    """
    if eps < 2.0 * base.h:
        raise ValueError("mollification scale must be at least two grid cells")
    list(measure.atom_nodes(base))  # raises before any blob is built
    n, h = base.n, base.h
    ax = base.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    out = np.zeros((n, n))
    for x, y, w in measure.atoms:
        r2 = ((X - x) ** 2 + (Y - y) ** 2) / (eps * eps)
        blob = _kernel_profile(kernel, r2)
        support_radius = eps
        if (
            x - support_radius < ax[0]
            or x + support_radius > ax[-1]
            or y - support_radius < ax[0]
            or y + support_radius > ax[-1]
        ):
            warnings.warn("atom support clipped at the boundary; blob renormalized")
        mass = float(np.sum(blob)) * h * h
        out += (w / mass) * blob
    if measure.density is not None:
        kr = int(np.ceil(eps / h)) + 1
        off = np.arange(-kr, kr + 1) * h
        OX, OY = np.meshgrid(off, off, indexing="ij")
        patch = _kernel_profile(kernel, (OX**2 + OY**2) / (eps * eps))
        patch = patch / (float(np.sum(patch)) * h * h)
        padded = np.pad(measure.density.values, kr, mode="constant")
        windows = sliding_window_view(padded, patch.shape)
        out += np.einsum("ijkl,kl->ij", windows, patch) * h * h
    return GridField2D(out, h)


# ---------------------------------------------------------------------------
# weak solves


def solve_weak(phi, f_field, rel_tol=1e-9, u0=None):
    """Minimizer of sum(Phi(grad u) - f u) h^2, zero boundary.

    Returns the minimizer as a field carrying the descent's
    ``iterations``, ``objective``, ``stop_reason`` and ``gap``; non-doubling
    ``phi`` raises :class:`anisolab.descent.NonDoublingError`.
    """
    f_vals = f_field.values
    edge = np.ones(f_vals.shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    start = np.zeros_like(f_vals) if u0 is None else np.where(edge, 0.0, u0)
    psi = (lambda u: -f_vals * u, lambda u: -f_vals)
    res = minimize_projected(phi, start, edge, f_field.h, psi=psi, rel_tol=rel_tol)
    out = GridField2D(res.u, f_field.h)
    out.iterations = res.iterations
    out.objective = res.objective
    out.stop_reason = res.stop_reason
    out.gap = res.gap
    return out


# ---------------------------------------------------------------------------
# diagnostics


def truncation_bounds_check(solutions, k_list, phi):
    """Fit C0 = max_k |grad T_k u_s|_Phi / k per stage; flag instability.

    The verdict is ok when every stage constant sits within
    ``TRUNCATION_STABILITY`` (relative) of the median across stages.
    """
    table = []
    stage_c0 = []
    for s, u in enumerate(solutions):
        worst = 0.0
        for k in k_list:
            norm = luxemburg_norm_gradient(truncate(u, k), phi)
            table.append({"stage": s, "k": float(k), "norm": norm, "ratio": norm / k})
            worst = max(worst, norm / k)
        stage_c0.append(worst)
    med = float(np.median(stage_c0))
    ok = all(abs(c - med) <= TRUNCATION_STABILITY * med for c in stage_c0)
    return {"ok": ok, "C0": float(max(stage_c0)), "per_stage": stage_c0, "table": table}


@dataclass
class ApproxSequence:
    kernel: str
    scales: list


@dataclass
class SolveReport:
    l1_gaps: list
    gap_integrals: list
    f_l1_errors: dict
    stages: int
    solutions_a: list
    solutions_b: list

    def gaps_decreasing(self):
        return bool(np.all(np.diff(self.l1_gaps) < 0.0))

    def gap_integrals_decreasing(self):
        return bool(np.all(np.diff(self.gap_integrals) < 0.0))


def _gap_integral(phi, ua, ub, h):
    ta, tb = np.clip(ua.values, -GAP_L, GAP_L), np.clip(ub.values, -GAP_L, GAP_L)
    sel = np.abs(ta - tb)[:-1, :-1] <= GAP_T  # cell flag at the base node
    gxa, gya = forward_gradient(ua.values, h)
    gxb, gyb = forward_gradient(ub.values, h)
    axa, aya = phi.grad(gxa, gya)
    axb, ayb = phi.grad(gxb, gyb)
    integrand = (axa - axb) * (gxa - gxb) + (aya - ayb) * (gya - gyb)
    if np.min(integrand) < -1e-12 * max(1.0, float(np.max(np.abs(integrand)))):
        raise AssertionError("monotonicity gap integrand went negative")
    return float(np.sum(integrand[sel])) * h * h


def uniqueness_experiment(phi, measure, seq_a, seq_b, base, rel_tol=1e-9):
    """Solve both approximation sequences and report the two trend curves.

    Preconditions checked numerically: each sequence's data converges to
    the measure's density part in L1, and every stage's data mass stays
    below twice the measure's total variation.  Raises on setup
    violations.
    """
    if len(seq_a.scales) != len(seq_b.scales):
        raise ValueError("sequences must share the stage count")
    stages = len(seq_a.scales)
    sols = {"a": [], "b": []}
    f_errors = {"a": [], "b": []}
    target = measure.node_values(base)
    tv_bound = 2.0 * measure.total_variation(base) + 1e-12
    for name, seq in (("a", seq_a), ("b", seq_b)):
        prev = None
        for s, eps in enumerate(seq.scales):
            h_field = mollify_measure(measure, eps, seq.kernel, base)
            if float(np.sum(np.abs(h_field.values))) * base.cell_area > tv_bound:
                raise ValueError(f"sequence {name}: stage {s} mass exceeds 2 |mu|")
            u = solve_weak(phi, h_field, rel_tol=rel_tol, u0=prev)
            sols[name].append(u)
            prev = u.values.copy()
            f_errors[name].append(
                float(np.sum(np.abs(h_field.values - target))) * base.cell_area
            )
        if stages >= 3 and not f_errors[name][-1] <= f_errors[name][0]:
            raise ValueError(f"sequence {name}: data does not approach the measure")
    l1_gaps = [
        float(np.sum(np.abs(ua.values - ub.values))) * base.cell_area
        for ua, ub in zip(sols["a"], sols["b"])
    ]
    gaps = [
        _gap_integral(phi, ua, ub, base.h)
        for ua, ub in zip(sols["a"], sols["b"])
    ]
    return SolveReport(
        l1_gaps=l1_gaps,
        gap_integrals=gaps,
        f_l1_errors=f_errors,
        stages=stages,
        solutions_a=sols["a"],
        solutions_b=sols["b"],
    )
