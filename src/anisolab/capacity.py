"""Sobolev and relative capacities as discretized convex minimization.

Every capacity is one :func:`relative_capacity` solve on the n x n grid
over the unit box (h = 1/(n - 1)); the whole-plane capacity is the one
with Omega the whole box.  That solve is the grid-energy descent of
:mod:`anisolab.descent`, whose docstring states the energy and the
metric.  A capacity has, in full mode, psi(u) = phicirc(kappa |u|); it
is taken over grid fields with u = 1 on the marked set, u = 0 on the
box edge and off Omega, and 0 <= u <= 1 (the ``box`` constraint).
Clamping at 1 never increases the energy, so the box projection loses
nothing against the test classes that merely exceed 1 on the set.  An
empty set has capacity zero without a solve.

Solves warm-start from related minimizers wherever the classical
structure makes the answer comparable: the union/intersection solves
start from the pointwise max/min of the pair's minimizers, which turns
strong subadditivity into a property the descent preserves instead of a
numerical coincidence.  Point capacities and the diffuse/singular split
share one refinement ladder of nested grids: the coarsest rung starts
from the zero field, each finer one from the upsampled minimizer below
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aniso2d import radial_power_fn
from .descent import minimize_projected
from .gridfield import GridField2D
from .young1d import PowerFn

__all__ = [
    "CapacityResult",
    "disk_mask",
    "square_mask",
    "sobolev_capacity",
    "relative_capacity",
    "capacity_property_suite",
    "point_capacity_scaling",
    "diffuse_singular_split",
]


LADDER_KAPPA = 1.0  # zero-order weight of the point-capacity ladder


@dataclass
class CapacityResult:
    value: float
    minimizer: GridField2D
    iterations: int
    mode: str
    n: int
    stop_reason: str
    gap: float | None  # the solve's certificate: value - gap <= the grid minimum
    evaluations: int  # the solve's energy evaluations, backtracks included


def disk_mask(n, cx, cy, r):
    ax = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return (X - cx) ** 2 + (Y - cy) ** 2 <= r * r


def square_mask(n, x_lo, x_hi, y_lo, y_hi):
    ax = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    return (X >= x_lo) & (X <= x_hi) & (Y >= y_lo) & (Y <= y_hi)


def _boundary_mask(n):
    m = np.zeros((n, n), dtype=bool)
    m[0, :] = m[-1, :] = m[:, 0] = m[:, -1] = True
    return m


def sobolev_capacity(phi, phicirc, kappa, e_mask, n, u0=None):
    """Whole-plane capacity of E, approximated on the unit box with zero
    values on its edge.  An empty set has capacity zero by definition."""
    return relative_capacity(phi, phicirc, kappa, e_mask, np.ones((n, n), dtype=bool), n, u0=u0)


def relative_capacity(phi, phicirc, kappa, k_mask, omega_mask, n, mode="full", u0=None):
    """Condenser capacity of K relative to Omega on the n x n unit grid.

    ``mode="dirichlet-only"`` drops the zero-order term (validation mode:
    for |xi|^2 the annulus value has the classical closed form).
    """
    k_mask = np.asarray(k_mask, dtype=bool)
    omega_mask = np.asarray(omega_mask, dtype=bool)
    if np.any(k_mask & ~omega_mask):
        raise ValueError("K must sit inside Omega")
    h = 1.0 / (n - 1)
    if not k_mask.any():
        # the zero field is feasible and has zero energy
        return CapacityResult(0.0, GridField2D.zeros(n, h), 0, mode, n, "stationary", 0.0, 0)
    zero_mask = (~omega_mask) | (_boundary_mask(n) & ~k_mask)
    psi = None
    if mode == "full":
        psi = (
            lambda u: phicirc.value(kappa * np.abs(u)),
            lambda u: kappa * np.sign(u) * phicirc.derivative(kappa * np.abs(u)),
        )
    u0 = np.zeros((n, n)) if u0 is None else np.array(u0, dtype=float)
    u0[k_mask] = 1.0
    u0[zero_mask] = 0.0
    res = minimize_projected(phi, u0, k_mask | zero_mask, h, psi=psi, box=True)
    return CapacityResult(
        value=res.objective,
        minimizer=GridField2D(res.u, h),
        iterations=res.iterations,
        mode=mode,
        n=n,
        stop_reason=res.stop_reason,
        gap=res.gap,
        evaluations=res.evaluations,
    )


def capacity_property_suite(phi, phicirc, kappa, pairs, n, rel_tol_check=1e-3):
    """Monotonicity, strong subadditivity and finite subadditivity checks.

    ``pairs`` is a list of (mask_a, mask_b).  For each pair the suite
    solves both sets, then the union (warm-started from the pointwise max
    of the two minimizers) and the intersection (from the min), and checks

        C(A u B) + C(A n B) <= C(A) + C(B) + tol
        C(A n B) <= min(C(A), C(B)) + tol          (monotonicity)
        C(A u B) <= C(A) + C(B) + tol              (subadditivity)
    """
    rows = []

    def solve(mask, u0):
        return sobolev_capacity(phi, phicirc, kappa, mask, n, u0=u0)

    for idx, (ma, mb) in enumerate(pairs):
        ra, rb = solve(ma, None), solve(mb, None)
        union, inter = ma | mb, ma & mb
        ru = solve(union, np.maximum(ra.minimizer.values, rb.minimizer.values))
        ri = solve(inter, np.minimum(ra.minimizer.values, rb.minimizer.values))
        tol = rel_tol_check * max(ra.value + rb.value, 1e-12)
        rows.append(
            {
                "pair": idx,
                "C_a": ra.value,
                "C_b": rb.value,
                "C_union": ru.value,
                "C_inter": ri.value,
                "strong_subadditive": bool(ru.value + ri.value <= ra.value + rb.value + tol),
                "monotone": bool(
                    ri.value <= min(ra.value, rb.value) + tol
                    and max(ra.value, rb.value) <= ru.value + tol
                ),
                "subadditive": bool(ru.value <= ra.value + rb.value + tol),
            }
        )
    ok = all(r["strong_subadditive"] and r["monotone"] and r["subadditive"] for r in rows)
    return {"ok": ok, "rows": rows}


def upsample_nested(values):
    """Bilinear upsample from n to 2n-1 nodes (nested refinement grids)."""
    n = values.shape[0]
    out = np.zeros((2 * n - 1, 2 * n - 1))
    out[::2, ::2] = values
    out[1::2, ::2] = 0.5 * (values[:-1, :] + values[1:, :])
    out[::2, 1::2] = 0.5 * (values[:, :-1] + values[:, 1:])
    out[1::2, 1::2] = 0.25 * (
        values[:-1, :-1] + values[1:, :-1] + values[:-1, 1:] + values[1:, 1:]
    )
    return out


def _cell_capacity_ladder(p, i, j, n_values):
    """Full-mode capacity (kappa = ``LADDER_KAPPA``) of the one-node set at
    node (i, j) of the coarsest grid relative to the open unit box, for
    |xi|^p growth, on each of the nested grids ``n_values``, and each
    rung's iteration count.

    The node is followed as (2i, 2j) down the grids, so every rung marks
    the same point.  The first rung starts from the zero field (a flat
    start, no metric weights), each later one from the upsampled
    minimizer below it.
    """
    if any(m != 2 * n - 1 for n, m in zip(n_values, n_values[1:])):
        raise ValueError(f"grid sizes {tuple(n_values)} are not nested (each next n is 2n - 1)")
    phi, phicirc = radial_power_fn(p), PowerFn(p)
    u0, values, iterations = None, [], []
    for n in n_values:
        k_mask = np.zeros((n, n), dtype=bool)
        k_mask[i, j] = True
        omega = ~_boundary_mask(n)
        res = relative_capacity(phi, phicirc, LADDER_KAPPA, k_mask, omega, n, u0=u0)
        values.append(res.value)
        iterations.append(res.iterations)
        u0 = upsample_nested(res.minimizer.values)
        i, j = 2 * i, 2 * j
    return values, iterations


def point_capacity_scaling(p_values, n_values=(33, 65, 129, 257)):
    """Single-cell capacity across grid refinements, per growth exponent.

    In the plane a point is capacity-null exactly for powers up to the
    dimension; the numeric signature is a value trend that collapses for
    p < 2 and stays bounded below for p > 2.  Trend rule: collapsing if
    the finest value is below half the coarsest.  The grids must be
    nested (each next n is 2n - 1); the cell is the middle one.
    """
    report = {}
    mid = n_values[0] // 2
    for p in p_values:
        values = np.array(_cell_capacity_ladder(p, mid, mid, n_values)[0])
        report[p] = {
            "n": list(n_values),
            "values": [float(v) for v in values],
            "collapsing": bool(values[-1] < 0.5 * values[0]),
            "monotone_decreasing": bool(np.all(np.diff(values) <= 1e-12)),
        }
    return report


def diffuse_singular_split(measure, p, n_values=(33, 65, 129)):
    """Split a measure into a capacity-respecting part and null-set atoms.

    Each atom is classified by the refinement trend of the capacity of its
    own cell, from the same ladder as :func:`point_capacity_scaling`;
    collapsing trend means the atom charges a capacity-null point and goes
    to the singular part.  The density always belongs to the diffuse part.
    ``details`` holds, per atom, the ladder's values and each rung's
    iteration count.
    """
    # every atom is snapped, and checked, before the first solve
    nodes = list(measure.atom_nodes(GridField2D.unit_square(n_values[0])))
    diffuse_atoms, singular_atoms, details = [], [], []
    for atom, (i, j, _) in zip(measure.atoms, nodes):
        values, iterations = _cell_capacity_ladder(p, i, j, n_values)
        collapsing = values[-1] < 0.5 * values[0]
        (singular_atoms if collapsing else diffuse_atoms).append(atom)
        details.append(
            {"atom": atom, "values": values, "iterations": iterations, "null_supported": collapsing}
        )
    return {
        "diffuse_atoms": diffuse_atoms,
        "singular_atoms": singular_atoms,
        "density_in_diffuse_part": measure.density is not None,
        "details": details,
    }
