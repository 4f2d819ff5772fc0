"""The package's one grid-energy solve: projected descent in a Poisson metric.

Capacities (:mod:`anisolab.capacity`) and the weak solves of
:mod:`anisolab.pde` minimize one convex energy over fields u on an
n x n grid of spacing h:

    F[u] = sum_cells Phi(grad u) h^2 + sum_nodes psi(u) h^2

with the ``fixed`` nodes held at their start values (they must cover
the box edge) and, under ``box``, every node clipped to 0 <= u <= 1.
:func:`minimize_projected` is that solve: monotone descent with
Barzilai-Borwein step proposals safeguarded by Armijo backtracking (so
the objective never increases), the box clip after every trial step,
and a stopping rule on the relative objective decrease over a trailing
window of ``WINDOW`` iterations.  Nonsmooth kinks are handled by the
subgradient selection of ``Phi.grad``.

Every solve descends in one metric, P = Z L^-1 Z: L is the 5-point
Laplacian on the interior nodes (inverted by products with the
orthonormal DST-I matrix) and Z zeroes the fixed nodes.  The direction
is P g, still a descent direction, and the step proposal is the BB
quotient <s, y> / <y, P y> in that metric; for growth p >= 2 the
iteration counts stay nearly flat as the grid is refined.  P is exactly
zero on the fixed nodes, so no step moves them.  Under ``box`` the
metric is two-metric (Bertsekas): the nodes on a bound whose gradient
points out of the box are held as well, so P acts on the other nodes
alone.  Without that, P g clipped to the box need not go downhill once
some nodes sit on a bound, and the descent would stop short of the box
minimum.

Every result says why the descent stopped: ``rel_decrease`` (the window
rule), ``stationary`` (a projected trial step brings no first-order
decrease: at a constrained optimum, or once the step is below the
rounding of u), ``linesearch_exhausted`` (every backtrack failed the Armijo
test, so nothing is certified and ``converged`` is False) or ``cap`` (on
the partial result that :class:`IterationCapError` carries, once a solve
runs past ``MAX_ITER`` iterations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfield import divergence_of, forward_gradient

__all__ = ["DescentResult", "IterationCapError", "NonDoublingError", "minimize_projected"]

ARMIJO = 1e-4
MAX_BACKTRACKS = 60
WINDOW = 50  # iterations of the relative-decrease stopping rule
MAX_ITER = 120_000  # iterations before IterationCapError; no solve comes near it


class NonDoublingError(ValueError):
    """The solver only accepts doubling growth."""


class IterationCapError(RuntimeError):
    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class DescentResult:
    u: np.ndarray
    objective: float
    iterations: int
    converged: bool
    rel_decrease: float
    stop_reason: str


def _poisson_inverse(fixed):
    """The descent metric v -> Z L^-1 Z v on an n x n grid.

    L is the 5-point stencil (4, -1) on the interior nodes with a zero
    box edge; Z zeroes the ``fixed`` nodes, which must include the edge.
    The orthonormal DST-I matrix S (symmetric, S @ S = I) diagonalizes L
    along each axis, so L^-1 V = S (W * (S V S)) S with W = 1 / (lam_i +
    lam_j): four dense matrix products.  The map is symmetric positive
    definite on the free nodes, so -P g stays a descent direction.
    """
    m = fixed.shape[0] - 2
    k = np.arange(1, m + 1)
    # j k reduced mod 2 (m + 1) keeps the sine's argument within one period
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * m + 2)) / (m + 1))
    lam = 4.0 * np.sin(0.5 * np.pi * k / (m + 1)) ** 2
    weight = 1.0 / (lam[:, None] + lam[None, :])
    free = ~fixed[1:-1, 1:-1]

    def apply(v):
        out = np.zeros_like(v)
        inner = np.where(free, v[1:-1, 1:-1], 0.0)
        out[1:-1, 1:-1] = free * (s @ (weight * (s @ inner @ s)) @ s)
        return out

    return apply


def minimize_projected(phi, u0, fixed, h, psi=None, box=False, rel_tol=1e-8):
    """Minimize sum_cells Phi(grad u) h^2 + sum_nodes psi(u) h^2 from ``u0``.

    ``psi`` is a pair of nodewise callables (value, derivative) or None.
    The boolean node mask ``fixed`` holds its nodes at their ``u0``
    values and must cover the box edge; ``box`` clips every node to
    0 <= u <= 1, so fixed values must lie in [0, 1] there.  Rejects
    non-doubling ``phi`` with :class:`NonDoublingError`.  Convergence is
    declared when the objective drops by less than ``rel_tol``
    (relative) over ``WINDOW`` iterations; running past ``MAX_ITER``
    raises :class:`IterationCapError` with the partial result attached.
    """
    if not phi.is_doubling():
        raise NonDoublingError("the grid-energy solve requires doubling growth")
    fixed = np.asarray(fixed, dtype=bool)
    if not (fixed[[0, -1]].all() and fixed[:, [0, -1]].all()):
        raise ValueError("the fixed nodes must cover the box edge")
    area = h * h
    metric = _poisson_inverse(fixed)

    def project(u):
        return np.clip(u, 0.0, 1.0) if box else u

    def energy(u):
        gx, gy = forward_gradient(u, h)
        e = float(np.sum(phi.value(gx, gy)))
        if psi is not None:
            e += float(np.sum(psi[0](u)))
        return e * area

    def gradient(u):
        gx, gy = forward_gradient(u, h)
        g = -divergence_of(*phi.grad(gx, gy), h, u.shape[0])
        if psi is not None:
            g = g + psi[1](u)
        return g * area

    def descend(u, g):
        if not box:
            return metric(g)
        # two-metric projection: nodes on a bound whose gradient pushes
        # outwards stay put, and the metric acts on the other nodes alone
        held = ((u <= 0.0) & (g > 0.0)) | ((u >= 1.0) & (g < 0.0))
        return np.where(held, 0.0, metric(np.where(held, 0.0, g)))

    u = project(np.array(u0, dtype=float, copy=True))
    e = energy(u)
    g = gradient(u)
    direction = descend(u, g)
    step = 1.0 / max(float(np.sqrt(np.vdot(direction, direction).real)), 1.0)
    history = [e]
    for it in range(1, MAX_ITER + 1):
        alpha = step
        for _ in range(MAX_BACKTRACKS):
            cand = project(u - alpha * direction)
            decrease = float(np.vdot(g, u - cand).real)
            if decrease <= 0.0:
                return DescentResult(u, e, it, True, 0.0, "stationary")
            e_cand = energy(cand)
            if e_cand <= e - ARMIJO * decrease:
                break
            alpha *= 0.5
        else:
            return DescentResult(u, e, it, False, 0.0, "linesearch_exhausted")
        g_cand = gradient(cand)
        s = cand - u
        y = g_cand - g
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:
            step = sy / float(np.vdot(y, metric(y)).real)
        else:
            step = alpha * 2.0
        # cap growth relative to the accepted step: unbounded BB proposals on
        # degenerate energies would burn the whole backtracking budget
        step = float(np.clip(step, 1e-14, max(1e6 * alpha, 1e-14)))
        u, e, g = cand, e_cand, g_cand
        direction = descend(u, g)
        history.append(e)
        if len(history) > WINDOW:
            prev = history[-WINDOW - 1]
            rel = (prev - e) / max(abs(e), 1e-300)
            if rel < rel_tol:
                return DescentResult(u, e, it, True, float(rel), "rel_decrease")
    result = DescentResult(
        u=u,
        objective=e,
        iterations=MAX_ITER,
        converged=False,
        rel_decrease=float((history[-WINDOW - 1] - e) / max(abs(e), 1e-300))
        if len(history) > WINDOW
        else np.inf,
        stop_reason="cap",
    )
    raise IterationCapError(f"no convergence within {MAX_ITER} iterations", result)
