"""The package's one grid-energy solve: projected descent in a Poisson metric.

Capacities (:mod:`anisolab.capacity`) and the weak solves of
:mod:`anisolab.pde` minimize one convex energy over fields u on an
n x n grid of spacing h:

    F[u] = sum_cells Phi(grad u) h^2 + sum_nodes psi(u) h^2

with the ``fixed`` nodes held at their start values (they must cover
the box edge) and, under ``box``, every node clipped to 0 <= u <= 1.
:func:`minimize_projected` is that solve: projected descent with
Barzilai-Borwein step proposals, the box clip after every trial step,
and a stop on a certificate where the energy has one.  Nonsmooth kinks
are handled by the subgradient selection of ``Phi.grad``.

**Metric.**  The base metric is P = Z L^-1 Z: L is the 5-point
Laplacian on the interior nodes (inverted by products with the
orthonormal DST-I matrix) and Z zeroes the fixed nodes, so no step
moves them.  The solve descends in the re-weighted metric
P_w = D P D, D = diag(w^-1/2), where w is, per node, the mean over its
four cells of the secant modulus |grad Phi(xi)| / |xi| (|xi| floored at
``FLOOR`` times its maximum).  P_w is the inverse of a Laplacian with
the local stiffness of Phi, so iteration counts stay nearly flat as the
grid is refined for every growth p, not only p = 2.  Where w is
constant on the free nodes (quadratic Phi) the solve keeps P itself.
The start supplies the weights; a flat start (max |xi| = 0, or more
than half of the cells below the floor) is cold: it descends in P and,
the first time its window decrease or its certificate falls below
``REWEIGHT_TOL``, re-weights once from the best iterate and restarts
the step memory there.  Under ``box`` the metric is two-metric
(Bertsekas): the nodes on a bound whose gradient points out of the box
are held, so the metric acts on the other nodes alone.  Without that,
a clipped step need not go downhill once some nodes sit on a bound.

**Search.**  Each iteration makes one metric product q = P_w g (g
masked by the held nodes) and keeps it, so the BB quotient
<s, y> / <y, P_w y> reads its denominator as <y, q_new - q_old>; a
non-positive quotient falls back to twice the accepted step.  A trial
is accepted by the nonmonotone Armijo test of Grippo, Lampariello and
Lucidi: its energy must lie below the largest of the last ``MEMORY``
accepted energies by ``ARMIJO`` times the first-order decrease.  The
solve returns the best iterate it has seen, so the result never lies
above the start.

**Certificates.**  At each iterate v a certificate gap(v) bounds
E(v) - min E from above:

- under ``box``, the Frank-Wolfe gap sum_free max(g v, g (v - 1));
- without the box, where w is a positive constant c, <g, P g> / (2c)
  (the Hessian is at least c L; exact for linear psi);
- otherwise there is none, and the result's ``gap`` is None.

The result's ``gap`` is E(best) minus the largest E(v) - gap(v) over
the iterates, so E - gap <= min E <= E up to the rounding of the energy
sums; it closes even once the energies sit at that rounding.

**Stop reasons.**  ``gap`` (the certificate is at most ``rel_tol``
times |E|), ``rel_decrease`` (no certificate: the best energy fell by
less than ``rel_tol``, relative, over ``WINDOW`` iterations),
``stationary`` (a projected trial step brings no first-order decrease:
at a constrained optimum, or once the step is below the rounding of u;
``converged`` only if the certificate, where there is one, passes),
``linesearch_exhausted`` (every backtrack failed the Armijo test, so
nothing is certified and ``converged`` is False) or ``cap`` (on the
partial result that :class:`IterationCapError` carries, once a solve
runs past ``MAX_ITER`` iterations).  ``rel_decrease`` holds the window
decrease, or gap / |E| on a ``gap`` exit, and 0.0 on the other exits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .gridfield import divergence_of, forward_gradient

__all__ = ["DescentResult", "IterationCapError", "NonDoublingError", "minimize_projected"]

ARMIJO = 1e-4
MAX_BACKTRACKS = 60
MEMORY = 10  # accepted energies the nonmonotone Armijo test looks back over
WINDOW = 50  # iterations of the relative-decrease stopping rule
FLOOR = 1e-6  # |xi| floor of the metric weights, relative to max |xi|
REWEIGHT_TOL = 1e-2  # a cold solve re-weights once this close, relative
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
    gap: float | None  # upper bound on objective - min, None without a certificate
    evaluations: int  # energy evaluations, the start's and the backtracks' included


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


def _secant_weights(phi, u, h):
    """Per node, the mean over its four cells of |grad Phi(xi)| / |xi|.

    |xi| is floored at ``FLOOR * max |xi|``: a cell below the floor is
    evaluated at the floor in its own direction, a cell with xi = 0 at
    (floor, 0).  Returns None for a flat field (max |xi| = 0, or more
    than half of the cells below the floor).  Edge nodes get weight 1.
    """
    gx, gy = forward_gradient(u, h)
    r = np.hypot(gx, gy)
    floor = FLOOR * float(r.max())
    low = r < floor
    if floor == 0.0 or 2 * np.count_nonzero(low) > low.size:
        return None
    angle = np.arctan2(gy[low], gx[low])
    gx[low], gy[low] = floor * np.cos(angle), floor * np.sin(angle)
    modulus = np.hypot(*phi.grad(gx, gy)) / np.maximum(r, floor)
    w = np.ones_like(u)
    w[1:-1, 1:-1] = 0.25 * (modulus[:-1, :-1] + modulus[1:, :-1] + modulus[:-1, 1:] + modulus[1:, 1:])
    return w


def minimize_projected(phi, u0, fixed, h, psi=None, box=False, rel_tol=1e-8):
    """Minimize sum_cells Phi(grad u) h^2 + sum_nodes psi(u) h^2 from ``u0``.

    ``psi`` is a pair of nodewise callables (value, derivative) or None.
    The boolean node mask ``fixed`` holds its nodes at their ``u0``
    values and must cover the box edge; ``box`` clips every node to
    0 <= u <= 1, so fixed values must lie in [0, 1] there.  Rejects
    non-doubling ``phi`` with :class:`NonDoublingError`.  Returns the
    best iterate seen.  A solve with a certificate stops once it is at
    most ``rel_tol`` times |E|; one without stops once the best energy
    drops by less than ``rel_tol`` (relative) over ``WINDOW``
    iterations.  Running past ``MAX_ITER`` raises
    :class:`IterationCapError` with the partial result attached.
    """
    if not phi.is_doubling():
        raise NonDoublingError("the grid-energy solve requires doubling growth")
    fixed = np.asarray(fixed, dtype=bool)
    if not (fixed[[0, -1]].all() and fixed[:, [0, -1]].all()):
        raise ValueError("the fixed nodes must cover the box edge")
    area = h * h
    poisson = _poisson_inverse(fixed)
    evaluations = 0

    def project(u):
        return np.clip(u, 0.0, 1.0) if box else u

    def energy(u):
        nonlocal evaluations
        evaluations += 1
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

    def weighted(w):
        """The metric for node weights w, and their value if constant."""
        if w is None or fixed.all():
            return poisson, None
        wf = w[~fixed]
        if wf.max() - wf.min() <= 1e-12 * wf.max():
            return poisson, float(wf.max())
        d = w**-0.5
        return (lambda v: d * poisson(d * v)), None

    def descend(u, g):
        """(q, direction): q = metric(masked g), zero on the held nodes."""
        if not box:
            q = metric(g)
            return q, q
        # two-metric projection: nodes on a bound whose gradient pushes
        # outwards stay put, and the metric acts on the other nodes alone
        held = ((u <= 0.0) & (g > 0.0)) | ((u >= 1.0) & (g < 0.0))
        q = metric(np.where(held, 0.0, g))
        return q, np.where(held, 0.0, q)

    def bound(u, e, g, q):
        """Raise ``lower``, the bound below min E, by the certificate at u."""
        nonlocal lower
        if box:
            # Frank-Wolfe: the largest <g, u - v> over the box, free nodes only
            gf = np.where(fixed, 0.0, g)
            lower = max(lower, e - float(np.sum(np.maximum(gf * u, gf * (u - 1.0)))))
        elif c is not None and c > 0.0:
            # the Hessian is at least c L, and on the free nodes (L^-1)_ff
            # is at least (L_ff)^-1, so <g, P g> / 2c bounds E(u) - min E
            lower = max(lower, e - 0.5 * float(np.vdot(g, q).real) / c)

    def gap():
        """E(best) - lower, or None before any certificate."""
        return None if lower == -np.inf else max(best[1] - lower, 0.0)

    def first_step(direction):
        return 1.0 / max(float(np.sqrt(np.vdot(direction, direction).real)), 1.0)

    def finish(it, reason, window=0.0):
        e_b, cert = best[1], gap()
        certified = cert is None or cert <= rel_tol * abs(e_b)
        converged = reason in ("gap", "rel_decrease") or (reason == "stationary" and certified)
        rel = cert / max(abs(e_b), 1e-300) if reason == "gap" else window
        return DescentResult(best[0], e_b, it, converged, float(rel), reason, cert, evaluations)

    u = project(np.array(u0, dtype=float, copy=True))
    e = energy(u)
    g = gradient(u)
    w = _secant_weights(phi, u, h)
    cold = w is None
    metric, c = weighted(w)
    q, direction = descend(u, g)
    step = first_step(direction)
    recent = deque([e], maxlen=MEMORY)
    best, lower = (u, e, g, q), -np.inf
    bound(u, e, g, q)
    history = [e]  # the best energy after each iteration
    for it in range(1, MAX_ITER + 1):
        alpha = step
        for _ in range(MAX_BACKTRACKS):
            cand = project(u - alpha * direction)
            decrease = float(np.vdot(g, u - cand).real)
            if decrease <= 0.0:
                return finish(it, "stationary")
            e_cand = energy(cand)
            # nonmonotone Armijo test against the largest recent energy
            if e_cand <= max(recent) - ARMIJO * decrease:
                break
            alpha *= 0.5
        else:
            return finish(it, "linesearch_exhausted")
        g_cand = gradient(cand)
        q_cand, d_cand = descend(cand, g_cand)
        sy = float(np.vdot(cand - u, g_cand - g).real)
        ypy = float(np.vdot(g_cand - g, q_cand - q).real)  # <y, P_w y> from the kept products
        step = sy / ypy if sy > 0.0 and ypy > 0.0 else alpha * 2.0
        # cap growth relative to the accepted step: unbounded BB proposals on
        # degenerate energies would burn the whole backtracking budget
        step = float(np.clip(step, 1e-14, max(1e6 * alpha, 1e-14)))
        u, e, g, q, direction = cand, e_cand, g_cand, q_cand, d_cand
        recent.append(e)
        if e < best[1]:
            best = (u, e, g, q)
        bound(u, e, g, q)
        history.append(best[1])
        scale = max(abs(best[1]), 1e-300)
        window = (history[-WINDOW - 1] - best[1]) / scale if len(history) > WINDOW else np.inf
        if cold:
            cert = gap()
            residual = cert if cert is not None else 0.5 * float(np.vdot(best[2], best[3]).real)
            if min(window, residual / scale) < REWEIGHT_TOL:
                cold = False
                metric, c = weighted(_secant_weights(phi, best[0], h))
                if metric is not poisson:
                    # restart the step memory at the best iterate, in P_w
                    u, e, g = best[:3]
                    q, direction = descend(u, g)
                    step = first_step(direction)
                    recent = deque([e], maxlen=MEMORY)
                    best = (u, e, g, q)
                bound(*best)
        cert = gap()
        if cert is not None:
            if cert <= rel_tol * abs(best[1]):
                return finish(it, "gap")
        elif window < rel_tol:
            return finish(it, "rel_decrease", window)
    result = finish(MAX_ITER, "cap", window)
    raise IterationCapError(f"no convergence within {MAX_ITER} iterations", result)
