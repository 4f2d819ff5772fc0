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
Laplacian on B, the smallest box of interior nodes that holds every
free node, with zero values on B's rim (inverted by products with the
orthonormal DST-I matrices of B's sides; Buzbee, Golub and Nielson
1970), and Z zeroes the fixed nodes, so no step moves them.  Where the
free nodes reach every interior row and column, B is the whole
interior; a condenser whose Omega leaves rows and columns out gets the
Laplacian of Omega's box, which is cheaper to apply and nearer to the
Laplacian of Omega (on the annulus of criterion 7 the solve takes 42
iterations at n = 129, against 59 in the whole box's metric).  The
solve descends in the re-weighted metric P_w = D P D, D =
diag(w^-1/2), where w is, per node, the mean over its four cells of
the secant modulus |grad Phi(xi)| / |xi| (|xi| floored at ``FLOOR``
times its maximum).  P_w is the inverse of a Laplacian with the local
stiffness of Phi, so iteration counts stay nearly flat as the grid is
refined for every growth p, not only p = 2.  Where w is constant on the
free nodes (quadratic Phi) the solve keeps P itself.  The start
supplies the weights, except a flat start (max |xi| = 0, or more than
half of the cells below the floor), which descends in P.  One rule
re-weights every solve, flat or warm, with the box or without: each
time the metric decrement d = 1/2 <g, q> / |E| at the best iterate has
fallen ``DRIFT_DROP``-fold since the last check (d = 1 at the start),
the weights are recomputed at the best iterate.  The solve switches to
them and restarts its step memory there when it had none or when they
drifted (the 90th percentile over the free nodes of |log(w_new / w)|
exceeds ``DRIFT_LOG``).  The first check that finds the weights
holding, or finds weights that give the metric in use (constant ones,
for quadratic Phi), is the last.  Under ``box`` the metric is
two-metric (Bertsekas): the nodes on a bound whose gradient points out
of the box are held, so the metric acts on the other nodes alone.
Without that, a clipped step need not go downhill once some nodes sit
on a bound.

**Search.**  Each iteration makes one metric product q = P_w g (g
masked by the held nodes) and keeps it, so the BB quotient
<s, y> / <y, P_w y> reads its denominator as <y, q_new - q_old>; a
non-positive quotient falls back to twice the accepted step.  A trial
is accepted by the nonmonotone Armijo test of Grippo, Lampariello and
Lucidi: its energy must lie below the largest of the last ``MEMORY``
accepted energies by ``ARMIJO`` times the first-order decrease.  Each
trial point is evaluated once: one forward gradient and one
``phi.value_and_grad`` give its energy and its cells' grad Phi, and the
accepted trial's gradient (and dual bound) reads those cells instead of
evaluating Phi again.  The solve returns the best iterate it has seen,
so the result never lies above the start.

**Certificates.**  At each accepted iterate v a lower bound LB(v) on
min E is taken:

- under ``box``, E(v) minus the Frank-Wolfe gap
  sum_free max(g v, g (v - 1));
- without the box, where the fixed nodes are exactly the box edge and
  Phi offers its conjugate (``phi.conjugate``, a callable, not None),
  the Fenchel dual bound (Ekeland and Temam 1976; Repin 2008)

      LB(v) = sum_cells (sigma . G v - Phi*(sigma)) h^2 + sum psi(v) h^2

  with G the forward gradient and the flux sigma = grad Phi(G v) - G z,
  z = P g in the unweighted metric.  Then G^T sigma = -psi'(v) on the
  free nodes, so the flux is equilibrated and LB(v) <= min E for convex
  psi.  E(v) - LB(v) is the sum over cells of the Fenchel-Young gap
  Phi(G v) + Phi*(sigma) - sigma . G v, which vanishes at the minimizer;
  for quadratic Phi it is <g, P g> / 2c.  A check costs one metric
  product (none when the solve's metric is P itself), one forward
  gradient and one Phi* evaluation;
- otherwise there is none, and the result's ``gap`` is None.

The result's ``gap`` is E(best) minus the largest LB(v) over the
iterates, so E - gap <= min E <= E up to the rounding of the energy
sums; it closes even once the energies sit at that rounding.

**Stop reasons.**  ``gap`` (the certificate is at most ``rel_tol``
times |E|), ``rel_decrease`` (no certificate, that is, a Phi without a
conjugate or fixed nodes beyond the box edge: the best energy fell by
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
DRIFT_DROP = 100.0  # fall of the relative metric decrement between two checks of the weights
DRIFT_LOG = float(np.log(4.0))  # weight drift (90th percentile of |log ratio|) that re-weights
MAX_ITER = 120_000  # iterations before IterationCapError; 20x the slowest test solve


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
    """The descent metric v -> Z L_B^-1 Z v on an n x n grid.

    B is the smallest axis-aligned box of interior nodes that holds every
    node not ``fixed`` (the fixed nodes must include the edge, so B's
    rim is fixed).  L_B is the 5-point stencil (4, -1) on B with zero
    values on its rim, and Z zeroes the fixed nodes, so the map reads and
    writes B's slice only.  The orthonormal DST-I matrices S_a of the
    box's side lengths a (symmetric, S_a @ S_a = I; one matrix when the
    box is square) diagonalize L_B along each axis, so L_B^-1 V =
    S_r (W * (S_r V S_c)) S_c with W = 1 / (lam_i + lam_j): four dense
    matrix products on the box, whose cost falls with the cube of its
    side where the free nodes leave rows or columns of the grid out (a
    condenser's Omega).  Where they reach every interior row and column,
    B is the whole interior.  The map is symmetric positive definite on
    the free nodes, so -P g stays a descent direction.
    """
    rows = np.flatnonzero(~fixed.all(axis=1))
    cols = np.flatnonzero(~fixed.all(axis=0))
    if rows.size == 0:
        return np.zeros_like
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    free = ~fixed[box]
    m_r, m_c = free.shape

    def factors(m):
        k = np.arange(1, m + 1)
        # j k reduced mod 2 (m + 1) keeps the sine's argument within one period
        s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * m + 2)) / (m + 1))
        return s, 4.0 * np.sin(0.5 * np.pi * k / (m + 1)) ** 2

    sr, lam_r = factors(m_r)
    sc, lam_c = (sr, lam_r) if m_c == m_r else factors(m_c)
    weight = 1.0 / (lam_r[:, None] + lam_c[None, :])

    def apply(v):
        out = np.zeros_like(v)
        inner = np.where(free, v[box], 0.0)
        out[box] = free * (sr @ (weight * (sr @ inner @ sc)) @ sc)
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


def _fenchel_sum(conjugate, cells, z, h):
    """sum_cells (sigma . xi - Phi*(sigma)) for the cells' (xi_x, xi_y,
    grad Phi(xi)_x, grad Phi(xi)_y) and the flux sigma = grad Phi(xi) - G z."""
    gx, gy, ax, ay = cells
    zx, zy = forward_gradient(z, h)
    sx, sy = ax - zx, ay - zy
    return float(np.sum(sx * gx + sy * gy - conjugate(sx, sy)))


def _drifted(w, w_new, free):
    """Whether the metric should switch from weights w to ``w_new``:
    True where a flat start (w None) gets its first weights, False for a
    flat field (``w_new`` None) or a zero weight, and otherwise whether
    the 90th percentile over the ``free`` nodes of |log(w_new / w)|
    exceeds ``DRIFT_LOG``.  The percentile is the lower of
    the pair ``np.percentile`` interpolates, the k-th smallest value;
    it exceeds the bound exactly when at most k values lie within it,
    so a count decides without a sort."""
    if w is None or w_new is None:
        return w_new is not None
    a, b = w[free], w_new[free]
    if a.min() <= 0.0 or b.min() <= 0.0:
        return False
    r = np.abs(np.log(b / a))
    k = int(0.9 * (r.size - 1))
    return np.count_nonzero(r <= DRIFT_LOG) <= k


def minimize_projected(phi, u0, fixed, h, psi=None, box=False, rel_tol=1e-8):
    """Minimize sum_cells Phi(grad u) h^2 + sum_nodes psi(u) h^2 from ``u0``.

    ``phi`` offers ``value_and_grad(x, y)`` (its values and gradient on
    the cells, as ``value`` and ``grad`` give them), ``grad`` and
    ``is_doubling``; ``psi`` is a pair of nodewise callables (value,
    derivative) or None.
    The boolean node mask ``fixed`` holds its nodes at their ``u0``
    values and must cover the box edge; ``box`` clips every node to
    0 <= u <= 1, so fixed values must lie in [0, 1] there.  Rejects
    non-doubling ``phi`` with :class:`NonDoublingError`.  Returns the
    best iterate seen.  A solve with a certificate stops once it is at
    most ``rel_tol`` times |E|; one without (see the module docstring)
    stops once the best energy drops by less than ``rel_tol``
    (relative) over ``WINDOW`` iterations.  Running past ``MAX_ITER`` raises
    :class:`IterationCapError` with the partial result attached.
    """
    if not phi.is_doubling():
        raise NonDoublingError("the grid-energy solve requires doubling growth")
    fixed = np.asarray(fixed, dtype=bool)
    if not (fixed[[0, -1]].all() and fixed[:, [0, -1]].all()):
        raise ValueError("the fixed nodes must cover the box edge")
    area = h * h
    poisson = _poisson_inverse(fixed)
    free = ~fixed
    # the dual bound's flux is equilibrated only where P inverts L on the free nodes
    edge_only = free[1:-1, 1:-1].all()
    conjugate = getattr(phi, "conjugate", None) if edge_only and not box else None
    evaluations = 0

    def project(u):
        return np.clip(u, 0.0, 1.0) if box else u

    def evaluate(u):
        """E(u) and the cells' (G u, grad Phi(G u)), from one Phi evaluation."""
        nonlocal evaluations
        evaluations += 1
        gx, gy = forward_gradient(u, h)
        value, ax, ay = phi.value_and_grad(gx, gy)
        e = float(np.sum(value))
        if psi is not None:
            e += float(np.sum(psi[0](u)))
        return e * area, (gx, gy, ax, ay)

    def gradient(u, cells):
        """g at u from the cells :func:`evaluate` gave for u, and those
        cells where the dual bound reads them (None elsewhere, so that
        they are freed before the metric product)."""
        g = -divergence_of(cells[2], cells[3], h, u.shape[0])
        if psi is not None:
            g = g + psi[1](u)
        return g * area, (cells if conjugate is not None else None)

    def weighted(w):
        """The metric for node weights w: P itself where w is constant."""
        if w is None or fixed.all():
            return poisson
        wf = w[free]
        if wf.max() - wf.min() <= 1e-12 * wf.max():
            return poisson
        d = w**-0.5
        return lambda v: d * poisson(d * v)

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

    def bound(u, e, g, q, cells):
        """Raise ``lower``, the bound below min E, by the certificate at u."""
        nonlocal lower
        if box:
            # Frank-Wolfe: the largest <g, u - v> over the box, free nodes only
            gf = np.where(fixed, 0.0, g)
            lower = max(lower, e - float(np.sum(np.maximum(gf * u, gf * (u - 1.0)))))
        elif cells is not None:
            # G^T G z = g / h^2 on the free nodes, so the flux
            # sigma = grad Phi(G u) - G z has G^T sigma = -psi'(u) there
            lb = _fenchel_sum(conjugate, cells, q if metric is poisson else poisson(g), h)
            if psi is not None:
                lb += float(np.sum(psi[0](u)))
            lower = max(lower, lb * area)

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
    e, cells = evaluate(u)
    g, cells = gradient(u, cells)
    w = _secant_weights(phi, u, h)
    metric = weighted(w)
    q, direction = descend(u, g)
    step = first_step(direction)
    recent = deque([e], maxlen=MEMORY)
    best, lower = (u, e, g, q), -np.inf
    bound(u, e, g, q, cells)
    checked = 1.0  # the metric decrement at the last check of the weights, 0 once they hold
    history = [e]  # the best energy after each iteration
    for it in range(1, MAX_ITER + 1):
        alpha = step
        for _ in range(MAX_BACKTRACKS):
            cand = project(u - alpha * direction)
            decrease = float(np.vdot(g, u - cand).real)
            if decrease <= 0.0:
                return finish(it, "stationary")
            e_cand, cells = evaluate(cand)
            # nonmonotone Armijo test against the largest recent energy
            if e_cand <= max(recent) - ARMIJO * decrease:
                break
            alpha *= 0.5
        else:
            return finish(it, "linesearch_exhausted")
        g_cand, cells = gradient(cand, cells)
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
        bound(u, e, g, q, cells)
        history.append(best[1])
        scale = max(abs(best[1]), 1e-300)
        window = (history[-WINDOW - 1] - best[1]) / scale if len(history) > WINDOW else np.inf
        cert = gap()
        if cert is not None:
            if cert <= rel_tol * abs(best[1]):
                return finish(it, "gap")
        elif window < rel_tol:
            return finish(it, "rel_decrease", window)
        new = metric
        d = 0.5 * float(np.vdot(best[2], best[3]).real) / scale  # the relative metric decrement
        if checked and d <= checked / DRIFT_DROP:
            w_new = _secant_weights(phi, best[0], h)
            if _drifted(w, w_new, free):
                checked, w, new = d, w_new, weighted(w_new)
            if new is metric:
                checked = 0.0  # the weights hold, or give this metric: no further checks
        if new is not metric:
            # restart the step memory at the best iterate, in the new metric
            metric = new
            u, e, g = best[:3]
            q, direction = descend(u, g)
            step = first_step(direction)
            recent = deque([e], maxlen=MEMORY)
            best = (u, e, g, q)
    result = finish(MAX_ITER, "cap", window)
    raise IterationCapError(f"no convergence within {MAX_ITER} iterations", result)
