"""Projected first-order descent for convex grid energies.

One engine serves every minimization in the package: monotone descent
with Barzilai-Borwein step proposals safeguarded by Armijo backtracking
(so the objective never increases), projection onto box/equality
constraints after every trial step, and a stopping rule on the relative
objective decrease over a trailing window of ``WINDOW`` iterations.
Nonsmooth kinks are handled by the subgradient selection built into the
energy's gradient callback.

A fixed linear metric P (symmetric positive definite on the variables
the projection leaves free) may replace the identity: the direction is
P g, still a descent direction, and the step proposal is the BB quotient
<s, y> / <y, P y> in that metric.  The grid energies descend in the
inverse 5-point Laplacian (:mod:`anisolab.capacity`), which keeps their
iteration counts nearly flat under refinement for growth p >= 2.

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

__all__ = ["DescentResult", "IterationCapError", "minimize_projected"]

ARMIJO = 1e-4
MAX_BACKTRACKS = 60
WINDOW = 50  # iterations of the relative-decrease stopping rule
MAX_ITER = 120_000  # iterations before IterationCapError; no solve comes near it


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


def minimize_projected(energy, gradient, project, u0, rel_tol=1e-8, precond=None):
    """Minimize a convex energy over the projected feasible set.

    ``project`` must be idempotent and is applied to the start point and
    every trial point.  ``precond``, when given, is the fixed linear map
    v -> P v of the descent metric; None means the identity.  Convergence
    is declared when the objective drops by less than ``rel_tol``
    (relative) over ``WINDOW`` iterations; running past ``MAX_ITER``
    raises :class:`IterationCapError` with the partial result attached.
    """
    metric = precond if precond is not None else (lambda v: v)
    u = project(np.array(u0, dtype=float, copy=True))
    e = energy(u)
    g = gradient(u)
    direction = metric(g)
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
        direction = metric(g)
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
