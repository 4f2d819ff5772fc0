"""Shared low-level numerics: log-domain arithmetic and monotone root search.

The log-domain helpers work elementwise on numpy arrays as well as on
python floats.  They keep sums and differences of hugely scaled positive
quantities representable: the construction module produces breakpoints
beyond exp(1000), so all structural arithmetic is carried on
(log t, log f(t)) pairs.

:func:`root_increasing` is the one scalar bracket walk and bisection: it
places the construction's breakpoints, inverts 1-D functions in log t and
finds Luxemburg norms in log lambda.  :func:`bisect_increasing_arrays`
bisects given brackets lane by lane, one lane per ray of a sublevel set.
"""

from __future__ import annotations

import numpy as np

MAX_STEPS = 200  # bracket-walk steps, and halvings, of each root search


class RangeError(ValueError):
    """Raised when a value-domain result is not representable in a double."""


class BracketError(RuntimeError):
    """Raised when bracket expansion fails to enclose a sign change."""


def logaddexp_many(*logs):
    """log(sum(exp(l) for l in logs)), elementwise, overflow safe.

    One streaming max-shift pass: ``shift`` is the elementwise maximum of
    the parts (0 where that is not finite), the shifted exponentials are
    summed into one running array, and the result is ``shift + log(sum)``.
    No stacked copy of the parts is made.  All ``-inf`` gives ``-inf``,
    any ``+inf`` gives ``+inf``, NaN gives NaN; scalars give a scalar.
    """
    if len(logs) == 1:
        return logs[0]
    top = np.maximum(logs[0], logs[1])
    for l in logs[2:]:
        top = np.maximum(top, l)
    shift = np.where(np.isfinite(top), top, 0.0)
    # overflow only where a NaN part left shift at 0; log(0) is all -inf
    with np.errstate(over="ignore", divide="ignore"):
        total = np.exp(logs[0] - shift)
        for l in logs[1:]:
            total += np.exp(l - shift)
        return shift + np.log(total)


def logsubexp(la, lb):
    """log(exp(la) - exp(lb)) for la >= lb, elementwise.

    Returns -inf where the operands coincide to rounding.
    """
    la = np.asarray(la, dtype=float)
    lb = np.asarray(lb, dtype=float)
    diff = lb - la
    with np.errstate(divide="ignore", invalid="ignore"):
        out = la + np.log1p(-np.exp(diff))
    out = np.where(diff >= 0.0, -np.inf, out)
    if out.ndim == 0:
        return float(out)
    return out


def log1p_exp(x):
    """log(1 + exp(x)) without overflow (elementwise).

    One expression for both signs, ``max(x, 0) + log1p(exp(-|x|))``,
    rather than a select that evaluates two branches.  ``-|x|`` is taken
    as ``minimum(x, -x)``, which returns x's own NaN, so a NaN comes back
    with its bits, as do +-inf and +-0.
    """
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(np.minimum(x, -x)))
    if out.ndim == 0:
        return float(out)
    return out


def safe_exp(logv):
    """exp(logv) mapping overflow to +inf rather than raising."""
    logv = np.asarray(logv, dtype=float)
    with np.errstate(over="ignore"):
        out = np.exp(logv)
    if out.ndim == 0:
        return float(out)
    return out


def root_increasing(f, start, step, rtol=1e-12):
    """Root of a nondecreasing scalar function, searched from ``start``.

    Walks right (where ``f(start) < 0``) or left in steps doubling from
    ``step`` until a sign change is enclosed, then bisects until the
    bracket width falls below ``rtol * max(1, |mid|)``.  An exact root at
    ``start`` is returned as is; a walk of ``MAX_STEPS`` steps that finds
    no sign change raises :class:`BracketError`.
    """
    f0 = f(start)
    if f0 == 0.0:
        return start
    right = f0 < 0.0
    lo = hi = start
    for _ in range(MAX_STEPS):
        if right:
            lo, hi = hi, hi + step
            if f(hi) >= 0.0:
                break
        else:
            lo, hi = lo - step, lo
            if f(lo) <= 0.0:
                break
        step *= 2.0
    else:
        side = "right" if right else "left"
        raise BracketError(f"no sign change walking {side} from {start!r}")
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * max(1.0, abs(mid)):
            return mid
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_increasing_arrays(f, lo, hi, rtol=1e-12):
    """Vectorized bisection: f maps arrays to arrays, nondecreasing per lane.

    Convergence is judged per row along the last axis: a row stops once
    every lane's bracket is below ``rtol * max(1, |mid|)``.  A stopped row
    is frozen at its midpoint (``lo = hi = mid``, and ``0.5 * (mid + mid)``
    is exactly ``mid``), so each row ends bit for bit where a bisection of
    that row alone would end; f still sees the full array.  A 1-D input is
    one row.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        done = np.all(width <= rtol * np.maximum(1.0, np.abs(mid)), axis=-1, keepdims=True)
        if np.all(done):
            return mid
        lo = np.where(done, mid, lo)
        hi = np.where(done, mid, hi)
        fm = f(mid)
        take_lo = fm < 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)
