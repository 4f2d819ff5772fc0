"""Shared low-level numerics: log-domain arithmetic and monotone root search.

The log-domain helpers work elementwise on numpy arrays as well as on
python floats.  They keep sums and differences of hugely scaled positive
quantities representable: the construction module produces breakpoints
beyond exp(1000), so all structural arithmetic is carried on
(log t, log f(t)) pairs.

:func:`root_increasing` is the one scalar bracket walk and bisection: it
places the construction's breakpoints and inverts 1-D functions in log t.
It stays on bisection on purpose: a different step would move every bit
of the constructed triple.  :func:`bisect_increasing_arrays` closes given
brackets by safeguarded Illinois false position: lane by lane, one lane
per ray of a sublevel set, and with one row and one lane the Luxemburg
norms, whose bracket comes from convexity (:mod:`anisolab.sobolev`).  It
keeps the name, bracket and stop rule of the bisection it replaced, and
evaluates only the rows not yet stopped.
"""

from __future__ import annotations

import numpy as np

MAX_STEPS = 200  # bracket-walk steps, and bracket-closing steps, of each root search
EXP_FLOOR = -700.0  # exp arguments clamped here are absorbed; below -708 exp is slow
ROOT_RTOL = 1e-12  # relative bracket width at which the root searches stop


class RangeError(ValueError):
    """Raised when a value-domain result is not representable in a double."""


class BracketError(RuntimeError):
    """Raised when bracket expansion fails to enclose a sign change."""


def logaddexp_many(*logs):
    """log(sum(exp(l) for l in logs)), elementwise, overflow safe.

    One streaming max-shift pass (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41, 2021): ``shift`` is the elementwise maximum of the
    parts (0 where that is not finite), the shifted exponentials are
    summed into one running array, and the result is ``shift + log(sum)``.
    A shifted exponent is clamped at ``EXP_FLOOR`` before ``exp``, which
    keeps ``exp`` off its slow underflow path: wherever a part is finite
    the maximal one contributes exactly 1, which absorbs every term below
    2**-1009, so the clamp moves no bit.  No stacked copy of the parts is
    made.  All ``-inf`` gives ``-inf``, any ``+inf`` gives ``+inf``, NaN
    gives NaN; scalars give a scalar.
    """
    if len(logs) == 1:
        return logs[0]
    top = np.maximum(logs[0], logs[1])
    for l in logs[2:]:
        top = np.maximum(top, l)
    shift = np.where(np.isfinite(top), top, 0.0)
    total = np.empty_like(shift)
    term = np.empty_like(shift)
    # overflow only where a NaN part left shift at 0
    with np.errstate(over="ignore"):
        for k, l in enumerate(logs):
            part = term if k else total
            np.subtract(l, shift, out=part)
            np.maximum(part, EXP_FLOOR, out=part)
            np.exp(part, out=part)
            if k:
                total += part
    np.log(total, out=total)
    total += shift
    np.copyto(total, -np.inf, where=top == -np.inf)
    return total[()]


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
    with its bits, as do +-inf and +-0.  ``-|x|`` is then raised to
    ``EXP_FLOOR`` for x > 700 (``max(min(x, -x), min(x, EXP_FLOOR))`` is
    still x for x <= 0): there the log1p term is below 2**-1009 either way
    and ``max(x, 0) = x`` absorbs it, so no bit moves and ``exp`` stays off
    its slow underflow path.
    """
    x = np.asarray(x, dtype=float)
    neg = np.minimum(x, -x, out=np.empty_like(x))
    np.maximum(neg, np.minimum(x, EXP_FLOOR), out=neg)
    np.log1p(np.exp(neg, out=neg), out=neg)
    out = np.maximum(x, 0.0, out=np.empty_like(x))
    out += neg
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


def root_increasing(f, start, step, rtol=ROOT_RTOL):
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


def bisect_increasing_arrays(f, lo, hi, rtol=ROOT_RTOL, f_lo=None, f_hi=None):
    """Root of f per lane, on brackets with ``f(lo) < 0 <= f(hi)``, for
    ``(rows, lanes)`` arrays ``lo`` and ``hi`` (1-D: one row).

    ``f(x, rows)`` is nondecreasing in each lane; it gets the rows still
    open as a 2-D array ``x`` and ``rows``, the input row index of each
    row of ``x``.  ``f_lo`` and ``f_hi`` are f at the brackets, evaluated
    here when not given.  Each step is Illinois false position, lane by
    lane: the secant point of the bracket, held at least ``0.4 * rtol *
    max(1, |x|)`` inside each end (so a secant that lands on the root
    closes the bracket on the next step), and the value kept at one end
    halved when the other end is replaced twice running.  A lane takes the
    midpoint instead when the secant point is not finite, when that
    halving has been applied four times running, when its own bracket
    already meets the stop rule, or while its bracket is wider than ``w0 *
    2**(-j / 4)`` after j steps (w0 the row's widest start bracket), which
    bounds any lane at four times the halvings of a bisection.  The name
    stays from the bisection this replaced, whose bracket, stop rule and
    result it keeps.

    Convergence is judged per row: a row stops once every lane's bracket is
    below ``rtol * max(1, |mid|)``; its midpoints go to the result and the
    row leaves the arrays, so f never sees it again.  Every step depends
    only on the lane and its row, so each row ends bit for bit where a solve
    of that row alone would end.  A lane that meets the stop rule before
    its row does keeps stepping: its bits depend on when the row stops.
    """
    shape = np.shape(lo)
    lo = np.array(lo, dtype=float, copy=True).reshape(-1, shape[-1])
    hi = np.array(hi, dtype=float, copy=True).reshape(lo.shape)
    rows = np.arange(lo.shape[0])
    f_lo = np.array(f(lo, rows) if f_lo is None else f_lo, dtype=float, copy=True)
    f_hi = np.array(f(hi, rows) if f_hi is None else f_hi, dtype=float, copy=True)
    f_lo, f_hi = f_lo.reshape(lo.shape), f_hi.reshape(lo.shape)
    out = lo  # stopped rows are written into lo's first buffer, which compaction leaves
    run = np.zeros(lo.shape, dtype=np.int8)  # +k: lo replaced k times running, -k: hi
    w0 = np.max(hi - lo, axis=-1, keepdims=True)
    for j in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        x = hi - lo  # the widths, then the points to evaluate, in one buffer
        secant = x > rtol * np.maximum(1.0, np.abs(mid))  # open lanes
        live = np.any(secant, axis=-1)
        if not np.all(live):
            if not np.any(live) and len(rows) == len(out):
                return mid.reshape(shape)  # every row stops at this step
            out[rows[~live]] = mid[~live]
            if not np.any(live):
                return out.reshape(shape)
            lo, hi, f_lo, f_hi, run, w0, rows, mid, x, secant = (
                a[live] for a in (lo, hi, f_lo, f_hi, run, w0, rows, mid, x, secant)
            )
        secant &= (np.abs(run) <= 4) & (x <= w0 * 2.0 ** (-j / 4))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x /= f_hi - f_lo
            x *= f_hi
        np.subtract(hi, x, out=x)
        secant &= np.isfinite(x)
        # an open lane is wider than twice the gap, so the held point is inside
        gap = (0.4 * rtol) * np.maximum(1.0, np.abs(x))
        np.maximum(x, lo + gap, out=x)
        np.minimum(x, np.subtract(hi, gap, out=gap), out=x)
        np.copyto(x, mid, where=~secant)
        del mid, gap, secant  # f's own temporaries are the memory peak
        fx = f(x, rows)
        below = np.asarray(fx) < 0.0
        above = ~below
        np.copyto(lo, x, where=below)
        np.copyto(f_lo, fx, where=below)
        np.copyto(hi, x, where=above)
        np.copyto(f_hi, fx, where=above)
        del fx
        run = np.where(below, np.maximum(run, 0) + 1, np.minimum(run, 0) - 1).clip(-5, 5)
        np.multiply(f_hi, 0.5, out=f_hi, where=run >= 2)
        np.multiply(f_lo, 0.5, out=f_lo, where=run <= -2)
    out[rows] = 0.5 * (lo + hi)
    return out.reshape(shape)
