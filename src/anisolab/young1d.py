"""One-dimensional Young functions with log-domain evaluation.

A Young function here is even, convex, vanishes exactly at zero and is
finite; an N-function additionally grows superlinearly at infinity and is
o(t) near zero.  Only the branch t >= 0 is represented; callers fold the
sign.  Every 1-D function of the lab -- the four closed forms below,
:class:`LinearPiece`, :class:`PiecewiseYoungFn1D` (an ordered list of
pieces split at log-domain breakpoints, the carrier for the glued
competing functions) and :class:`~anisolab.tables.MonotoneTable` --
follows one protocol, all methods elementwise-vectorized:

* ``log_value`` / ``log_derivative`` map log t to log f(t) / log f'(t);
  ``-inf`` (t = 0) gives ``-inf``, except for the slope log coef of
  ``PowerFn`` with p = 1 and for ``LinearPiece``, which only ever
  continues another piece and keeps its anchor value and slope there;
* ``value`` / ``derivative`` give f and f' at t: t < 0 raises
  ValueError, t = 0 gives 0, overflow gives +inf, a scalar gives a
  float and an array keeps its shape;
* ``value_and_derivative`` gives the pair (``value``, ``derivative``)
  bit for bit from one check and one kernel call, for callers that
  need both on the same points (the 2-D ``value_and_grad``).

Each type writes only its math, as the array kernels ``_log_value`` /
``_log_derivative`` (a float array of log t in, an array of the same
shape out).  The class decorator :func:`_protocol` installs the five
public methods from them into the class's own dict rather than a base
class, so tools that wrap methods class by class (the benchmark's
tracer, ``bench/tracer.py``) find all five names in every class.  The
plain values are exp of the log form, except where a type also writes
a value kernel ``_value_and_derivative`` (a checked float array of t
in, the pair out); the plain three are then installed from it.
:class:`PowerFn` writes one: a single power w = t**(p - 1) gives
coef * (t * w) and coef * p * w, within 2 ulp, where exp(log coef +
p log t) is off by hundreds of ulp at large |p log t|.  Its elements
where w or t * w could overflow or underflow while the scaled result
would not take the log kernels; bounds fixed at construction let one
``t.max()`` per call clear the common case (and, only where coef or
coef * p exceeds 1, a check of the least positive t).  The log-domain
methods, the piecewise dispatch, which calls only the log kernels, and
so the construction keep their bits.  :class:`PowerFn` also gives its
Young conjugate in closed form (``conjugate``); the 2-D types build
Phi* from it for the dual bound that certifies weak solves
(:mod:`anisolab.descent`).

:func:`is_doubling` decides Delta_2 exactly from the tail.  A convex
Young function is doubling iff t f'(t)/f(t) stays bounded
(Krasnosel'skii and Rutickii, Convex Functions and Orlicz Spaces, 1961);
for every type here that ratio is bounded near 0 and on bounded
intervals, so only the growth at infinity decides, and only a tail of
:class:`PowerExpFn` (the last piece, for a piecewise function) fails.

:func:`check_convex` decides convexity exactly, from no samples: a
continuous function convex on each piece is convex iff log f' does not
fall at its joints (Rockafellar, Convex Analysis, 1970, section 24).
The closed forms are convex by their constructors' guards: ``PowerFn``
(p >= 1), ``PowerExpFn`` and ``LinearPiece`` by their form, and
``PowerLogFn`` (p >= 1, alpha > 0) as, with L = log(1 + t),
(1+t)^2 t^(2-p) L^(2-alpha) f'' = p(p-1) L^2 (1+t)^2 + alpha t [2pL(1+t)
+ t(alpha-1-L)] >= alpha t g with g = 2L + t(L-1) > 0 (g(0) = 0, g' =
1/(1+t) + L > 0); ``PowerLogBaseFn`` (delta >= 0) likewise, with M =
log(base + t) >= L for L and base + t for 1 + t.  A piecewise function
is checked at its breakpoints, a :class:`~anisolab.tables.MonotoneTable`
(y_j (t/x_j)**m_j on each segment) at its log-log slopes, which must
start at 1 or more and never fall.  A fall counts only beyond
``ROOT_RTOL * max(1, |log f'|)``, the relative width in log t to which
:func:`~anisolab.numerics.root_increasing` places the breakpoints.

Breakpoints grow like exp(poly(k)) under the inductive gluing, far past
double range, so every structural computation runs on (log t, log f(t))
pairs; plain values are produced only on demand, and one that overflows
a double is +inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ROOT_RTOL, log1p_exp, logsubexp, root_increasing, safe_exp

__all__ = [
    "PowerFn",
    "PowerLogFn",
    "PowerLogBaseFn",
    "PowerExpFn",
    "LinearPiece",
    "PiecewiseYoungFn1D",
    "inverse1d_log",
    "check_convex",
    "is_doubling",
    "ConvexityReport",
]


def _as_args(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("arguments must be >= 0; evenness is folded by the caller")
    return t


def _as_log_args(t):
    with np.errstate(divide="ignore"):
        return np.log(_as_args(t))


def _scalarize(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _protocol(cls):
    """Install ``log_value``, ``log_derivative``, ``value``,
    ``derivative`` and ``value_and_derivative`` in ``cls`` from its
    kernels ``_log_value`` / ``_log_derivative``, the last three from
    ``_value_and_derivative`` where ``cls`` writes that kernel."""

    def log_value(self, logt):
        """log f at log t, elementwise; a scalar gives a float."""
        return _scalarize(self._log_value(np.asarray(logt, dtype=float)))

    def log_derivative(self, logt):
        """log f' at log t, elementwise; a scalar gives a float."""
        return _scalarize(self._log_derivative(np.asarray(logt, dtype=float)))

    def value(self, t):
        """f(t) for t >= 0, elementwise; overflow gives +inf."""
        return safe_exp(self._log_value(_as_log_args(t)))

    def derivative(self, t):
        """f'(t) for t >= 0, elementwise; overflow gives +inf."""
        return safe_exp(self._log_derivative(_as_log_args(t)))

    def value_and_derivative(self, t):
        """(f(t), f'(t)) from one log of t, each bit for bit what
        ``value`` and ``derivative`` give."""
        logt = _as_log_args(t)
        return safe_exp(self._log_value(logt)), safe_exp(self._log_derivative(logt))

    if "_value_and_derivative" in cls.__dict__:

        def value(self, t):
            """f(t) for t >= 0, elementwise; overflow gives +inf."""
            return _scalarize(self._value_and_derivative(_as_args(t))[0])

        def derivative(self, t):
            """f'(t) for t >= 0, elementwise; overflow gives +inf."""
            return _scalarize(self._value_and_derivative(_as_args(t))[1])

        def value_and_derivative(self, t):
            """(f(t), f'(t)) from one kernel call, each bit for bit what
            ``value`` and ``derivative`` give."""
            val, der = self._value_and_derivative(_as_args(t))
            return _scalarize(val), _scalarize(der)

    for fn in (log_value, log_derivative, value, derivative, value_and_derivative):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls


def _field(data, key, path=""):
    """``data[key]`` from a parsed JSON object; a missing key raises
    ValueError naming it after the ``path`` prefix (``"schedule[1]."``),
    and a ``data`` that is no JSON object raises one naming the path
    itself (``top level`` for an empty prefix)."""
    if not isinstance(data, dict):
        where = path.removesuffix(".") or "top level"
        raise ValueError(f"{where}: expected a JSON object, found {type(data).__name__}")
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{path}{key}: missing") from None


# ---------------------------------------------------------------------------
# closed forms; PowerFn, PowerLogFn and LinearPiece are also the pieces of
# PiecewiseYoungFn1D, glued cycle by cycle by construction.build_triple


@_protocol
class PowerFn:
    """coef * t**p, the lower reference curve of the construction."""

    def __init__(self, p, coef=1.0):
        if p < 1.0:
            raise ValueError("power exponent must be >= 1")
        if coef <= 0.0:
            raise ValueError("coefficient must be positive")
        self.p = float(p)
        self.coef = float(coef)
        self._slope = self.coef * self.p
        # The value kernel's range of t: above t_hi, t**(p - 1), t**p or
        # a scaled result could pass 2**1023; below t_lo (0 where no
        # scale exceeds 1 or the intermediate is exact: t * w at p = 1,
        # w at p = 1 or 2) one could drop under 2**-1021 while its
        # scaled result would not.
        top, bottom = np.log(2.0**1023), np.log(2.0**-1021)
        log_hi, log_lo = (top - np.log(max(1.0, self.coef))) / self.p, -np.inf
        if self.p > 1.0:
            log_hi = min(log_hi, (top - np.log(max(1.0, self._slope))) / (self.p - 1.0))
            if self.coef > 1.0:
                log_lo = bottom / self.p
            if self._slope > 1.0 and self.p != 2.0:
                log_lo = max(log_lo, bottom / (self.p - 1.0))
        self._t_hi, self._t_lo = np.exp(log_hi), np.exp(log_lo)

    def _power_pair(self, t):
        w = t ** (self.p - 1.0)
        return self.coef * (t * w), self._slope * w

    def _value_and_derivative(self, t):
        """(coef t**p, coef p t**(p - 1)) from one power w = t**(p - 1),
        as (coef * (t * w), coef * p * w).  Elements outside 0 and
        [t_lo, t_hi] (NaN too) take the log kernels; in the common case
        one ``t.max()`` finds none."""
        hi, lo = self._t_hi, self._t_lo
        if t.max(initial=0.0) <= hi and (
            lo == 0.0 or np.min(t, where=t > 0.0, initial=np.inf) >= lo
        ):
            return self._power_pair(t)
        near = (t <= hi) & ((t >= lo) | (t == 0.0))
        val, der = np.empty_like(t), np.empty_like(t)
        val[near], der[near] = self._power_pair(t[near])
        far = ~near
        logt = np.log(t[far])
        val[far] = safe_exp(self._log_value(logt))
        der[far] = safe_exp(self._log_derivative(logt))
        return val, der

    def _log_value(self, logt):
        return np.log(self.coef) + self.p * logt

    def _log_derivative(self, logt):
        if self.p == 1.0:
            return np.full_like(logt, np.log(self.coef))
        with np.errstate(invalid="ignore"):
            out = np.log(self.coef * self.p) + (self.p - 1.0) * logt
        return np.where(np.isneginf(logt), -np.inf, out)

    def conjugate(self, tau):
        """The Young conjugate sup_t (tau t - coef |t|**p), elementwise:
        (p - 1) coef (|tau| / (coef p))**(p / (p - 1)), and for p = 1 the
        indicator of |tau| <= coef (0 inside, +inf outside)."""
        a = np.abs(np.asarray(tau, dtype=float))
        if self.p == 1.0:
            return _scalarize(np.where(a <= self.coef, 0.0, np.inf))
        q = self.p / (self.p - 1.0)
        with np.errstate(over="ignore"):
            out = (self.p - 1.0) * self.coef * (a / (self.coef * self.p)) ** q
        return _scalarize(out)


@_protocol
class PowerLogFn:
    """t**p * log(t+1)**alpha, the upper reference curve of the construction."""

    def __init__(self, p, alpha):
        if p < 1.0 or alpha <= 0.0:
            raise ValueError("need p >= 1 and alpha > 0")
        self.p = float(p)
        self.alpha = float(alpha)

    def _log_value(self, logt):
        lg = log1p_exp(logt)  # log(t+1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.p * logt + self.alpha * np.log(lg)
        return np.where(np.isneginf(logt), -np.inf, out)

    def _log_derivative(self, logt):
        # d/dt [t^p L^a] = p t^{p-1} L^a + a t^p L^{a-1} / (t+1),  L = log(t+1)
        lg = log1p_exp(logt)
        with np.errstate(divide="ignore", invalid="ignore"):
            loglg = np.log(lg)
            t1 = np.log(self.p) + (self.p - 1.0) * logt + self.alpha * loglg
            t2 = np.log(self.alpha) + self.p * logt + (self.alpha - 1.0) * loglg - lg
            out = np.logaddexp(t1, t2)
        return np.where(np.isneginf(logt), -np.inf, out)


@_protocol
class PowerLogBaseFn:
    """t**p * log(base+t)**delta with base > 1 and delta >= 0
    (Trudinger-style factor); a negative delta need not give a Young
    function."""

    def __init__(self, p, delta, base):
        if p < 1.0 or base <= 1.0:
            raise ValueError("need p >= 1 and base > 1")
        if delta < 0.0:
            raise ValueError(f"delta {delta!r} must be >= 0")
        if p == 1.0 and delta <= 0.0:
            raise ValueError("p == 1 requires delta > 0 for superlinearity")
        self.p = float(p)
        self.delta = float(delta)
        self.base = float(base)

    def _log_logbase(self, logt):
        # log(log(base+t)); log(base+t) = logaddexp(log base, log t)
        lbt = np.logaddexp(np.log(self.base), logt)
        return lbt, np.log(lbt)

    def _log_value(self, logt):
        _, loglg = self._log_logbase(logt)
        out = self.p * logt + self.delta * loglg
        return np.where(np.isneginf(logt), -np.inf, out)

    def _log_derivative(self, logt):
        lbt, loglg = self._log_logbase(logt)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.log(self.p) + (self.p - 1.0) * logt + self.delta * loglg
            if self.delta == 0.0:
                out = t1
            else:
                t2 = np.log(self.delta) + self.p * logt + (self.delta - 1.0) * loglg - lbt
                out = np.logaddexp(t1, t2)
        return np.where(np.isneginf(logt), -np.inf, out)


@_protocol
class PowerExpFn:
    """coef * t**p * exp(t).  Not doubling; solvers reject it."""

    def __init__(self, p, coef=1.0):
        if p < 1.0 or coef <= 0.0:
            raise ValueError("need p >= 1 and coef > 0")
        self.p = float(p)
        self.coef = float(coef)

    def _log_value(self, logt):
        out = np.log(self.coef) + self.p * logt + safe_exp(logt)
        return np.where(np.isneginf(logt), -np.inf, out)

    def _log_derivative(self, logt):
        t = safe_exp(logt)
        with np.errstate(invalid="ignore"):
            out = np.log(self.coef) + (self.p - 1.0) * logt + np.log(self.p + t) + t
        return np.where(np.isneginf(logt), -np.inf, out)


@_protocol
class LinearPiece:
    """f_a + slope * (t - t_a) for t >= t_a, held at f_a below the anchor.

    Stored as (log_slope, anchor_logt, anchor_logf), so enormous slopes
    and anchors stay representable.
    """

    def __init__(self, log_slope, anchor_logt, anchor_logf):
        self.log_slope = float(log_slope)
        self.anchor_logt = float(anchor_logt)
        self.anchor_logf = float(anchor_logf)

    def _log_value(self, logt):
        at, af = self.anchor_logt, self.anchor_logf
        with np.errstate(invalid="ignore"):
            out = np.logaddexp(af, self.log_slope + logsubexp(logt, at))
        return np.where(logt <= at, af, out)

    def _log_derivative(self, logt):
        return np.full_like(logt, self.log_slope)


# ---------------------------------------------------------------------------
# piecewise functions


@_protocol
class PiecewiseYoungFn1D:
    """Piecewise Young function: pieces glued at increasing log breakpoints.

    ``pieces[i]`` (a :class:`PowerFn`, :class:`PowerLogFn` or
    :class:`LinearPiece`) is active on [breakpoints[i-1], breakpoints[i])
    in log-t, with the first piece reaching down to t = 0 and the last
    continuing to infinity.  Construction asserts continuity at every
    splice (relative mismatch <= ctol in log-value).
    """

    CONTINUITY_TOL = 1e-9

    def __init__(self, pieces, breakpoints_logt):
        if len(pieces) != len(breakpoints_logt) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        self.pieces = list(pieces)
        self.breakpoints_logt = np.asarray(breakpoints_logt, dtype=float)
        if len(self.breakpoints_logt) and np.any(np.diff(self.breakpoints_logt) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        self._check_continuity()

    def _check_continuity(self):
        for i, b in enumerate(self.breakpoints_logt):
            left = self.pieces[i].log_value(b)
            right = self.pieces[i + 1].log_value(b)
            scale = max(1.0, abs(left), abs(right))
            if not np.isclose(left, right, rtol=0.0, atol=self.CONTINUITY_TOL * scale):
                raise ValueError(
                    f"discontinuous splice at logt={b:.6g}: {left!r} vs {right!r}"
                )

    def _dispatch(self, logt, kernel):
        """Evaluate each piece's ``kernel`` on the elements it owns.

        The pieces of the least and the greatest element are located
        first (``searchsorted`` with ``side="right"``; NaN is greatest).
        When they are one piece, as for most batches, its kernel runs on
        the whole raveled input, the same C-order buffer a mask gathers;
        an empty input goes to the first piece.  Otherwise the pieces
        are walked in order from the first populated one with threshold
        masks: piece i owns ``flat < bp[i]`` minus the elements of
        earlier pieces, and the last piece owns the rest, NaN included.
        Empty pieces are skipped and the walk stops once every element
        has its piece.
        """
        flat = np.atleast_1d(logt)
        bp = self.breakpoints_logt
        first = last = 0
        if flat.size:
            first = bp.searchsorted(np.fmin.reduce(flat, axis=None), side="right")
            last = bp.searchsorted(np.max(flat), side="right")
        if first == last:
            return getattr(self.pieces[first], kernel)(flat.ravel()).reshape(logt.shape)
        out = np.empty_like(flat)
        left = np.zeros(flat.shape, dtype=bool)
        done = 0
        for i in range(first, len(self.pieces)):
            if i < len(bp):
                upto = flat < bp[i]
                m, left = upto ^ left, upto
            else:
                m = ~left
            n = np.count_nonzero(m)
            if n:
                out[m] = getattr(self.pieces[i], kernel)(flat[m])
                done += n
                if done == flat.size:
                    break
        return out.reshape(logt.shape)

    def _log_value(self, logt):
        return self._dispatch(logt, "_log_value")

    def _log_derivative(self, logt):
        return self._dispatch(logt, "_log_derivative")


# ---------------------------------------------------------------------------
# operations


def inverse1d_log(f, logy):
    """log t such that log f(t) = logy, by bisection in log t."""

    def g(logt):
        return f.log_value(logt) - logy

    return root_increasing(g, 0.0, step=4.0)


@dataclass
class ConvexityReport:
    ok: bool
    worst_logt: float = np.nan  # the joint where log f' falls most
    worst_violation: float = 0.0  # that fall in nats, 0 where log f' never falls


def _joint_report(logt, left, right):
    """Report on log f' going from ``left`` to ``right`` at ``logt``."""
    left = np.asarray(left, dtype=float)
    drop = left - np.asarray(right, dtype=float)
    if not drop.size:
        return ConvexityReport(ok=True)
    worst = int(np.argmax(drop))
    ok = bool(np.all(drop <= ROOT_RTOL * np.maximum(1.0, np.abs(left))))
    return ConvexityReport(ok, float(logt[worst]), float(max(drop[worst], 0.0)))


def check_convex(f):
    """Convexity decided exactly at the joints of ``f`` (see the module
    docstring); a table is read from its ``logx``/``logy``."""
    if isinstance(f, PiecewiseYoungFn1D):
        bad = [rep for rep in map(check_convex, f.pieces) if not rep.ok]
        if bad:
            return bad[0]
        b = f.breakpoints_logt
        left = [piece.log_derivative(x) for piece, x in zip(f.pieces, b)]
        right = [piece.log_derivative(x) for piece, x in zip(f.pieces[1:], b)]
        return _joint_report(b, left, right)
    if hasattr(f, "logx"):
        # log f' = log m_j + log y_j - log x_j right of node j; the slopes
        # rise from 1 (checked at node 0) and never fall
        logm = np.log(np.diff(f.logy) / np.diff(f.logx))
        secant = f.logy[:-1] - f.logx[:-1]
        return _joint_report(f.logx[:-1], secant + np.append(0.0, logm[:-1]), secant + logm)
    return ConvexityReport(ok=True)


def is_doubling(f):
    """Delta_2 from the tail (see the module docstring): False only when
    ``f``, or the last piece of a :class:`PiecewiseYoungFn1D`, is a
    :class:`PowerExpFn`."""
    tail = f.pieces[-1] if isinstance(f, PiecewiseYoungFn1D) else f
    return not isinstance(tail, PowerExpFn)
