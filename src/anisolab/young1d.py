"""One-dimensional Young functions with log-domain evaluation.

A Young function here is even, convex, vanishes exactly at zero and is
finite; an N-function additionally grows superlinearly at infinity and is
o(t) near zero.  Only the branch t >= 0 is represented; callers fold the
sign.  Every 1-D function of the lab -- the closed forms below,
:class:`PiecewiseYoungFn1D` (an ordered list of pieces split at log-domain
breakpoints, the carrier for the glued competing functions) and
:class:`~anisolab.tables.MonotoneTable` -- follows one protocol, all
methods elementwise-vectorized:

* ``log_value`` / ``log_derivative`` map log t to log f(t) / log f'(t);
  each type writes its own, and ``-inf`` (t = 0) gives ``-inf``, except
  that ``PowerFn`` with p = 1 returns its slope log coef;
* ``value`` / ``derivative`` on plain arguments are written once here,
  as exp of the log form: t < 0 raises ValueError, t = 0 gives 0, a
  scalar gives a float and an array keeps its shape.

Each class binds the shared ``value`` / ``derivative`` in its own body
rather than inheriting them, so tools that wrap methods class by class
(the benchmark's tracer, ``bench/tracer.py``) find all four names in every
class dict.

Breakpoints grow like exp(poly(k)) under the inductive gluing, far past
double range, so every structural computation runs on (log t, log f(t))
pairs; plain values are produced only on demand and overflow is reported
via :class:`~anisolab.numerics.RangeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    RangeError,
    bisect_increasing,
    expand_bracket_increasing,
    log_diff_of_args,
    log_of_tplus1,
    logsubexp,
    safe_exp,
    value_from_log,
)

__all__ = [
    "PowerFn",
    "PowerLogFn",
    "PowerLogBaseFn",
    "PowerExpFn",
    "Piece",
    "PiecewiseYoungFn1D",
    "eval1d",
    "derivative1d",
    "inverse1d",
    "inverse1d_log",
    "check_convex",
    "doubling_indices",
    "is_doubling",
    "nfunction_report",
    "ConvexityReport",
]


def _as_log_args(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("arguments must be >= 0; evenness is folded by the caller")
    with np.errstate(divide="ignore"):
        return np.log(t)


def _scalarize(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _from_log(log_fn, t):
    """exp(log_fn(log t)) for t >= 0, a float for a scalar t."""
    return safe_exp(log_fn(_as_log_args(t)))


def _value_from_log(self, t):
    """f(t) for t >= 0, elementwise; overflow gives +inf."""
    return _from_log(self.log_value, t)


def _derivative_from_log(self, t):
    """f'(t) for t >= 0, elementwise; overflow gives +inf."""
    return _from_log(self.log_derivative, t)


# ---------------------------------------------------------------------------
# closed forms


class PowerFn:
    """coef * t**p, the lower reference curve of the construction."""

    kind = "power"

    def __init__(self, p, coef=1.0):
        if p < 1.0:
            raise ValueError("power exponent must be >= 1")
        if coef <= 0.0:
            raise ValueError("coefficient must be positive")
        self.p = float(p)
        self.coef = float(coef)

    def log_value(self, logt):
        logt = np.asarray(logt, dtype=float)
        return _scalarize(np.log(self.coef) + self.p * logt)

    def log_derivative(self, logt):
        logt = np.asarray(logt, dtype=float)
        if self.p == 1.0:
            out = np.full_like(logt, np.log(self.coef))
        else:
            with np.errstate(invalid="ignore"):
                out = np.log(self.coef * self.p) + (self.p - 1.0) * logt
            out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    value = _value_from_log
    derivative = _derivative_from_log


class PowerLogFn:
    """t**p * log(t+1)**alpha, the upper reference curve of the construction."""

    kind = "powerlog"

    def __init__(self, p, alpha):
        if p < 1.0 or alpha <= 0.0:
            raise ValueError("need p >= 1 and alpha > 0")
        self.p = float(p)
        self.alpha = float(alpha)

    def log_value(self, logt):
        logt = np.asarray(logt, dtype=float)
        lg = log_of_tplus1(logt)  # log(t+1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.p * logt + self.alpha * np.log(lg)
        out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    def log_derivative(self, logt):
        # d/dt [t^p L^a] = p t^{p-1} L^a + a t^p L^{a-1} / (t+1),  L = log(t+1)
        logt = np.asarray(logt, dtype=float)
        lg = log_of_tplus1(logt)
        with np.errstate(divide="ignore", invalid="ignore"):
            loglg = np.log(lg)
            t1 = np.log(self.p) + (self.p - 1.0) * logt + self.alpha * loglg
            t2 = np.log(self.alpha) + self.p * logt + (self.alpha - 1.0) * loglg - lg
            out = np.logaddexp(t1, t2)
        out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    value = _value_from_log
    derivative = _derivative_from_log


class PowerLogBaseFn:
    """t**p * log(base+t)**delta with base > 1 (Trudinger-style factor)."""

    kind = "powerlogbase"

    def __init__(self, p, delta, base):
        if p < 1.0 or base <= 1.0:
            raise ValueError("need p >= 1 and base > 1")
        if p == 1.0 and delta <= 0.0:
            raise ValueError("p == 1 requires delta > 0 for superlinearity")
        self.p = float(p)
        self.delta = float(delta)
        self.base = float(base)

    def _log_logbase(self, logt):
        # log(log(base+t)); log(base+t) = logaddexp(log base, log t)
        lbt = np.logaddexp(np.log(self.base), logt)
        return lbt, np.log(lbt)

    def log_value(self, logt):
        logt = np.asarray(logt, dtype=float)
        _, loglg = self._log_logbase(logt)
        out = self.p * logt + self.delta * loglg
        out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    def log_derivative(self, logt):
        logt = np.asarray(logt, dtype=float)
        lbt, loglg = self._log_logbase(logt)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.log(self.p) + (self.p - 1.0) * logt + self.delta * loglg
            if self.delta == 0.0:
                out = t1
            elif self.delta > 0.0:
                t2 = np.log(self.delta) + self.p * logt + (self.delta - 1.0) * loglg - lbt
                out = np.logaddexp(t1, t2)
            else:
                t2 = np.log(-self.delta) + self.p * logt + (self.delta - 1.0) * loglg - lbt
                out = logsubexp(t1, t2)
        out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    value = _value_from_log
    derivative = _derivative_from_log


class PowerExpFn:
    """coef * t**p * exp(t).  Not doubling; solvers reject it."""

    kind = "powerexp"

    def __init__(self, p, coef=1.0):
        if p < 1.0 or coef <= 0.0:
            raise ValueError("need p >= 1 and coef > 0")
        self.p = float(p)
        self.coef = float(coef)

    def log_value(self, logt):
        logt = np.asarray(logt, dtype=float)
        out = np.log(self.coef) + self.p * logt + safe_exp(logt)
        out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    def log_derivative(self, logt):
        logt = np.asarray(logt, dtype=float)
        t = safe_exp(logt)
        with np.errstate(invalid="ignore"):
            out = np.log(self.coef) + (self.p - 1.0) * logt + np.log(self.p + t) + t
        out = np.where(np.isneginf(logt), -np.inf, out)
        return _scalarize(out)

    value = _value_from_log
    derivative = _derivative_from_log


# ---------------------------------------------------------------------------
# pieces


class _LinearSegment:
    """f_a + slope * (t - t_a) for t >= t_a, held at f_a below the anchor."""

    def __init__(self, log_slope, anchor_logt, anchor_logf):
        self.log_slope = log_slope
        self.anchor_logt = anchor_logt
        self.anchor_logf = anchor_logf

    def log_value(self, logt):
        logt = np.asarray(logt, dtype=float)
        at, af = self.anchor_logt, self.anchor_logf
        with np.errstate(invalid="ignore"):
            out = np.logaddexp(af, self.log_slope + log_diff_of_args(logt, at))
        out = np.where(logt <= at, af, out)
        return _scalarize(out)

    def log_derivative(self, logt):
        return _scalarize(np.full_like(np.asarray(logt, dtype=float), self.log_slope))


# kind -> (log-domain form, its parameter names): Piece builds its form from
# this table and PiecewiseYoungFn1D.from_json_dict reads parameters by name
_PIECE_FORMS = {
    "power": (PowerFn, ("p", "coef")),
    "powerlog": (PowerLogFn, ("p", "alpha")),
    "linear": (_LinearSegment, ("log_slope", "anchor_logt", "anchor_logf")),
}


@dataclass(frozen=True)
class Piece:
    """One segment of a piecewise function, valid on [from_logt, next).

    kind "power"    : coef * t**p
    kind "powerlog" : t**p * log(t+1)**alpha
    kind "linear"   : f_a + slope * (t - t_a), stored as
                      (log_slope, anchor_logt, anchor_logf) so enormous
                      slopes and anchors stay representable.

    The form evaluating the piece is built once, from ``params``.
    """

    kind: str
    params: dict
    form: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _PIECE_FORMS:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        object.__setattr__(self, "form", _PIECE_FORMS[self.kind][0](**self.params))

    def log_value(self, logt):
        return self.form.log_value(logt)

    def log_derivative(self, logt):
        return self.form.log_derivative(logt)

    @staticmethod
    def power(p, coef=1.0):
        return Piece("power", {"p": float(p), "coef": float(coef)})

    @staticmethod
    def powerlog(p, alpha):
        return Piece("powerlog", {"p": float(p), "alpha": float(alpha)})

    @staticmethod
    def linear(log_slope, anchor_logt, anchor_logf):
        return Piece(
            "linear",
            {
                "log_slope": float(log_slope),
                "anchor_logt": float(anchor_logt),
                "anchor_logf": float(anchor_logf),
            },
        )


class PiecewiseYoungFn1D:
    """Piecewise Young function: pieces glued at increasing log breakpoints.

    ``pieces[i]`` is active on [breakpoints[i-1], breakpoints[i]) in log-t,
    with the first piece reaching down to t = 0 and the last continuing to
    infinity.  Construction asserts continuity at every splice (relative
    mismatch <= ctol in log-value).
    """

    CONTINUITY_TOL = 1e-9

    def __init__(self, pieces, breakpoints_logt, trace=None):
        if len(pieces) != len(breakpoints_logt) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        self.pieces = list(pieces)
        self.breakpoints_logt = np.asarray(breakpoints_logt, dtype=float)
        self.trace = dict(trace or {})
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

    def _piece_index(self, logt):
        return np.searchsorted(self.breakpoints_logt, logt, side="right")

    def _dispatch(self, logt, method):
        logt = np.asarray(logt, dtype=float)
        scalar = logt.ndim == 0
        flat = np.atleast_1d(logt).astype(float)
        out = np.empty_like(flat)
        idx = self._piece_index(flat)
        for i, piece in enumerate(self.pieces):
            m = idx == i
            if np.any(m):
                out[m] = getattr(piece, method)(flat[m])
        return float(out[0]) if scalar else out.reshape(logt.shape)

    def log_value(self, logt):
        return self._dispatch(logt, "log_value")

    def log_derivative(self, logt):
        return self._dispatch(logt, "log_derivative")

    value = _value_from_log
    derivative = _derivative_from_log

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        pieces = []
        froms = [None] + [float(b) for b in self.breakpoints_logt]
        for piece, fb in zip(self.pieces, froms):
            d = {"kind": piece.kind, "from_logt": fb}
            d.update(piece.params)
            if piece.kind == "linear":
                # plain slope/intercept only when they fit in a double
                ls = piece.params["log_slope"]
                at = piece.params["anchor_logt"]
                af = piece.params["anchor_logf"]
                if ls < 700.0 and at < 700.0 and af < 700.0:
                    slope = float(np.exp(ls))
                    d["slope"] = slope
                    d["intercept"] = float(np.exp(af) - slope * np.exp(at))
                else:
                    d["slope"] = None
                    d["intercept"] = None
            pieces.append(d)
        return {"pieces": pieces, "trace": self.trace}

    @classmethod
    def from_json_dict(cls, data):
        pieces, breaks = [], []
        for i, pd in enumerate(data["pieces"]):
            # Piece rejects an unknown kind
            _, names = _PIECE_FORMS.get(pd["kind"], (None, ()))
            pieces.append(Piece(pd["kind"], {n: float(pd[n]) for n in names if n in pd}))
            if i > 0:
                breaks.append(pd["from_logt"])
        return cls(pieces, breaks, trace=data.get("trace"))


# ---------------------------------------------------------------------------
# operations


def eval1d(f, t):
    """Evaluate f at t >= 0 in the value domain.

    Raises :class:`RangeError` when the value overflows a double; use
    ``f.log_value`` past that range.
    """
    if np.ndim(t) == 0:
        if t < 0.0:
            raise ValueError("t must be >= 0")
        if t == 0.0:
            return 0.0
        return value_from_log(f.log_value(float(np.log(t))))
    v = f.value(t)
    if np.any(np.isinf(v)):
        raise RangeError("value overflow; evaluate through log_value")
    return v


def derivative1d(f, t):
    """Right-derivative of the active piece at t >= 0."""
    if np.ndim(t) == 0:
        if t < 0.0:
            raise ValueError("t must be >= 0")
        if t == 0.0:
            return 0.0
        return value_from_log(f.log_derivative(float(np.log(t))))
    return f.derivative(t)


def inverse1d(f, y, rtol=1e-12):
    """Monotone inverse by bracketed bisection on the log scale."""
    if y < 0.0:
        raise ValueError("Young functions are nonnegative; y must be >= 0")
    if y == 0.0:
        return 0.0
    return float(np.exp(inverse1d_log(f, float(np.log(y)), rtol=rtol)))


def inverse1d_log(f, logy, rtol=1e-12):
    """log t such that log f(t) = logy, by bisection in log t."""

    def g(logt):
        return f.log_value(logt) - logy

    lo, hi = expand_bracket_increasing(g, 0.0, step=4.0)
    return bisect_increasing(g, lo, hi, rtol=rtol)


@dataclass
class ConvexityReport:
    ok: bool
    worst_logt: float = np.nan
    worst_violation: float = 0.0  # log-slope decrease observed (nats)
    samples: int = 0


def _sample_logts(f, per_piece, span=(-6.0, 6.0)):
    """Log-t sample grid: dense inside each piece plus breakpoint straddles."""
    if isinstance(f, PiecewiseYoungFn1D) and len(f.breakpoints_logt):
        edges = np.concatenate(
            (
                [min(span[0], f.breakpoints_logt[0] - 3.0)],
                f.breakpoints_logt,
                [f.breakpoints_logt[-1] + 3.0],
            )
        )
    else:
        edges = np.array(span, dtype=float)
    chunks = []
    for a, b in zip(edges[:-1], edges[1:]):
        chunks.append(np.linspace(a, b, max(per_piece, 3), endpoint=False))
    chunks.append(edges[-1:])
    return np.unique(np.concatenate(chunks))


def check_convex(f, samples_per_piece=64, rel_slack=1e-8):
    """Convexity via nondecreasing difference quotients of sampled secants.

    Quotients are compared on the log scale, where relative slack in the
    value domain maps to additive slack in nats.
    """
    if samples_per_piece < 3:
        raise ValueError("need at least 3 samples per piece")
    logts = _sample_logts(f, samples_per_piece)
    logfs = f.log_value(logts)
    # log of (f(t_{i+1}) - f(t_i)) / (t_{i+1} - t_i)
    with np.errstate(invalid="ignore"):
        log_slopes = logsubexp(logfs[1:], logfs[:-1]) - logsubexp(logts[1:], logts[:-1])
    good = np.isfinite(log_slopes)
    ls = log_slopes[good]
    pos = logts[1:][good]
    if len(ls) < 2:
        return ConvexityReport(ok=True, samples=len(logts))
    drops = ls[:-1] - ls[1:]  # positive where the slope decreased
    worst = int(np.argmax(drops))
    slack = rel_slack + 64.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ls[:-1]))
    ok = bool(np.all(drops <= slack))
    return ConvexityReport(
        ok=ok,
        worst_logt=float(pos[worst]),
        worst_violation=float(max(drops[worst], 0.0)),
        samples=len(logts),
    )


def doubling_indices(f, log_lo, log_hi, n=512):
    """(i_est, s_est): min/max log-log difference quotients over the range."""
    logts = np.linspace(float(log_lo), float(log_hi), int(n))
    logfs = f.log_value(logts)
    slopes = np.diff(logfs) / np.diff(logts)
    slopes = slopes[np.isfinite(slopes)]
    return float(np.min(slopes)), float(np.max(slopes))


def is_doubling(f, log_lo=1.0, log_hi=40.0, growth_tol=1.10):
    """Heuristic doubling test: s_est must not grow under range extension."""
    _, s1 = doubling_indices(f, log_lo, log_hi)
    _, s2 = doubling_indices(f, log_lo, 2.0 * log_hi)
    return bool(np.isfinite(s2) and s2 <= growth_tol * s1)


def nfunction_report(f, log_lo=-10.0, log_hi=10.0, n=64):
    """Sampled N-function ratios: f(t)/t at both ends of the range."""
    logts = np.linspace(log_lo, log_hi, n)
    ratio_log = f.log_value(logts) - logts
    return {
        "ratio_at_zero": float(safe_exp(ratio_log[0])),
        "ratio_at_infinity": float(safe_exp(ratio_log[-1])),
        "superlinear": bool(ratio_log[-1] > ratio_log[0] + 1.0),
        "vanishing_slope_at_zero": bool(ratio_log[0] < ratio_log[-1] - 1.0),
    }
