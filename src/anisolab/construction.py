"""Inductive construction of three competing piecewise Young functions.

Two reference curves drive everything: a lower power curve
``lo(t) = t**p`` and an upper curve ``hi(t) = t**p * log(t+1)**alpha``.
Three functions start as (lo, lo, hi) and, cycle by cycle, trade places:
the current top function descends to the lower curve along a tangent
line while one of the bottom two climbs that same line up to the upper
curve.  Between maneuvers the top function runs far ahead of the other
two, and the schedule of breakpoints is chosen so that, at the end of
cycle k, the leader exceeds k times the sum of the other two evaluated
at k-fold arguments.  Those per-cycle margins are the incomparability
certificates: they grow without bound, so no pair of constants can make
the sum of two functions dominate the third.

Feasibility notes baked into the code (both are properties of the two
reference curves, not implementation choices):

* ``hi < lo`` on (0, e-1), so a tangent from (t, lo(t)) to the upper
  graph exists only once t >= e-1; maneuvers therefore launch from
  ``max(t_k, 2)``.  The very first cycle starts its tangent at 2 even
  though the schedule origin stays at t_0 = 1.
* for p == 1 the descent line never re-meets the lower curve (its slope
  exceeds 1 everywhere); :func:`build_triple` rejects p == 1 with one or
  more cycles as a ValueError naming ``p`` before the first cycle.

All schedule arithmetic is in log coordinates; breakpoints reach
exp(1000) within a handful of cycles.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .numerics import BracketError, logsubexp, root_increasing
from .young1d import LinearPiece, PiecewiseYoungFn1D, PowerFn, PowerLogFn, _field

__all__ = [
    "ConstructionError",
    "CertificateError",
    "CycleRecord",
    "TripleBuild",
    "tangent_point",
    "next_breakpoint",
    "build_triple",
    "incomparability_certificate",
    "certificate_margin",
    "envelope_report",
    "schedule_order_violation",
]

MANEUVER_MIN_LOGT = float(np.log(2.0))  # tangent feasibility needs t > e-1
LOG_GRID_STEP = 2.0**-10  # breakpoints snap up to this log grid
MAX_CYCLES = 12
ENVELOPE_SAMPLES = 1000  # log-spaced samples of envelope_report
ENVELOPE_LOGT_LO = -3.0  # envelope_report's lowest log t


class ConstructionError(RuntimeError):
    def __init__(self, message, cycle=None):
        super().__init__(message if cycle is None else f"cycle {cycle}: {message}")
        self.cycle = cycle


class CertificateError(AssertionError):
    """A constructed certificate margin came out negative."""


def _snap_up(logt):
    return float(np.ceil(logt / LOG_GRID_STEP) * LOG_GRID_STEP)


@dataclass
class CycleRecord:
    k: int
    logt: float  # cycle start t_k
    logtau: float  # maneuver launch point (== logt except possibly k = 0)
    logh: float  # tangency point
    logs: float  # line re-meets the lower curve
    logt_next: float
    heavy_index: int  # stored index (0-based) on the upper curve at t_{k+1}
    permutation: tuple  # stored indices playing (role1, role2, role3)
    log_margin: float


def _check_params(p, alpha, cycles):
    """Raise ValueError naming ``p``, ``alpha`` or ``cycles`` unless p is a
    finite number >= 1 (> 1 once cycles >= 1), alpha a finite number > 0
    and cycles an integer in [0, ``MAX_CYCLES``]."""
    for name, value in (("p", p), ("alpha", alpha)):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
            raise ValueError(f"{name}: {value!r} is not a finite number")
    if p < 1.0:
        raise ValueError(f"p: {p!r} is below 1")
    if alpha <= 0.0:
        raise ValueError(f"alpha: {alpha!r} is not positive")
    if isinstance(cycles, bool) or not isinstance(cycles, numbers.Integral):
        raise ValueError(f"cycles: {cycles!r} is not an integer")
    if not 0 <= cycles <= MAX_CYCLES:
        raise ValueError(f"cycles: {cycles!r} lies outside [0, {MAX_CYCLES}]")
    if p == 1.0 and cycles >= 1:
        raise ValueError(f"p: {p!r} makes a descent line that never re-meets the lower curve")


@dataclass
class TripleBuild:
    """The three functions of :func:`build_triple`, its only producer, with
    the schedule and the two reference curves they are glued from."""

    p: float
    alpha: float
    cycles: int
    schedule: list
    lower: PowerFn
    upper: PowerLogFn
    phi: tuple

    def to_json_dict(self):
        return {
            "p": self.p,
            "alpha": self.alpha,
            "cycles": self.cycles,
            "schedule": [asdict(r) for r in self.schedule],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of :meth:`to_json_dict`: the build of the stored ``p``,
        ``alpha`` and ``cycles``.

        Every stored record field must equal the fresh build's exactly
        (JSON floats round-trip through ``repr``); a missing or differing
        field raises ValueError naming it.  The stored values are only
        checked, and a ``phi`` key, which older files carry, is ignored.
        """
        p, alpha, cycles = (_field(data, name) for name in ("p", "alpha", "cycles"))
        stored = _field(data, "schedule")
        if not isinstance(stored, list):
            raise ValueError(f"schedule: expected a JSON array, found {type(stored).__name__}")
        build = build_triple(p, alpha, cycles)
        if len(stored) != cycles:
            raise ValueError(f"cycles: {cycles!r}, but the schedule has {len(stored)} records")
        for i, (r, rec) in enumerate(zip(stored, build.schedule)):
            for f in fields(CycleRecord):
                value = _field(r, f.name, f"schedule[{i}].")
                built = getattr(rec, f.name)
                if (tuple(value) if isinstance(value, list) else value) != built:
                    raise ValueError(
                        f"schedule[{i}].{f.name}: {value!r} differs from the construction's {built!r}"
                    )
        return build

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))

    def schedule_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(
                ["k", "logt_k", "logh_k", "logs_k", "logt_next", "heavy_index", "log_margin"]
            )
            for r in self.schedule:
                w.writerow(
                    [
                        r.k,
                        repr(r.logt),
                        repr(r.logh),
                        repr(r.logs),
                        repr(r.logt_next),
                        r.heavy_index + 1,
                        repr(r.log_margin),
                    ]
                )


# ---------------------------------------------------------------------------
# schedule steps


def schedule_order_violation(schedule):
    """Where a schedule breaks its chained order, or None if it keeps it.

    Each record must have logt <= logtau < logh < logs < logt_next, and
    each record's logt_next must equal the next record's logt.  The first
    break is returned as a message naming the offending field.
    """
    for i, r in enumerate(schedule):
        steps = (
            ("logtau", r.logt <= r.logtau),
            ("logh", r.logtau < r.logh),
            ("logs", r.logh < r.logs),
            ("logt_next", r.logs < r.logt_next),
        )
        for name, ok in steps:
            if not ok:
                return (
                    f"schedule[{i}].{name}: {getattr(r, name)!r} breaks "
                    "logt <= logtau < logh < logs < logt_next"
                )
        if i + 1 < len(schedule) and schedule[i + 1].logt != r.logt_next:
            return (
                f"schedule[{i + 1}].logt: {schedule[i + 1].logt!r} differs from "
                f"schedule[{i}].logt_next {r.logt_next!r}"
            )
    return None


def tangent_point(logt_k, p, alpha):
    """Tangency point h and the tangent-line piece launched from (t_k, lo(t_k)).

    Solves hi(h) - hi'(h) (h - t_k) = lo(t_k) for h > t_k, a strictly
    decreasing left side, by monotone bracket expansion in log h and
    bisection.  Requires lo(t_k) <= hi(t_k); otherwise no tangent from the
    launch point exists and a :class:`ConstructionError` is raised.

    Returns ``(logh, line)`` with ``line`` a :class:`LinearPiece` anchored
    at the launch point whose slope is hi'(h).
    """
    lower = PowerFn(p)
    upper = PowerLogFn(p, alpha)
    target = lower.log_value(logt_k)
    if upper.log_value(logt_k) < target:
        raise ConstructionError(
            f"tangent infeasible at logt={logt_k:.6g}: upper curve below lower"
        )

    def gap(logh):
        # log[hi'(h) (h - t_k) + lo(t_k)] - log hi(h); increasing in logh
        spent = np.logaddexp(
            upper.log_derivative(logh) + logsubexp(logh, logt_k), target
        )
        return spent - upper.log_value(logh)

    try:
        logh = root_increasing(gap, logt_k + 1e-9, step=0.5)
    except BracketError as exc:
        raise ConstructionError(f"tangent bracket not found: {exc}") from exc
    line = LinearPiece(
        log_slope=upper.log_derivative(logh),
        anchor_logt=logt_k,
        anchor_logf=target,
    )
    return logh, line


def _line_meets_lower(line, p, logh):
    """First s > h with line(s) = lo(s); the line sits above lo on (t_k, s)."""
    lower = PowerFn(p)

    def gap(logs):
        return lower.log_value(logs) - line.log_value(logs)

    try:
        return root_increasing(gap, logh + 1e-9, step=0.5)
    except BracketError as exc:
        raise ConstructionError(
            f"descent line never re-meets the lower curve: {exc}"
        ) from exc


def next_breakpoint(logs_k, k, p, alpha):
    """First breakpoint after cycle k, snapped up to the log grid.

    The growth condition is log(t+1)**alpha >= 2 (k+1) k**(p+1); the
    2(k+1) factor over the minimal k**(p+1) needed for a bare certificate
    makes every margin equal log(k+1) when the condition binds, hence
    positive and strictly increasing in k.
    """
    floor_logt = max(np.log(k + 1.0), logs_k + LOG_GRID_STEP)
    if k > 0:
        rhs = 2.0 * (k + 1.0) * float(k) ** (p + 1.0)
        log_tp1 = rhs ** (1.0 / alpha)  # log(t+1) >= this
        # log t from log(t+1): t = exp(R) - 1
        growth_logt = log_tp1 + float(np.log1p(-np.exp(-log_tp1)))
        floor_logt = max(floor_logt, growth_logt)
    return _snap_up(floor_logt)


def _roles_for(heavy):
    """Stored indices playing (role1, role2, role3): the last cycle's heavy
    index leads, and the index before it (mod 3) climbs."""
    return ((heavy + 1) % 3, (heavy + 2) % 3, heavy)


def build_triple(p, alpha, cycles):
    """Run the inductive construction for the given number of cycles.

    Each cycle computes its schedule record, with its certificate margin,
    and glues its tangent line into the climber, which rides it from tau
    up to h, and the leader, which rides it from h down to s.  Root-finding
    failures and a schedule that loses its chained order surface as
    :class:`ConstructionError` carrying the cycle index.
    """
    _check_params(p, alpha, cycles)
    lower = PowerFn(p)
    upper = PowerLogFn(p, alpha)
    pieces = [[lower], [lower], [upper]]
    breaks = [[], [], []]
    heavy = 2
    logt = 0.0  # t_0 = 1
    schedule = []
    for k in range(cycles):
        roles = _roles_for(heavy)
        _, climber, leader = roles
        logtau = max(logt, MANEUVER_MIN_LOGT)
        try:
            logh, line = tangent_point(logtau, p, alpha)
            logs = _line_meets_lower(line, p, logh)
        except ConstructionError as exc:
            raise ConstructionError(str(exc), cycle=k) from exc
        logt_next = next_breakpoint(logs, k, p, alpha)
        schedule.append(
            CycleRecord(
                k=k,
                logt=logt,
                logtau=logtau,
                logh=logh,
                logs=logs,
                logt_next=logt_next,
                heavy_index=climber,
                permutation=roles,
                log_margin=certificate_margin(upper, lower, lower, k, logt_next),
            )
        )
        # for p just above 1 the s root lands so far out (log s ~ 3e13 in
        # cycle 1 at p = 1 + 1e-12) that logt_next rounds onto it; this
        # check stops the build there
        violation = schedule_order_violation(schedule)
        if violation is not None:
            raise ConstructionError(violation, cycle=k)
        breaks[climber] += [logtau, logh]
        pieces[climber] += [line, upper]
        breaks[leader] += [logh, logs]
        pieces[leader] += [line, lower]
        heavy = climber
        logt = logt_next
    phi = tuple(PiecewiseYoungFn1D(pieces[i], breaks[i]) for i in range(3))
    return TripleBuild(p, alpha, cycles, schedule, lower, upper, phi)


# ---------------------------------------------------------------------------
# certificates


def certificate_margin(heavy_fn, light_a, light_b, k, logt_next):
    """Log margin of  heavy(t_{k+1}) >= k [light_a + light_b](k t_{k+1}).

    The lights are evaluated as the cycle leaves them: on the lower curve,
    extended past t_{k+1} by the same formula.  k = 0 has an empty right
    side and gets margin +inf.
    """
    lhs = heavy_fn.log_value(logt_next)
    if k == 0:
        return float(np.inf)
    logk = float(np.log(k))
    arg = logk + logt_next
    rhs = logk + np.logaddexp(light_a.log_value(arg), light_b.log_value(arg))
    return float(lhs - rhs)


def incomparability_certificate(build):
    """Per-cycle schedule records for a finished build, from cycle 1 on,
    each with its certificate margin recomputed from the reference curves.

    With at least three cycles every stored index holds the leading
    position somewhere, so all six pairwise domination directions are
    blocked by some certificate.  A negative margin indicates a
    construction bug and raises :class:`CertificateError`.
    """
    if build.cycles < 3:
        raise ValueError("need K >= 3 so each index leads at least once")
    records = []
    for rec in build.schedule[1:]:
        margin = certificate_margin(build.upper, build.lower, build.lower, rec.k, rec.logt_next)
        if margin < 0.0:
            raise CertificateError(
                f"certificate violated at cycle {rec.k}: margin {margin:.3g}"
            )
        records.append(replace(rec, log_margin=margin))
    return records


def envelope_report(build):
    """Check min/max of the triple against the two reference envelopes on
    ``ENVELOPE_SAMPLES`` points from log t = ``ENVELOPE_LOGT_LO`` to 2
    past the last breakpoint.

    The reference curves cross at t = e-1 (below it the upper curve runs
    under the power curve), so the envelopes are the pointwise min and max
    of the two reference formulas.  Beyond the crossing this is exactly
    "min is the power curve, max is the log-weighted curve".
    """
    logt_hi = build.schedule[-1].logt_next + 2.0 if build.schedule else 6.0
    logts = np.linspace(ENVELOPE_LOGT_LO, logt_hi, ENVELOPE_SAMPLES)
    vals = np.stack([f.log_value(logts) for f in build.phi])
    tri_min, tri_max = vals.min(axis=0), vals.max(axis=0)
    ref_lo = build.lower.log_value(logts)
    ref_hi = build.upper.log_value(logts)
    env_min = np.minimum(ref_lo, ref_hi)
    env_max = np.maximum(ref_lo, ref_hi)
    tol = 1e-9
    min_err = float(np.max(np.abs(tri_min - env_min)))
    max_err = float(np.max(np.abs(tri_max - env_max)))
    inside = bool(
        np.all(vals >= env_min[None, :] - tol) and np.all(vals <= env_max[None, :] + tol)
    )
    return {
        "min_matches_lower_envelope": min_err <= tol,
        "max_matches_upper_envelope": max_err <= tol,
        "all_between_envelopes": inside,
        "min_log_error": min_err,
        "max_log_error": max_err,
        "samples": ENVELOPE_SAMPLES,
    }
