"""Sublevel-set geometry: areas by polar ray casting and the radial rearrangement.

Sublevel sets of a convex function vanishing at the origin are convex and
star-shaped about 0, so the boundary is a single radius per angle and the
area is the polar integral (1/2) * integral of rho(theta)^2.  Radii come
from a bracketed root search on log Phi in log r along each ray, which
keeps the machinery exact at levels whose radii overflow doubles; the
search steps by safeguarded false position, so a power function, whose
log Phi is linear in log r, needs one secant step and one closing step.
A profile over many levels is one search with a row of rays per level;
each row stops on its own and leaves the search, so its radii equal
those of a one-level cast bit for bit.

The radial rearrangement maps each level t to the radius s(t) of the disk
with the same sublevel area; the resulting monotone table is the
isotropic function with matching sublevel measures, feeding the Sobolev
conjugate pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aniso2d import constructed_triple_fn
from .numerics import RangeError, bisect_increasing_arrays
from .tables import MonotoneTable
from .young1d import inverse1d_log

__all__ = [
    "LevelSetProfile",
    "ray_radii_log",
    "log_sublevel_area",
    "sublevel_area",
    "phi_circ",
    "verify_levelset_bounds",
    "verify_growth_envelope",
]

LOG_PI = float(np.log(np.pi))
RAY_RTOL = 1e-10  # relative bracket width at which ray_radii_log stops its root search


def ray_radii_log(phi, log_t, n_angles):
    """log rho(theta_i) with Phi(rho * omega) = t, per uniform angle.

    ``log_t`` is one level or a 1-D array of levels; an array gives one row
    of log radii per level, all solved in one root search.  A log level that
    is not finite (t <= 0, inf or nan), or ``n_angles`` below 1, raises
    ValueError naming it.
    """
    if n_angles < 1:
        raise ValueError(f"n_angles {n_angles} must be at least 1")
    log_t = np.asarray(log_t, dtype=float)
    nonfinite = log_t[~np.isfinite(log_t)]
    if nonfinite.size:
        raise ValueError(f"log level {float(nonfinite[0])!r} is not finite: need 0 < t < inf")
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    ux, uy = np.cos(theta), np.sin(theta)
    levels = log_t.reshape(-1)
    every = np.arange(levels.size)

    def f(logr, rows):
        return phi.log_value_dir(ux, uy, logr) - levels[rows, None]

    lo = np.full((levels.size, n_angles), -700.0)
    hi = np.broadcast_to(np.maximum(1.0, levels[:, None]), lo.shape)
    for _ in range(64):
        f_hi = f(hi, every)
        bad = f_hi < 0.0
        if not np.any(bad):
            break
        hi = np.where(bad, hi + 100.0, hi)
    else:
        raise ValueError("ray not bracketed; Phi not coercive along some direction")
    f_lo = f(lo, every)
    if np.any(f_lo > 0.0):
        raise ValueError("level too small to bracket above rho = exp(-700)")
    logr = bisect_increasing_arrays(f, lo, hi, rtol=RAY_RTOL, f_lo=f_lo, f_hi=f_hi)
    return logr[0] if log_t.ndim == 0 else logr


def _log_area(logr):
    """log of (1/2) * sum rho_i^2 * dtheta along the last axis of log
    radii: a float for one row, one value per level for (levels, angles).
    Each row's value is bit for bit the one it gives alone."""
    two = 2.0 * logr
    mx = np.max(two, axis=-1)
    s = mx + np.log(np.sum(np.exp(two - mx[..., None]), axis=-1))
    return s + np.log(np.pi / logr.shape[-1])


def log_sublevel_area(phi, log_t, n_angles=2048):
    """log of the sublevel-set area at level t, angular quadrature refined
    (up to four angle doublings) until the relative change under angle
    doubling falls below 1e-6."""
    area = _log_area(ray_radii_log(phi, log_t, n_angles))
    for _ in range(4):
        n_angles *= 2
        refined = _log_area(ray_radii_log(phi, log_t, n_angles))
        if abs(refined - area) <= 1e-6:
            return refined
        area = refined
    return area


def _log_levels(t_list):
    """log t for each level; a level that is not positive and finite
    raises ValueError naming it as given, before any work is done."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_levels = np.log(np.asarray(t_list, dtype=float))
    for t, log_t in zip(t_list, log_levels.tolist()):
        if not np.isfinite(log_t):
            raise ValueError(
                f"log level {log_t!r} is not finite; level {t:g} must be positive and finite"
            )
    return log_levels


def sublevel_area(phi, t, n_angles=2048):
    """|{Phi <= t}| as a float; RangeError past double range.  A level
    that is not positive and finite raises ValueError naming it."""
    la = log_sublevel_area(phi, float(_log_levels([t])[0]), n_angles)
    if la > 709.0:
        raise RangeError("area exceeds double range; use log_sublevel_area")
    return float(np.exp(la))


@dataclass
class LevelSetProfile:
    log_t: np.ndarray
    log_area: np.ndarray


def level_profile(phi, log_t_grid, n_angles=2048):
    """Log sublevel areas at every level of the grid, from one ray casting."""
    log_t = np.asarray(log_t_grid, dtype=float)
    logr = ray_radii_log(phi, log_t, n_angles)
    return LevelSetProfile(log_t=log_t, log_area=_log_area(logr))


def phi_circ(phi, t_grid, n_angles=2048):
    """Radial rearrangement table: s_j = sqrt(A(t_j)/pi), value t_j.  A
    level that is not positive and finite, or a grid that is not strictly
    increasing, raises ValueError naming the level or the first pair."""
    log_t = _log_levels(t_grid)
    t = np.asarray(t_grid, dtype=float)
    out_of_order = np.flatnonzero(~(t[1:] > t[:-1]))
    if out_of_order.size:
        i = int(out_of_order[0])
        raise ValueError(
            f"levels not strictly increasing: t[{i}] = {t[i]:g} >= t[{i + 1}] = {t[i + 1]:g}"
        )
    prof = level_profile(phi, log_t, n_angles=n_angles)
    if np.any(np.diff(prof.log_area) <= 0.0):
        raise RuntimeError("sublevel areas not strictly increasing")
    log_s = 0.5 * (prof.log_area - LOG_PI)
    return MonotoneTable(log_s, log_t)


def verify_levelset_bounds(build, t_list, n_angles=2048):
    """Sandwich check for the constructed sum at the given levels.

    lower:  (pi/4) * inv_hi(t/3)^2
    upper:  (4p/(p+1)) * hi'(inv_hi(t))^(1/p) * inv_hi(t)^(1/p + 1)

    Everything is compared in logs; the report records both bounds, the
    area, and the tightness ratios.  A level that is not positive and
    finite raises ValueError naming it.
    """
    log_levels = _log_levels(t_list)
    phi2d = constructed_triple_fn(build)
    hi = build.upper
    p = build.p
    prof = level_profile(phi2d, log_levels, n_angles)
    rows = []
    for t, log_t, log_area in zip(t_list, prof.log_t.tolist(), prof.log_area):
        log_tau3 = inverse1d_log(hi, log_t - np.log(3.0))
        log_lower = np.log(np.pi / 4.0) + 2.0 * log_tau3
        log_tau = inverse1d_log(hi, log_t)
        log_upper = (
            np.log(4.0 * p / (p + 1.0))
            + hi.log_derivative(log_tau) / p
            + (1.0 / p + 1.0) * log_tau
        )
        rows.append(
            {
                "t": float(t),
                "log_area": float(log_area),
                "log_lower": float(log_lower),
                "log_upper": float(log_upper),
                "lower_ok": bool(log_lower <= log_area + 1e-9),
                "upper_ok": bool(log_area <= log_upper + 1e-9),
                "lower_slack_nats": float(log_area - log_lower),
                "upper_slack_nats": float(log_upper - log_area),
            }
        )
    return {"ok": all(r["lower_ok"] and r["upper_ok"] for r in rows), "rows": rows}


def _envelope_constant(build, log_t_grid, profile):
    p, a = build.p, build.alpha
    lt = np.asarray(log_t_grid, dtype=float)
    la = profile.log_area
    loglog = np.log(np.log1p(np.exp(lt)))  # log log(t+1), t moderate here
    log_low_model = (2.0 / p) * lt - (2.0 * a / p) * loglog
    log_up_model = (2.0 / p) * lt - (a / p) * loglog
    c_low = float(np.max(log_low_model - la))  # need A >= model / C
    c_up = float(np.max(la - log_up_model))  # need A <= C * model
    return float(np.exp(max(c_low, c_up, 0.0)))


def verify_growth_envelope(build, t_list, n_angles=2048):
    """Smallest C with  model_low/C <= A(t) <= C * model_up  over the list,
    plus the same fit on a doubled log-range for the stability check.  A
    level that is not positive and finite raises ValueError naming it."""
    log_t = _log_levels(t_list)
    phi2d = constructed_triple_fn(build)
    prof = level_profile(phi2d, log_t, n_angles=n_angles)
    c_fit = _envelope_constant(build, log_t, prof)
    log_t2 = np.linspace(log_t[0], 2.0 * log_t[-1] - log_t[0], 2 * len(log_t))
    prof2 = level_profile(phi2d, log_t2, n_angles=n_angles)
    c_fit2 = _envelope_constant(build, log_t2, prof2)
    return {
        "C": c_fit,
        "C_doubled_range": c_fit2,
        "relative_change": abs(c_fit2 - c_fit) / c_fit,
        "stable_within_20pct": bool(abs(c_fit2 - c_fit) <= 0.2 * c_fit),
    }
