"""Sobolev conjugation pipeline and Luxemburg norms.

From the radial rearrangement table the pipeline builds, in the plane
(n = ``DIM`` = 2),

    H(t) = ( int_0^t (tau / table(tau))^(1/(n-1)) dtau )^((n-1)/n)

exactly on the table's own nodes: the table is a power between nodes and
below the first one, so each segment and the head integrate in closed
form.  It classifies tail growth from the integrand's log-log slope and
composes the Sobolev conjugate as table o H^{-1} on the same nodes
(realized by re-indexing the table against H, no explicit inversion).
When the head integral diverges the table is spliced below its first
node with a continuously matched tau^{3/2} piece, the simplest
superlinear power that keeps the n = 2 head convergent; the splice
changes nothing above the first node.

Luxemburg norms are the usual infimum over lambda of a unit modular
M(lambda) = modular(U / lambda).  In s = log lambda the norm is the root of
f(s) = -log M(e^s), with the modular summed in the log domain
(:func:`log_modular_vector`), so f is finite at every s for U != 0.  For
convex Phi with Phi(0) = 0, Phi(t xi) >= t Phi(xi) for t >= 1, so
f(s + tau) >= f(s) + tau for tau >= 0 (Rao and Ren, Theory of Orlicz
Spaces, 1991): one value f0 at s0 = log max |U| puts the root between s0
and s0 - f0, and the far end s0 - f0 +- log 2 has |f| >= log 2 with the
sign a bracket needs.  log M is nearly linear in s, so the bracket is
closed by the Illinois false position of
:func:`~anisolab.numerics.bisect_increasing_arrays` in a few steps; its
stop rule, a width of ``LUXEMBURG_RTOL * max(1, |s|)``, is the one the
bisection it replaced used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfield import forward_gradient
from .numerics import bisect_increasing_arrays
from .tables import MonotoneTable

__all__ = [
    "GrowthClass",
    "ClassificationError",
    "SobolevProfile",
    "build_H",
    "sobolev_conjugate",
    "classify_growth",
    "build_profile",
    "log_modular_vector",
    "luxemburg_norm_vector",
    "luxemburg_norm_gradient",
]

DIM = 2  # the plane
SPLICE_EXPONENT = 1.5  # head splice tau^{3/2}: superlinear, head-convergent for n = 2
# classify_growth fits the last TAIL_FRACTION of the table's log range; a
# slope within GROWTH_MARGIN of -1 is inconclusive
TAIL_FRACTION = 0.3
GROWTH_MARGIN = 0.05
LUXEMBURG_RTOL = 1e-8  # bracket width, in log lambda, of the Luxemburg-norm search


class ClassificationError(RuntimeError):
    """Sobolev conjugate requested for a fast-growing profile."""


@dataclass
class GrowthClass:
    label: str  # "slow" | "fast" | "inconclusive"
    tail_slope: float


@dataclass
class SobolevProfile:
    phicirc: MonotoneTable
    H: MonotoneTable
    phin: MonotoneTable | None
    growth: GrowthClass
    spliced: bool


def _integrand_log(table, logtau):
    return (logtau - table.log_value(logtau)) / (DIM - 1.0)


def _head_exponent(table):
    """Integrand log-log slope at the left edge of the table."""
    slope = (table.logy[1] - table.logy[0]) / (table.logx[1] - table.logx[0])
    return (1.0 - slope) / (DIM - 1.0)


def build_H(table):
    """H on the table's nodes, each segment integrated in closed form.

    Fast-growing profiles have a convergent integral, so H saturates and
    the top of the table goes float-flat; H ends at its first node where
    log H stops increasing, which keeps the table strictly increasing.
    """
    u = table.logx
    a = (u - table.logy) / (DIM - 1.0) + u  # log(I(tau) tau), linear in u per segment
    q = _head_exponent(table)
    spliced = bool(q <= -1.0 + 1e-12)
    if spliced:
        # replace the head with c tau^{3/2} matched at tau0 = first node
        q = (1.0 - SPLICE_EXPONENT) / (DIM - 1.0)
    head = np.exp(a[0]) / (q + 1.0)
    # int of e^a du over a segment, taken from its larger end so that a
    # steep segment does not overflow expm1
    d = np.abs(np.diff(a))
    ratio = np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d > 0.0)
    segments = np.exp(np.maximum(a[:-1], a[1:])) * np.diff(u) * ratio
    cum = head + np.concatenate(([0.0], np.cumsum(segments)))
    logH = (DIM - 1.0) / DIM * np.log(cum)
    rising = np.diff(logH) > 0.0
    end = len(logH) if rising.all() else 1 + int(np.argmin(rising))
    return MonotoneTable(u[:end], logH[:end]), spliced


def classify_growth(table):
    """Tail log-log slope of the integrand: slow-growing profiles have a
    divergent tail integral (slope >= -1), fast ones a convergent one."""
    span = table.logx[-1] - table.logx[0]
    if span < np.log(1e10):
        raise ValueError("table must span at least 10 decades for classification")
    lo = table.logx[-1] - TAIL_FRACTION * span
    logtau = np.linspace(lo, table.logx[-1], 256)
    logI = _integrand_log(table, logtau)
    q = float(np.polyfit(logtau, logI, 1)[0])
    if q >= -1.0 + GROWTH_MARGIN:
        label = "slow"
    elif q <= -1.0 - GROWTH_MARGIN:
        label = "fast"
    else:
        label = "inconclusive"
    return GrowthClass(label=label, tail_slope=q)


def sobolev_conjugate(profile):
    """Compose table o H^{-1} by pairing H values with table values."""
    if profile.growth.label == "fast":
        raise ClassificationError("fast growth: the embedding target is L^infinity")
    logtau = profile.H.logx
    return MonotoneTable(profile.H.logy, profile.phicirc.log_value(logtau))


def build_profile(table):
    growth = classify_growth(table)
    H, spliced = build_H(table)
    prof = SobolevProfile(
        phicirc=table,
        H=H,
        phin=None,
        growth=growth,
        spliced=spliced,
    )
    if growth.label == "slow":
        prof.phin = sobolev_conjugate(prof)
    return prof


# ---------------------------------------------------------------------------
# modulars and Luxemburg norms


def log_modular_vector(gx, gy, phi, cell_area, logr=0.0):
    """log of the modular sum_cells Phi(e^logr (gx, gy)) * cell_area, by a
    log-sum-exp over the cells of ``phi.log_value_dir``: finite wherever
    some cell is, however far its value is from the range of a double."""
    logphi = phi.log_value_dir(gx, gy, logr)
    top = float(np.max(logphi))
    if not np.isfinite(top):
        return top
    return top + float(np.log(np.sum(np.exp(logphi - top)))) + float(np.log(cell_area))


def luxemburg_norm_vector(gx, gy, phi, cell_area):
    """inf{lambda > 0 : modular(U / lambda) <= 1} for U = (gx, gy)."""
    gx = np.asarray(gx, dtype=float)
    gy = np.asarray(gy, dtype=float)
    amax = float(max(np.max(np.abs(gx), initial=0.0), np.max(np.abs(gy), initial=0.0)))
    if amax == 0.0:
        return 0.0

    def f(s, rows=None):
        """-log M(e^s): nondecreasing in s = log lambda, zero at the norm."""
        return np.full(np.shape(s), -log_modular_vector(gx, gy, phi, cell_area, -s))

    # f grows at least as fast as s, so the root lies between s0 and s0 - f0,
    # and f is at least log 2 in size, with the bracket's sign, at ``far``
    s0 = np.log(amax)
    f0 = f(s0)
    far = s0 - f0 + np.copysign(np.log(2.0), -f0)
    if f0 < 0.0:
        s = bisect_increasing_arrays(f, [s0], [far], LUXEMBURG_RTOL, f_lo=f0)
    else:
        s = bisect_increasing_arrays(f, [far], [s0], LUXEMBURG_RTOL, f_hi=f0)
    return float(np.exp(s[0]))


def luxemburg_norm_gradient(field, phi):
    gx, gy = forward_gradient(field.values, field.h)
    return luxemburg_norm_vector(gx, gy, phi, field.cell_area)
