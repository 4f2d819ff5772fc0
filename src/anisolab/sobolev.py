"""Sobolev conjugation pipeline, Luxemburg norms, and embedding checks.

From the radial rearrangement table the pipeline builds

    H(t) = ( int_0^t (tau / table(tau))^(1/(n-1)) dtau )^((n-1)/n)

by trapezoid quadrature on log-spaced nodes with an analytic head term,
classifies tail growth from the integrand's log-log slope, and composes
the Sobolev conjugate as table o H^{-1} (realized by re-indexing the
table against H, no explicit inversion).  When the head integral
diverges the table is spliced below its first node with a continuously
matched tau^{3/2} piece, the simplest superlinear power that keeps the
n = 2 head convergent; the splice changes nothing above the first node.

Luxemburg norms are the usual infimum over lambda of a unit modular,
found by bisection on the monotone map lambda -> modular(U / lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gridfield import forward_gradient
from .tables import MonotoneTable

__all__ = [
    "GrowthClass",
    "ClassificationError",
    "SobolevProfile",
    "build_H",
    "sobolev_conjugate",
    "classify_growth",
    "build_profile",
    "modular_scalar",
    "modular_vector",
    "luxemburg_norm_scalar",
    "luxemburg_norm_vector",
    "luxemburg_norm_gradient",
    "tent_field",
    "bump_field",
    "cone_field",
    "standard_corpus",
    "poincare_sobolev_check",
]

SPLICE_EXPONENT = 1.5  # head splice tau^{3/2}: superlinear, head-convergent for n = 2


class ClassificationError(RuntimeError):
    """Sobolev conjugate requested for a fast-growing profile."""


@dataclass
class GrowthClass:
    label: str  # "slow" | "fast" | "inconclusive"
    tail_slope: float
    margin: float


@dataclass
class SobolevProfile:
    phicirc: MonotoneTable
    H: MonotoneTable
    phin: MonotoneTable | None
    growth: GrowthClass
    spliced: bool
    splice_log_tau0: float
    n: int


def _integrand_log(table, logtau, n):
    return (logtau - table.log_value(logtau)) / (n - 1.0)


def _head_exponent(table, n):
    """Integrand log-log slope at the left edge of the table."""
    return (1.0 - table._slopes[0]) / (n - 1.0)


def _cumulative_H(table, n, nodes):
    """H on `nodes` log-spaced points across the table's range."""
    logtau = np.linspace(table.logx[0], table.logx[-1], nodes)
    logI = _integrand_log(table, logtau, n)
    q = _head_exponent(table, n)
    spliced = bool(q <= -1.0 + 1e-12)
    if spliced:
        # replace the head with c tau^{3/2} matched at tau0 = first node
        qs = (1.0 - SPLICE_EXPONENT) / (n - 1.0)
        head = np.exp(_integrand_log(table, logtau[0], n) + logtau[0]) / (qs + 1.0)
    else:
        head = np.exp(logI[0] + logtau[0]) / (q + 1.0)
    # trapezoid of I(tau) dtau = I(tau) tau dlog(tau) on the log grid
    g = np.exp(logI + logtau)
    dlog = np.diff(logtau)
    cum = head + np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * dlog)))
    H = cum ** ((n - 1.0) / n)
    return logtau, np.log(H), spliced


def build_H(table, n=2, nodes=2048, rtol=1e-6, max_doublings=4):
    """H table with node-doubling until top values agree to ``rtol``.

    Fast-growing profiles have a convergent integral, so H saturates and
    the top of the table goes float-flat; those nodes are dropped to keep
    the table strictly increasing.
    """
    logtau, logH, spliced = _cumulative_H(table, n, nodes)
    for _ in range(max_doublings):
        logtau2, logH2, _ = _cumulative_H(table, n, 2 * nodes)
        if abs(logH2[-1] - logH[-1]) <= rtol:
            break
        nodes *= 2
        logtau, logH = logtau2, logH2
    keep = np.concatenate(([True], np.diff(logH) > 0.0))
    return MonotoneTable(logtau[keep], logH[keep]), spliced


def classify_growth(table, n=2, margin=0.05, tail_fraction=0.3):
    """Tail log-log slope of the integrand: slow-growing profiles have a
    divergent tail integral (slope >= -1), fast ones a convergent one."""
    span = table.logx[-1] - table.logx[0]
    if span < np.log(1e10):
        raise ValueError("table must span at least 10 decades for classification")
    lo = table.logx[-1] - tail_fraction * span
    logtau = np.linspace(lo, table.logx[-1], 256)
    logI = _integrand_log(table, logtau, n)
    q = float(np.polyfit(logtau, logI, 1)[0])
    if q >= -1.0 + margin:
        label = "slow"
    elif q <= -1.0 - margin:
        label = "fast"
    else:
        label = "inconclusive"
    return GrowthClass(label=label, tail_slope=q, margin=margin)


def sobolev_conjugate(profile):
    """Compose table o H^{-1} by pairing H values with table values."""
    if profile.growth.label == "fast":
        raise ClassificationError("fast growth: the embedding target is L^infinity")
    logtau = profile.H.logx
    return MonotoneTable(profile.H.logy, profile.phicirc.log_value(logtau))


def build_profile(table, n=2, margin=0.05):
    growth = classify_growth(table, n=n, margin=margin)
    H, spliced = build_H(table, n=n)
    prof = SobolevProfile(
        phicirc=table,
        H=H,
        phin=None,
        growth=growth,
        spliced=spliced,
        splice_log_tau0=float(table.logx[0]),
        n=n,
    )
    if growth.label == "slow":
        prof.phin = sobolev_conjugate(prof)
    return prof


# ---------------------------------------------------------------------------
# modulars and Luxemburg norms


def modular_scalar(values, fn, cell_area):
    return float(np.sum(fn.value(np.abs(values))) * cell_area)


def modular_vector(gx, gy, phi, cell_area):
    return float(np.sum(phi.value(gx, gy)) * cell_area)


def _luxemburg(modular_of_lambda, scale_hint, rtol=1e-8):
    """inf{lambda > 0 : modular(U / lambda) <= 1} by bisection."""
    lam = max(scale_hint, np.finfo(float).tiny)
    for _ in range(200):
        if modular_of_lambda(lam) <= 1.0:
            break
        lam *= 4.0
    else:
        raise RuntimeError("no finite Luxemburg bracket")
    hi = lam
    lo = lam
    for _ in range(200):
        candidate = lo / 4.0
        if candidate <= 0.0 or modular_of_lambda(candidate) > 1.0:
            lo = candidate
            break
        lo = candidate
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if modular_of_lambda(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return float(hi)


def luxemburg_norm_scalar(values, fn, cell_area, rtol=1e-8):
    values = np.asarray(values, dtype=float)
    amax = float(np.max(np.abs(values))) if values.size else 0.0
    if amax == 0.0:
        return 0.0
    return _luxemburg(
        lambda lam: modular_scalar(values / lam, fn, cell_area), amax, rtol=rtol
    )


def luxemburg_norm_vector(gx, gy, phi, cell_area, rtol=1e-8):
    gx = np.asarray(gx, dtype=float)
    gy = np.asarray(gy, dtype=float)
    amax = float(max(np.max(np.abs(gx), initial=0.0), np.max(np.abs(gy), initial=0.0)))
    if amax == 0.0:
        return 0.0
    return _luxemburg(
        lambda lam: modular_vector(gx / lam, gy / lam, phi, cell_area), amax, rtol=rtol
    )


def luxemburg_norm_gradient(field, phi, rtol=1e-8):
    gx, gy = forward_gradient(field.values, field.h)
    return luxemburg_norm_vector(gx, gy, phi, field.cell_area, rtol=rtol)


# ---------------------------------------------------------------------------
# test-field corpus and embedding constants


def tent_field(n, cx=0.5, cy=0.5, radius=0.3, height=1.0):
    """Pyramid max(0, 1 - max(|x-cx|, |y-cy|)/radius) on the unit square."""
    from .gridfield import GridField2D

    f = GridField2D.unit_square(n)
    ax = f.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    f.values = height * np.maximum(
        0.0, 1.0 - np.maximum(np.abs(X - cx), np.abs(Y - cy)) / radius
    )
    return f


def cone_field(n, cx=0.5, cy=0.5, radius=0.35, height=1.0, cut=0.6):
    from .gridfield import GridField2D

    f = GridField2D.unit_square(n)
    ax = f.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    cone = np.maximum(0.0, 1.0 - np.hypot(X - cx, Y - cy) / radius)
    f.values = height * np.minimum(cone, cut)
    return f


def bump_field(n, rng, k_bumps=3, max_height=1.0):
    """Sum of compactly supported smooth bumps with margin from the edge."""
    from .gridfield import GridField2D

    f = GridField2D.unit_square(n)
    ax = f.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    vals = np.zeros_like(X)
    for _ in range(k_bumps):
        cx, cy = rng.uniform(0.3, 0.7, size=2)
        r = rng.uniform(0.1, 0.25)
        h = rng.uniform(0.2, max_height)
        d2 = ((X - cx) ** 2 + (Y - cy) ** 2) / r**2
        with np.errstate(divide="ignore", over="ignore"):
            bump = np.where(d2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1e-12, 1.0 - d2)), 0.0)
        vals += h * bump
    f.values = vals
    return f


def standard_corpus(n, seed=20240811):
    rng = np.random.default_rng(seed)
    fields = [
        tent_field(n),
        tent_field(n, cx=0.4, cy=0.6, radius=0.25, height=0.7),
        cone_field(n),
        cone_field(n, radius=0.2, height=1.5, cut=0.8),
    ]
    fields += [bump_field(n, rng) for _ in range(4)]
    return fields


def poincare_report_csv(report, path):
    """Per-field certificate rows: field id, constants, gradient modular."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["field", "kappa_poincare", "kappa_sobolev", "gradient_modular"])
        for row in report["rows"]:
            w.writerow(
                [
                    row["field"],
                    repr(row["kappa_poincare"]),
                    repr(row["kappa_sobolev"]) if "kappa_sobolev" in row else "",
                    repr(row["gradient_modular"]),
                ]
            )


def poincare_sobolev_check(phi, phicirc_fn, corpus, phin=None, kappa_grid=None):
    """Certified embedding constants over a corpus of zero-boundary fields.

    * kappa_poincare: the largest grid kappa with
        sum phicirc(kappa |u|) h^2 <= sum phi(grad u) h^2   for every field
      (small kappa always works, so the certificate is the top of the
      feasible range).
    * kappa_sobolev (when a Sobolev conjugate is supplied): the smallest
      grid kappa with
        sum phin(|u| / (kappa E^(1/2))) h^2 <= E,  E = sum phi(grad u) h^2
      (large kappa always works, so the certificate is the bottom).
    """
    if kappa_grid is None:
        kappa_grid = np.exp(np.linspace(np.log(2.0**-10), np.log(2.0**10), 201))
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    best_poincare = kappa_grid[-1]
    best_sobolev = kappa_grid[0] if phin is not None else None
    rows = []
    for idx, f in enumerate(corpus):
        gx, gy = forward_gradient(f.values, f.h)
        rhs = modular_vector(gx, gy, phi, f.cell_area)
        absu = np.abs(f.values)
        lhs = np.array(
            [modular_scalar(k * absu, phicirc_fn, f.cell_area) for k in kappa_grid]
        )
        feasible = lhs <= rhs
        if not feasible[0]:
            raise RuntimeError(f"field {idx}: no feasible kappa in grid")
        k_field = kappa_grid[np.where(feasible)[0][-1]]
        best_poincare = min(best_poincare, k_field)
        row = {"field": idx, "kappa_poincare": float(k_field), "gradient_modular": rhs}
        if phin is not None:
            scale = rhs ** 0.5
            lhs_s = np.array(
                [
                    modular_scalar(absu / (k * scale), phin, f.cell_area)
                    for k in kappa_grid
                ]
            )
            ok = lhs_s <= rhs
            if not ok[-1]:
                raise RuntimeError(f"field {idx}: no feasible Sobolev kappa in grid")
            k_s = kappa_grid[np.where(ok)[0][0]]
            best_sobolev = max(best_sobolev, k_s)
            row["kappa_sobolev"] = float(k_s)
        rows.append(row)
    return {
        "kappa_poincare": float(best_poincare),
        "kappa_sobolev": None if best_sobolev is None else float(best_sobolev),
        "rows": rows,
    }
