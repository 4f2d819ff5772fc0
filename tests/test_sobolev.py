import numpy as np
import pytest

from anisolab.aniso2d import power_sum_fn, quadratic_fn, radial_power_fn
from anisolab.gridfield import GridField2D, forward_gradient
from anisolab.sobolev import (
    ClassificationError,
    build_H,
    build_profile,
    classify_growth,
    luxemburg_norm_gradient,
    luxemburg_norm_scalar,
    luxemburg_norm_vector,
    modular_vector,
    poincare_sobolev_check,
    sobolev_conjugate,
    standard_corpus,
    tent_field,
)
from anisolab.tables import MonotoneTable
from anisolab.young1d import PowerFn


def _power_table(p, lo=-8, hi=8, n=300):
    x = np.logspace(lo, hi, n)
    return MonotoneTable.from_values(x, x**p)


def test_H_linear_profile():
    H, spliced = build_H(_power_table(1.0))
    assert not spliced
    t = np.array([1.0, 10.0, 100.0])
    assert np.max(np.abs(H.value(t) - np.sqrt(t)) / np.sqrt(t)) <= 1e-5
    assert H.value(0.0) == 0.0


def test_H_power_three_halves():
    H, spliced = build_H(_power_table(1.5))
    assert not spliced
    t = np.array([1.0, 10.0, 100.0])
    ref = np.sqrt(2.0) * t**0.25
    assert np.max(np.abs(H.value(t) - ref) / ref) <= 1e-5


def test_H_splice_for_superquadratic_head():
    # head integral diverges for a cubic start: the spliced head keeps H
    # finite while the slow tail keeps it strictly increasing
    x = np.logspace(-8, 8, 300)
    tab = MonotoneTable.from_values(x, np.where(x < 1.0, x**3, x**1.5))
    H, spliced = build_H(tab)
    assert spliced
    assert np.isfinite(H.value(1.0)) and H.value(1.0) > 0.0
    vals = H.value(np.logspace(-2, 2, 20))
    assert np.all(np.diff(vals) > 0.0)
    # splice never touches the table itself
    ref = np.where(x < 1.0, x**3, x**1.5)[5:]
    assert np.allclose(tab.value(x[5:]), ref, rtol=1e-10)


def test_sobolev_conjugate_exponents():
    for p, expo in ((1.0, 2.0), (1.5, 6.0)):
        prof = build_profile(_power_table(p))
        assert prof.growth.label == "slow"
        half = len(prof.phin.logx) // 2
        slope = np.polyfit(prof.phin.logx[half:], prof.phin.logy[half:], 1)[0]
        assert slope == pytest.approx(expo, rel=0.02)
        assert prof.phin.value(0.0) == 0.0


def test_fast_growth_rejects_conjugate():
    prof = build_profile(_power_table(3.0))
    assert prof.growth.label == "fast"
    assert prof.phin is None
    with pytest.raises(ClassificationError):
        sobolev_conjugate(prof)


@pytest.mark.parametrize(
    "p,label",
    [(1.0, "slow"), (1.25, "slow"), (1.5, "slow"), (1.75, "slow"),
     (2.0, "inconclusive"), (2.5, "fast"), (3.0, "fast")],
)
def test_classification_pure_powers(p, label):
    assert classify_growth(_power_table(p)).label == label


def test_classification_needs_wide_table():
    with pytest.raises(ValueError):
        classify_growth(_power_table(1.5, lo=-2, hi=2))


def test_luxemburg_matches_lp():
    f = tent_field(65)
    for p in (1.5, 2.0, 3.0):
        lux = luxemburg_norm_scalar(f.values, PowerFn(p), f.cell_area)
        lp = (np.sum(np.abs(f.values) ** p) * f.cell_area) ** (1.0 / p)
        assert lux == pytest.approx(lp, rel=1e-7)
    gx, gy = forward_gradient(f.values, f.h)
    lux_g = luxemburg_norm_vector(gx, gy, radial_power_fn(2.0), f.cell_area)
    lp_g = np.sqrt(np.sum(gx**2 + gy**2) * f.cell_area)
    assert lux_g == pytest.approx(lp_g, rel=1e-7)


def test_luxemburg_zero_and_scaling():
    f = tent_field(33)
    assert luxemburg_norm_scalar(np.zeros((33, 33)), PowerFn(2), f.cell_area) == 0.0
    base = luxemburg_norm_scalar(f.values, PowerFn(2), f.cell_area)
    scaled = luxemburg_norm_scalar(3.0 * f.values, PowerFn(2), f.cell_area)
    assert scaled == pytest.approx(3.0 * base, rel=1e-7)


def test_luxemburg_triangle_inequality(rng):
    area = (1.0 / 32) ** 2
    fn = PowerFn(1.5)
    for _ in range(25):
        u = rng.normal(size=(33, 33))
        v = rng.normal(size=(33, 33))
        nu = luxemburg_norm_scalar(u, fn, area)
        nv = luxemburg_norm_scalar(v, fn, area)
        nuv = luxemburg_norm_scalar(u + v, fn, area)
        assert nuv <= (nu + nv) * (1.0 + 1e-6)


def test_poincare_certificate_quadratic():
    corpus = standard_corpus(65)
    rep = poincare_sobolev_check(quadratic_fn(), PowerFn(2, 0.5), corpus)
    assert np.isfinite(rep["kappa_poincare"]) and rep["kappa_poincare"] > 0.0
    assert rep["kappa_sobolev"] is None
    # the certificate is the binding field's largest feasible constant
    for row in rep["rows"]:
        assert row["kappa_poincare"] >= rep["kappa_poincare"]


def test_poincare_zero_field_harmless():
    corpus = standard_corpus(33)
    z = GridField2D.unit_square(33)
    rep = poincare_sobolev_check(quadratic_fn(), PowerFn(2, 0.5), corpus + [z])
    assert np.isfinite(rep["kappa_poincare"])


def test_poincare_stability_under_refinement():
    k = []
    for n in (65, 129, 257):
        rep = poincare_sobolev_check(quadratic_fn(), PowerFn(2, 0.5), standard_corpus(n))
        k.append(rep["kappa_poincare"])
    mid = k[1]
    assert all(abs(v - mid) <= 0.2 * mid for v in k)


def test_sobolev_constant_for_slow_growth():
    prof = build_profile(_power_table(1.5))
    corpus = standard_corpus(65)
    phi = radial_power_fn(1.5)
    rep = poincare_sobolev_check(phi, PowerFn(1.5), corpus, phin=prof.phin)
    assert rep["kappa_sobolev"] is not None
    assert np.isfinite(rep["kappa_sobolev"]) and rep["kappa_sobolev"] > 0.0


def test_modular_vector_power_sum():
    gx = np.full((4, 4), 2.0)
    gy = np.full((4, 4), 1.0)
    out = modular_vector(gx, gy, power_sum_fn(2, 2), 0.25)
    assert out == pytest.approx(16 * (4.0 + 1.0) * 0.25, rel=1e-12)


def test_luxemburg_gradient_of_tent():
    f = tent_field(65)
    v = luxemburg_norm_gradient(f, quadratic_fn())
    assert v > 0.0 and np.isfinite(v)


def test_phin_convex_on_nodes():
    prof = build_profile(_power_table(1.5))
    assert prof.phin.convex_on_nodes(rel_slack=1e-8)
    assert np.all(np.diff(prof.H.logy) > 0.0)
