import numpy as np
import pytest

from anisolab.aniso2d import power_sum_fn, quadratic_fn, radial_power_fn
from anisolab.gridfield import GridField2D, forward_gradient
from anisolab.sobolev import (
    LUXEMBURG_RTOL,
    ClassificationError,
    build_H,
    build_profile,
    classify_growth,
    luxemburg_norm_gradient,
    luxemburg_norm_vector,
    modular_vector,
    sobolev_conjugate,
)
from anisolab.tables import MonotoneTable


def _power_table(p, lo=-8, hi=8, n=300):
    x = np.logspace(lo, hi, n)
    return MonotoneTable.from_values(x, x**p)


def _tent_field(n):
    """Pyramid max(0, 1 - max(|x - 1/2|, |y - 1/2|) / 0.3) on the unit square."""
    f = GridField2D.unit_square(n)
    X, Y = np.meshgrid(f.axis(), f.axis(), indexing="ij")
    f.values = np.maximum(0.0, 1.0 - np.maximum(np.abs(X - 0.5), np.abs(Y - 0.5)) / 0.3)
    return f


@pytest.fixture()
def tent65():
    return _tent_field(65)


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


def test_luxemburg_matches_lp(tent65):
    # |xi|^p on (u, 0) is the scalar modular of |u|^p: the Luxemburg norm
    # is the L^p norm
    f = tent65
    zero = np.zeros_like(f.values)
    for p in (1.5, 2.0, 3.0):
        lux = luxemburg_norm_vector(f.values, zero, radial_power_fn(p), f.cell_area)
        lp = (np.sum(np.abs(f.values) ** p) * f.cell_area) ** (1.0 / p)
        assert lux == pytest.approx(lp, rel=1e-7)
    gx, gy = forward_gradient(f.values, f.h)
    lux_g = luxemburg_norm_vector(gx, gy, radial_power_fn(2.0), f.cell_area)
    lp_g = np.sqrt(np.sum(gx**2 + gy**2) * f.cell_area)
    assert lux_g == pytest.approx(lp_g, rel=1e-7)


def test_luxemburg_norm_within_one_bracket_of_the_unit_modular(rng):
    # the search stops at a bracket of width LUXEMBURG_RTOL * max(1, |log lambda|)
    # in log lambda around the crossing
    area = (1.0 / 32) ** 2
    for phi in (radial_power_fn(1.5), power_sum_fn(2, 3), quadratic_fn()):
        for scale in (1e-6, 1.0, 1e6):
            gx, gy = scale * rng.normal(size=(2, 33, 33))
            s = np.log(luxemburg_norm_vector(gx, gy, phi, area))
            w = LUXEMBURG_RTOL * max(1.0, abs(s))
            assert modular_vector(gx * np.exp(-(s - w)), gy * np.exp(-(s - w)), phi, area) > 1.0
            assert modular_vector(gx * np.exp(-(s + w)), gy * np.exp(-(s + w)), phi, area) <= 1.0


def test_luxemburg_zero_and_scaling():
    f = _tent_field(33)
    gx, gy = forward_gradient(f.values, f.h)
    phi = radial_power_fn(2.0)
    zero = np.zeros_like(gx)
    assert luxemburg_norm_vector(zero, zero, phi, f.cell_area) == 0.0
    base = luxemburg_norm_vector(gx, gy, phi, f.cell_area)
    scaled = luxemburg_norm_vector(3.0 * gx, 3.0 * gy, phi, f.cell_area)
    assert scaled == pytest.approx(3.0 * base, rel=1e-7)


def test_luxemburg_triangle_inequality(rng):
    area = (1.0 / 32) ** 2
    phi = radial_power_fn(1.5)
    for _ in range(25):
        u = rng.normal(size=(2, 33, 33))
        v = rng.normal(size=(2, 33, 33))
        nu = luxemburg_norm_vector(*u, phi, area)
        nv = luxemburg_norm_vector(*v, phi, area)
        nuv = luxemburg_norm_vector(*(u + v), phi, area)
        assert nuv <= (nu + nv) * (1.0 + 1e-6)


def test_modular_vector_power_sum():
    gx = np.full((4, 4), 2.0)
    gy = np.full((4, 4), 1.0)
    out = modular_vector(gx, gy, power_sum_fn(2, 2), 0.25)
    assert out == pytest.approx(16 * (4.0 + 1.0) * 0.25, rel=1e-12)


def test_luxemburg_gradient_of_tent(tent65):
    v = luxemburg_norm_gradient(tent65, quadratic_fn())
    assert v > 0.0 and np.isfinite(v)


def _secants_nondecreasing(table, rel_slack):
    """The difference quotients of the table's node values are nondecreasing
    (convexity on the nodes, in the value domain)."""
    x, y = np.exp(table.logx), np.exp(table.logy)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    q = np.diff(y) / np.diff(x)
    return bool(np.all(np.diff(q) >= -rel_slack * np.maximum(1.0, q[:-1])))


def test_phin_convex_on_nodes():
    prof = build_profile(_power_table(1.5))
    assert _secants_nondecreasing(prof.phin, rel_slack=1e-8)
    assert np.all(np.diff(prof.H.logy) > 0.0)
