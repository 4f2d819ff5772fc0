import numpy as np
import pytest

from anisolab import sobolev
from anisolab.aniso2d import (
    constructed_triple_fn,
    intro_exp_fn,
    power_sum_fn,
    quadratic_fn,
    radial_power_fn,
    trudinger_fn,
)
from anisolab.construction import build_triple
from anisolab.gridfield import GridField2D, forward_gradient
from anisolab.numerics import root_increasing
from anisolab.sobolev import (
    LUXEMBURG_RTOL,
    ClassificationError,
    build_H,
    build_profile,
    classify_growth,
    log_modular_vector,
    luxemburg_norm_gradient,
    luxemburg_norm_vector,
    sobolev_conjugate,
)
from anisolab.tables import MonotoneTable

# Gradient scales and Young functions the Luxemburg-norm search is checked on
SCALES = (1e-3, 1e-1, 1.0, 1e2, 1e4)


def _norm_phis():
    return [radial_power_fn(p) for p in (1.0, 1.5, 2.0, 3.0, 6.0)] + [
        quadratic_fn(),
        power_sum_fn(1.5, 3),
        trudinger_fn(),
        intro_exp_fn(),
        constructed_triple_fn(build_triple(2.0, 1.0, 3)),
    ]


# The walk and bisection on 1 - modular(U e^-s) that the bracket and false
# position on -log modular replaced, kept as the reference they must match
# to within one bracket width.
def _bisected_norm(gx, gy, phi, cell_area):
    amax = float(max(np.max(np.abs(gx)), np.max(np.abs(gy))))

    def excess(s):
        scale = np.exp(-s)
        return 1.0 - float(np.sum(phi.value(gx * scale, gy * scale)) * cell_area)

    return float(np.exp(root_increasing(excess, np.log(amax), np.log(4.0), rtol=LUXEMBURG_RTOL)))


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


# The table is a power between its nodes, so H at the nodes has a closed
# form; build_H must match it to rounding.


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75])
def test_H_exact_on_power_tables(p):
    x = np.logspace(-8, 8, 200)
    H, spliced = build_H(MonotoneTable.from_values(x, x**p))
    assert not spliced
    assert np.array_equal(H.logx, np.log(x))
    ref = 0.5 * np.log(x ** (2.0 - p) / (2.0 - p))
    assert np.max(np.abs(H.logy - ref)) <= 1e-12


def test_H_exact_on_a_kinked_table():
    # tau^1.25 below tau = 1 and tau^1.75 above, with the kink on a node
    u = np.concatenate((np.linspace(-18.0, 0.0, 101)[:-1], np.linspace(0.0, 18.0, 101)))
    H, spliced = build_H(MonotoneTable(u, np.where(u < 0.0, 1.25, 1.75) * u))
    assert not spliced
    t = np.exp(u)
    integral = np.where(t < 1.0, t**0.75 / 0.75, 1.0 / 0.75 + (t**0.25 - 1.0) / 0.25)
    assert np.max(np.abs(H.logy - 0.5 * np.log(integral))) <= 1e-12


def test_H_exact_on_the_spliced_table():
    x = np.logspace(-8, 8, 300)
    tab = MonotoneTable.from_values(x, np.where(x < 1.0, x**3, x**1.5))
    H, spliced = build_H(tab)
    assert spliced
    x, y = np.exp(tab.logx), np.exp(tab.logy)
    # head: tau / (y0 (tau / x0)^1.5) integrates over (0, x0) to 2 x0^2 / y0
    head = 2.0 * x[0] ** 2 / y[0]
    # segment j: tau / phi_circ = x_j^m / y_j * tau^(1 - m), with m the table's slope
    m = np.diff(tab.logy) / np.diff(tab.logx)
    seg = x[:-1] ** m / y[:-1] * (x[1:] ** (2.0 - m) - x[:-1] ** (2.0 - m)) / (2.0 - m)
    integral = head + np.concatenate(([0.0], np.cumsum(seg)))
    assert np.max(np.abs(H.logy - 0.5 * np.log(integral))) <= 1e-12


def test_H_of_a_steep_segment_stays_finite():
    # the integrand grows by e^1151 across the one segment, past the range
    # of a double, while the integral itself is about 8e299
    H, spliced = build_H(MonotoneTable.from_values([1e-200, 1e200], [1e-200, 1e100]))
    assert not spliced
    ref = 0.5 * (np.log(1e-200) * (0.75 - 1.0) + 1.25 * np.log(1e200) - np.log(1.25))
    assert abs(H.logy[-1] - ref) <= 1e-12


def test_H_ends_at_its_first_flat_node():
    # H of t = s^3 saturates: log H first fails to rise after s = 7.85e5,
    # and a later node that rises again by rounding is not kept
    s = np.logspace(-8, 8, 77)
    H, _ = build_H(MonotoneTable.from_values(s, s**3))
    assert np.exp(H.logx[-1]) < 2.07e6
    assert np.array_equal(H.logx, np.log(s)[: len(H.logx)])
    assert np.all(np.diff(H.logy) > 0.0)


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
    # in log lambda around the crossing; the modular is summed in the value domain
    area = (1.0 / 32) ** 2
    for phi in (radial_power_fn(1.5), power_sum_fn(2, 3), quadratic_fn()):
        for scale in (1e-6, 1.0, 1e6):
            gx, gy = scale * rng.normal(size=(2, 33, 33))
            s = np.log(luxemburg_norm_vector(gx, gy, phi, area))
            w = LUXEMBURG_RTOL * max(1.0, abs(s))
            assert np.sum(phi.value(gx * np.exp(-(s - w)), gy * np.exp(-(s - w)))) * area > 1.0
            assert np.sum(phi.value(gx * np.exp(-(s + w)), gy * np.exp(-(s + w)))) * area <= 1.0


def test_luxemburg_norm_matches_the_bisection_in_at_most_twelve_modulars(rng, monkeypatch):
    # one modular brackets the root and false position closes the bracket;
    # the walk and bisection it replaced took 26-30 modulars to the same width
    calls = []

    def counted(*args):
        calls.append(args)
        return log_modular_vector(*args)

    monkeypatch.setattr(sobolev, "log_modular_vector", counted)
    area = (1.0 / 32) ** 2
    for phi in _norm_phis():
        for scale in SCALES:
            gx, gy = scale * rng.normal(size=(2, 33, 33))
            calls.clear()
            s = np.log(luxemburg_norm_vector(gx, gy, phi, area))
            assert len(calls) <= 12, (phi.name, scale, len(calls))
            ref = np.log(_bisected_norm(gx, gy, phi, area))
            assert abs(s - ref) <= LUXEMBURG_RTOL * max(1.0, abs(ref)), (phi.name, scale)


def test_luxemburg_norm_of_a_power_is_a_root_of_its_modular(rng):
    # for c |xi|^p, modular(U / lambda) = lambda^-p modular(U), so the norm
    # is modular(U)^(1/p)
    area = (1.0 / 32) ** 2
    for p in (1.0, 1.5, 2.0, 3.0, 6.0):
        for c in (0.5, 2.0):
            for scale in SCALES:
                gx, gy = scale * rng.normal(size=(2, 33, 33))
                m = c * np.sum(np.hypot(gx, gy) ** p) * area
                s = np.log(luxemburg_norm_vector(gx, gy, radial_power_fn(p, c), area))
                ref = np.log(m) / p
                assert abs(s - ref) <= LUXEMBURG_RTOL * max(1.0, abs(ref)), (p, c, scale)


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


def test_log_modular_vector_power_sum():
    gx = np.full((4, 4), 2.0)
    gy = np.full((4, 4), 1.0)
    phi = power_sum_fn(2, 2)
    out = log_modular_vector(gx, gy, phi, 0.25)
    assert out == pytest.approx(np.log(16 * (4.0 + 1.0) * 0.25), rel=1e-12)
    # logr scales the field by e^logr: Phi grows by e^(2 logr)
    out = log_modular_vector(gx, gy, phi, 0.25, np.log(10.0))
    assert out == pytest.approx(np.log(16 * (4.0 + 1.0) * 100.0 * 0.25), rel=1e-12)


def test_log_modular_vector_past_the_range_of_a_double():
    # at |U| = 1e200 the value-domain modular overflows; the log-domain one
    # is the closed form
    gx = np.full((4, 4), 2e200)
    gy = np.full((4, 4), 1e200)
    phi = power_sum_fn(2, 2)
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(phi.value(gx, gy)) * 0.25)
    ref = np.log(16 * (4.0 + 1.0) * 0.25) + 400.0 * np.log(10.0)
    assert log_modular_vector(gx, gy, phi, 0.25) == pytest.approx(ref, rel=1e-12)
    assert log_modular_vector(0.0 * gx, 0.0 * gy, phi, 0.25) == -np.inf


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
