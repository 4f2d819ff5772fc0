import json
import math
import warnings

import numpy as np
import pytest

from anisolab import rearrangement
from anisolab.aniso2d import (
    RadialFn2D,
    constructed_triple_fn,
    intro_exp_fn,
    power_sum_fn,
    radial_power_fn,
    trudinger_fn,
)
from anisolab.numerics import MAX_STEPS, bisect_increasing_arrays
from anisolab.rearrangement import (
    RAY_RTOL,
    _log_area,
    level_profile,
    phi_circ,
    ray_radii_log,
    sublevel_area,
    verify_growth_envelope,
    verify_levelset_bounds,
)
from anisolab.tables import MonotoneTable
from anisolab.young1d import PowerLogFn


def test_disk_area():
    assert sublevel_area(power_sum_fn(2, 2), 4.0) == pytest.approx(4.0 * np.pi, rel=1e-9)


def test_ellipse_area():
    assert sublevel_area(power_sum_fn(2, 2, 1.0, 4.0), 1.0) == pytest.approx(
        np.pi / 2.0, rel=1e-9
    )


@pytest.mark.parametrize("p, q, t", [(1.5, 3, 10.0), (1.2, 3, 1e5), (1, 1, 1.0), (1.2, 3, 1e-3)])
def test_sublevel_area_recast_meets_the_exact_area(p, q, t):
    # |{|x|^p + |y|^q <= t}| = 4 t^(1/p + 1/q) G(1 + 1/p) G(1 + 1/q) / G(1 + 1/p + 1/q);
    # at (1.2, 3, 1e5) the set's aspect ratio is about 320 and the first
    # 2,048-angle cast is 1e-2 off
    a, b = 1.0 / p, 1.0 / q
    exact = 4.0 * t ** (a + b) * math.gamma(1.0 + a) * math.gamma(1.0 + b) / math.gamma(1.0 + a + b)
    assert sublevel_area(power_sum_fn(p, q), t) == pytest.approx(exact, rel=1e-6)


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        sublevel_area(power_sum_fn(2, 2), 0.0)


def test_ray_radii_reject_non_finite_log_levels(build6):
    phi = constructed_triple_fn(build6)
    with pytest.raises(ValueError, match="log level nan is not finite"):
        ray_radii_log(phi, np.array([1.0, np.nan, np.inf, -np.inf]), 16)
    for bad in (np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"log level {bad!r} is not finite"):
            ray_radii_log(power_sum_fn(2, 2), np.array([bad, 1.0]), 16)


@pytest.mark.parametrize("n_angles", [0, -3])
def test_ray_radii_reject_fewer_than_one_angle(n_angles):
    with pytest.raises(ValueError, match=f"n_angles {n_angles} must be at least 1"):
        ray_radii_log(power_sum_fn(2, 2), np.log([1.0, 10.0]), n_angles)


def test_area_strictly_increasing(build6):
    phi = constructed_triple_fn(build6)
    ts = np.logspace(0.5, 7, 12)
    areas = [_log_area(ray_radii_log(phi, np.log(t), 512)) for t in ts]
    assert np.all(np.diff(areas) > 0.0)


def test_bisect_rows_match_one_row_at_a_time():
    # brackets from 1e-3 to 1e3 wide: the rows stop after different counts
    c = np.array([[0.3, -2.0, 5.0], [1e3, 7.0, -1e3], [0.0, 1e-7, 2.0]])
    lo = np.array([[-1e-3] * 3, [-1e3] * 3, [-1.0] * 3]) + np.minimum(c, 0.0)
    hi = np.array([[1e-3] * 3, [1e3] * 3, [1.0] * 3]) + np.maximum(c, 0.0)

    def solve(c, lo, hi):
        calls = []
        k = np.reshape(c**3 + c, (-1, c.shape[-1]))

        def f(x, rows):
            calls.append(1)
            return x**3 + x - k[rows]

        return bisect_increasing_arrays(f, lo, hi, rtol=1e-12), len(calls)

    rows = [solve(c[i], lo[i], hi[i]) for i in range(3)]
    assert len({n for _, n in rows}) == 3
    batched, n_batched = solve(c, lo, hi)
    assert n_batched == max(n for _, n in rows)
    for i, (row, _) in enumerate(rows):
        assert batched[i].tobytes() == row.tobytes()


def test_bisect_evaluates_only_open_rows():
    # the rows of test_bisect_rows_match_one_row_at_a_time, one per lane count
    c = np.array([[0.3, -2.0, 5.0], [1e3, 7.0, -1e3], [0.0, 1e-7, 2.0]])
    lo = np.array([[-1e-3] * 3, [-1e3] * 3, [-1.0] * 3]) + np.minimum(c, 0.0)
    hi = np.array([[1e-3] * 3, [1e3] * 3, [1.0] * 3]) + np.maximum(c, 0.0)
    k = c**3 + c

    def solve(lo, hi, rows_in):
        seen = []

        def f(x, rows):
            assert x.shape == (len(rows), 3)
            seen.append(rows_in[rows].tolist())
            return x**3 + x - k[rows_in[rows]]

        bisect_increasing_arrays(f, lo, hi, rtol=1e-12)
        return seen

    alone = [solve(lo[i], hi[i], np.array([i])) for i in range(3)]
    batched = solve(lo, hi, np.arange(3))
    # call j sees exactly the rows whose own solve makes more than j calls
    assert batched == [[i for i in range(3) if len(alone[i]) > j] for j in range(len(batched))]
    lanes = sum(3 * len(rows) for rows in batched)
    assert lanes == sum(3 * len(calls) for calls in alone)


class _Dilated:
    """x -> Phi(x / exp(shift)): every radius grows by the factor exp(shift)."""

    def __init__(self, phi, shift):
        self.phi, self.shift = phi, shift

    def log_value_dir(self, ux, uy, logr):
        return self.phi.log_value_dir(ux, uy, logr - self.shift)


@pytest.mark.parametrize("case", ["triple", "triple_dilated", "ellipse"])
def test_ray_radii_levels_match_one_level_at_a_time(case, build6):
    if case == "ellipse":
        phi = power_sum_fn(2, 2, 1.0, 4.0)
    else:
        phi = constructed_triple_fn(build6)
        if case == "triple_dilated":
            # radii past exp(max(1, log t)) from log t = -40 to 400: bracket expansion
            phi = _Dilated(phi, 380.0)
    log_t = np.array([-760.0, -40.0, -3.0, 0.0, 0.7, 2.5, 30.0, 400.0, 2500.0])
    rows = ray_radii_log(phi, log_t, 256)
    assert rows.shape == (len(log_t), 256)
    for lt, row in zip(log_t, rows):
        assert row.tobytes() == ray_radii_log(phi, float(lt), 256).tobytes()


# The row bisection that false position replaced in bisect_increasing_arrays,
# kept (it takes and ignores the end values, and passes f every row index)
# as the reference the ray radii must stay within RAY_RTOL of.
def _bisect_rows(f, lo, hi, rtol=1e-12, f_lo=None, f_hi=None):
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(MAX_STEPS):
        mid = 0.5 * (lo + hi)
        width = hi - lo
        done = np.all(width <= rtol * np.maximum(1.0, np.abs(mid)), axis=-1, keepdims=True)
        if np.all(done):
            return mid
        lo = np.where(done, mid, lo)
        hi = np.where(done, mid, hi)
        fm = f(mid, np.arange(mid.shape[0]))
        take_lo = fm < 0.0
        lo = np.where(take_lo, mid, lo)
        hi = np.where(take_lo, hi, mid)
    return 0.5 * (lo + hi)


class _Counted:
    """Counts log_value_dir calls: each evaluates every ray of a cast."""

    def __init__(self, phi):
        self.phi, self.calls = phi, 0

    def log_value_dir(self, ux, uy, logr):
        self.calls += 1
        return self.phi.log_value_dir(ux, uy, logr)


def _cast(phi, log_t, n_angles):
    """(log radii, log_value_dir calls) of one cast."""
    counted = _Counted(phi)
    return ray_radii_log(counted, log_t, n_angles), counted.calls


def _reference_cast(phi, log_t, n_angles):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rearrangement, "bisect_increasing_arrays", _bisect_rows)
        return _cast(phi, log_t, n_angles)


_NINE_LEVELS = np.array([-760.0, -40.0, -3.0, 0.0, 0.7, 2.5, 30.0, 400.0, 2500.0])
_SMOOTH_LEVELS = np.array([-20.0, -3.0, 0.0, 2.5, 30.0])


def _ray_case(case, build6):
    """(Phi, log levels) of one accuracy case."""
    if case == "ellipse":
        return power_sum_fn(2, 2, 1.0, 4.0), _SMOOTH_LEVELS
    if case == "triple":
        return constructed_triple_fn(build6), _NINE_LEVELS
    if case == "triple_dilated":
        return _Dilated(constructed_triple_fn(build6), 380.0), _NINE_LEVELS
    if case == "trudinger":
        return trudinger_fn(), _SMOOTH_LEVELS
    if case == "intro_exp":
        return intro_exp_fn(), np.linspace(-20.0, 50.0, 8)
    return RadialFn2D(PowerLogFn(2, 1)), _SMOOTH_LEVELS


@pytest.mark.parametrize(
    "case", ["ellipse", "triple", "triple_dilated", "trudinger", "intro_exp", "radial_powerlog"]
)
def test_ray_radii_within_rtol_of_row_bisection(case, build6):
    phi, log_t = _ray_case(case, build6)
    rows = ray_radii_log(phi, log_t, 256)
    ref, _ = _reference_cast(phi, log_t, 256)
    assert np.all(np.abs(rows - ref) <= RAY_RTOL * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize(
    "phi",
    [power_sum_fn(2, 2), power_sum_fn(2, 2, 1.0, 4.0), radial_power_fn(1.7), radial_power_fn(3.0)],
    ids=["disk", "ellipse", "radial_1.7", "radial_3"],
)
def test_power_casts_take_a_secant_step(phi):
    # log Phi is linear in log r: after the two bracket values the first
    # secant step lands on the root and at most two more steps close the
    # bracket (44-45 calls under bisection)
    for lt in _SMOOTH_LEVELS:
        assert _cast(phi, lt, 256)[1] <= 6


@pytest.mark.parametrize("case", ["triple", "triple_dilated"])
def test_triple_casts_take_few_steps(case, build6):
    phi, log_t = _ray_case(case, build6)
    assert _cast(phi, log_t, 256)[1] <= 24


def test_intro_exp_casts_take_no_more_than_bisection():
    # log Phi grows like exp(log r): the secant gains least over halving here
    for lt in np.linspace(-20.0, 50.0, 8):
        assert _cast(intro_exp_fn(), lt, 256)[1] <= _reference_cast(intro_exp_fn(), lt, 256)[1] + 4


class _DoublyExponential:
    """log Phi = log r + expm1(exp(log r + ux / 2)): the secant steps stall."""

    def log_value_dir(self, ux, uy, logr):
        with np.errstate(over="ignore"):
            return logr + np.expm1(np.exp(logr + 0.5 * ux)) + 0.0 * uy


def test_doubly_exponential_rays_meet_the_stop_rule():
    phi = _DoublyExponential()
    theta = 2.0 * np.pi * np.arange(256) / 256
    log_t = np.array([-5.0, 3.0, 50.0, 700.0, 1e5])
    rows, calls = _cast(phi, log_t, 256)
    assert calls < MAX_STEPS
    half = 0.5 * RAY_RTOL * np.maximum(1.0, np.abs(rows))
    below = phi.log_value_dir(np.cos(theta), np.sin(theta), rows - half) - log_t[:, None]
    above = phi.log_value_dir(np.cos(theta), np.sin(theta), rows + half) - log_t[:, None]
    assert np.all(below < 0.0) and np.all(above >= 0.0)


def test_level_profile_matches_per_level_areas(build6):
    phi = constructed_triple_fn(build6)
    log_t = np.log(np.logspace(-3, 9, 9))
    prof = level_profile(phi, log_t, n_angles=512)
    ref = [_log_area(ray_radii_log(phi, lt, 512)) for lt in log_t]
    assert prof.log_area.tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("width", [256, 2048, 4096])
def test_row_wise_log_area_is_each_row_alone(width):
    # one reduction over (levels, angles) keeps every row's sum bit for bit
    phi = radial_power_fn(1.3)
    logr = ray_radii_log(phi, np.log(np.logspace(-8, 8, 24)), width)
    spread = np.random.default_rng(width).normal(scale=40.0, size=(16, width))
    for radii in (logr, spread):
        areas = _log_area(radii)
        assert areas.shape == (radii.shape[0],)
        assert areas.tobytes() == np.array([_log_area(row) for row in radii]).tobytes()


class _Bounded:
    """log Phi = min(log r, 0) on every ray: not coercive past level 1."""

    def log_value_dir(self, ux, uy, logr):
        return np.minimum(logr, 0.0) + 0.0 * ux


def test_unbracketable_level_in_array_raises():
    ray_radii_log(_Bounded(), np.array([-1.0, -0.5]), 16)
    with pytest.raises(ValueError, match="not bracketed"):
        ray_radii_log(_Bounded(), np.array([-1.0, 0.5]), 16)
    with pytest.raises(ValueError, match="too small"):
        ray_radii_log(power_sum_fn(2, 2), np.array([0.0, -2000.0]), 16)


@pytest.mark.parametrize("levels, named", [([1.0, -5.0, 3.0], "-5"), ([1.0, 0.0, 3.0], "0")])
def test_phi_circ_and_envelope_name_a_bad_level(levels, named, build6):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (
            lambda: phi_circ(power_sum_fn(2, 2), levels, n_angles=64),
            lambda: verify_growth_envelope(build6, levels, n_angles=64),
        ):
            with pytest.raises(ValueError, match=f"; level {named} must be positive and finite"):
                check()


def test_phi_circ_names_the_first_pair_out_of_order():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^levels not strictly increasing: t\[0\] = 3 >= t\[1\] = 2$"):
            phi_circ(power_sum_fn(2, 2), [3.0, 2.0], n_angles=64)


def test_phi_circ_radial_fixed_point():
    grid = np.logspace(-6, 6, 80)
    tab = phi_circ(power_sum_fn(2, 2), grid, n_angles=512)
    s = np.array([0.01, 0.5, 3.0])
    assert np.max(np.abs(tab.value(s) - s**2) / s**2) <= 1e-6
    assert tab.value(0.0) == 0.0


def test_phi_circ_ellipse():
    grid = np.logspace(-6, 6, 80)
    tab = phi_circ(power_sum_fn(2, 2, 1.0, 4.0), grid, n_angles=2048)
    s = np.array([0.01, 0.5, 3.0])
    assert np.max(np.abs(tab.value(s) - 2.0 * s**2) / (2.0 * s**2)) <= 1e-4


def test_phi_circ_radial_consistency_nonquadratic():
    grid = np.logspace(-4, 4, 60)
    tab = phi_circ(radial_power_fn(1.7), grid, n_angles=512)
    s = np.array([0.05, 1.0, 5.0])
    assert np.max(np.abs(tab.value(s) - s**1.7) / s**1.7) <= 1e-6


def _secants_nondecreasing(table, rel_slack):
    """The difference quotients of the table's node values are nondecreasing
    (convexity on the nodes, in the value domain)."""
    x, y = np.exp(table.logx), np.exp(table.logy)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    q = np.diff(y) / np.diff(x)
    return bool(np.all(np.diff(q) >= -rel_slack * np.maximum(1.0, q[:-1])))


def test_phi_circ_convex_on_nodes(build6):
    grid = np.logspace(0.0, 7.0, 50)
    tab = phi_circ(constructed_triple_fn(build6), grid, n_angles=512)
    assert _secants_nondecreasing(tab, rel_slack=1e-6)


def test_levelset_sandwich(build6):
    rep = verify_levelset_bounds(build6, [10.0, 1e3, 1e6], n_angles=1024)
    assert rep["ok"], rep


def test_levelset_sandwich_degenerates_gracefully():
    build = __import__("anisolab.construction", fromlist=["build_triple"]).build_triple(
        2.0, 1.0, 3
    )
    rep = verify_levelset_bounds(build, [1e-3], n_angles=256)
    row = rep["rows"][0]
    # both bounds collapse toward zero area with the level
    assert np.exp(row["log_lower"]) < 1e-2
    assert np.exp(row["log_upper"]) < 10.0


def test_growth_envelope_stable(build6):
    rep = verify_growth_envelope(build6, np.logspace(1, 8, 10), n_angles=512)
    assert rep["C"] >= 1.0
    assert np.isfinite(rep["C"])
    assert rep["stable_within_20pct"], rep


def test_monotone_table_basics():
    x = np.logspace(-3, 3, 30)
    tab = MonotoneTable.from_values(x, x**2)
    assert tab.value(2.0) == pytest.approx(4.0, rel=1e-12)
    assert tab.derivative(2.0) == pytest.approx(4.0, rel=1e-9)
    with pytest.raises(ValueError):
        MonotoneTable.from_values([1.0, 2.0], [3.0, 3.0])


def test_monotone_table_json_roundtrip(tmp_path):
    x = np.logspace(-2, 2, 12)
    tab = MonotoneTable.from_values(x, 3.0 * x**1.5)
    p = tmp_path / "t.json"
    tab.save(p)
    back = MonotoneTable.load(p)
    assert np.allclose(back.value(x), tab.value(x), rtol=1e-12)
    p2 = tmp_path / "t2.json"
    back.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def test_monotone_table_json_names_a_missing_field():
    with pytest.raises(ValueError, match=r"^t: missing"):
        MonotoneTable.from_json_dict({"s": [1.0, 2.0, 3.0]})


def test_monotone_table_json_names_a_top_level_that_is_not_an_object():
    with pytest.raises(ValueError, match=r"^top level: expected a JSON object, found list$"):
        MonotoneTable.from_json_dict([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_monotone_table_rejects_entries_without_finite_logs(bad, tmp_path):
    # a negative x used to load as log x = nan and interpolate silently
    for x, y in (([bad, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [bad, 2.0, 3.0])):
        with pytest.raises(ValueError, match="finite"):
            MonotoneTable.from_values(x, y)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"s": x, "t": y}))
        with pytest.raises(ValueError, match="finite"):
            MonotoneTable.load(p)
