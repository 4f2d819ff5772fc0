import json

import numpy as np
import pytest

from anisolab.aniso2d import constructed_triple_fn, power_sum_fn, radial_power_fn
from anisolab.numerics import bisect_increasing_arrays
from anisolab.rearrangement import (
    _log_area,
    level_profile,
    phi_circ,
    ray_radii_log,
    sublevel_area,
    verify_growth_envelope,
    verify_levelset_bounds,
)
from anisolab.tables import MonotoneTable


def test_disk_area():
    assert sublevel_area(power_sum_fn(2, 2), 4.0) == pytest.approx(4.0 * np.pi, rel=1e-9)


def test_ellipse_area():
    assert sublevel_area(power_sum_fn(2, 2, 1.0, 4.0), 1.0) == pytest.approx(
        np.pi / 2.0, rel=1e-9
    )


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

        def f(x):
            calls.append(1)
            return x**3 + x - (c**3 + c)

        return bisect_increasing_arrays(f, lo, hi, rtol=1e-12), len(calls)

    rows = [solve(c[i], lo[i], hi[i]) for i in range(3)]
    assert len({n for _, n in rows}) == 3
    batched, n_batched = solve(c, lo, hi)
    assert n_batched == max(n for _, n in rows)
    for i, (row, _) in enumerate(rows):
        assert batched[i].tobytes() == row.tobytes()


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


def test_level_profile_matches_per_level_areas(build6):
    phi = constructed_triple_fn(build6)
    log_t = np.log(np.logspace(-3, 9, 9))
    prof = level_profile(phi, log_t, n_angles=512)
    ref = [_log_area(ray_radii_log(phi, lt, 512)) for lt in log_t]
    assert prof.log_area.tobytes() == np.array(ref).tobytes()


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
