import numpy as np
import pytest

from anisolab.aniso2d import (
    AnisoFn2D,
    constructed_triple_fn,
    power_sum_fn,
    radial_power_fn,
    trudinger_fn,
)
from anisolab.comparability import (
    LinearMap2D,
    axis_decomposition_test,
    canonical_shear,
    default_probe_family,
    dominates,
    equivalent,
    equivalent_on_rays,
    essential_anisotropy_probe,
    power_sum_envelope_check,
)
from anisolab.young1d import PowerFn

LOGS = np.linspace(-6 * np.log(10.0), 6 * np.log(10.0), 49)


class _Scaled:
    def __init__(self, fn, c):
        self.fn, self.logc = fn, np.log(c)

    def log_value(self, lt):
        return self.fn.log_value(lt) + self.logc


class _Sum:
    def __init__(self, *fns):
        self.fns = fns

    def log_value(self, lt):
        out = self.fns[0].log_value(lt)
        for f in self.fns[1:]:
            out = np.logaddexp(out, f.log_value(lt))
        return out


class _Rows:
    """One row of log values per function: a cloud of 1-D rays."""

    def __init__(self, *fns):
        self.fns = fns

    def log_value(self, lt):
        return np.stack([f.log_value(lt) for f in self.fns])


def test_identity_dominates():
    v = dominates(PowerFn(2), PowerFn(2), LOGS)
    assert v.dominates
    assert v.c == pytest.approx(1.0)
    assert v.d == pytest.approx(1.0)


def test_powers_incomparable_globally():
    e = equivalent(PowerFn(2), PowerFn(3), LOGS)
    assert not e["equivalent"]
    assert not e["forward"].dominates and not e["backward"].dominates
    # failing witnesses recorded with diverging trends
    assert any(w["diverging"] for w in e["forward"].witnesses)


def test_row_scan_matches_1d_and_one_row_refutes():
    one = dominates(PowerFn(2), PowerFn(3), LOGS)
    rows = dominates(_Rows(PowerFn(2)), _Rows(PowerFn(3)), LOGS)
    assert [w["min_gap"] for w in rows.witnesses] == [w["min_gap"] for w in one.witnesses]
    assert dominates(_Rows(PowerFn(2), PowerFn(3)), _Rows(PowerFn(2), PowerFn(3)), LOGS).dominates
    # equal on the first ray, t^2 against t^3 on the second
    v = dominates(_Rows(PowerFn(2), PowerFn(2)), _Rows(PowerFn(2), PowerFn(3)), LOGS)
    assert not v.dominates
    assert any(w["diverging"] for w in v.witnesses)
    assert len(v.witnesses[0]["decade_minima"]) == 2


def test_scaling_equivalent():
    e = equivalent(_Scaled(PowerFn(2), 2.0), PowerFn(2), LOGS)
    assert e["equivalent"]


def test_domination_reflexive_transitive_spotcheck(rng):
    # ten random triples of scaled powers: reflexivity always; transitivity
    # whenever the two links hold
    for _ in range(10):
        p_exp = rng.choice([1.25, 1.5, 2.0, 2.5, 3.0])
        coefs = np.sort(rng.uniform(0.5, 8.0, 3))
        a, b, c = (_Scaled(PowerFn(p_exp), float(cf)) for cf in coefs)
        for f in (a, b, c):
            assert dominates(f, f, LOGS).dominates
        if dominates(c, b, LOGS).dominates and dominates(b, a, LOGS).dominates:
            assert dominates(c, a, LOGS).dominates


def test_max_square_equivalent_to_sum_of_squares():
    dirs = [(1.0, 0.0), (0.0, 1.0), (np.sqrt(0.5), np.sqrt(0.5)), (0.6, -0.8)]

    def max_sq(ux, uy, logr):
        return 2.0 * (np.log(np.maximum(np.abs(ux), np.abs(uy))) + logr)

    q = power_sum_fn(2, 2)
    logr = np.linspace(-12, 12, 49)
    rep = equivalent_on_rays(max_sq, q.log_value_dir, dirs, logr)
    assert rep["forward"].dominates and rep["backward"].dominates
    assert rep["equivalent"]


def test_ray_rows_match_per_direction_loop():
    dirs = np.array([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.6, -0.8), (-0.28, 0.96)])
    logr = np.linspace(-14.0, 18.0, 43)
    for phi in (trudinger_fn(), power_sum_fn(2, 3), radial_power_fn(1.5)):
        with np.errstate(divide="ignore"):
            rows = phi.log_value_dir(dirs[:, :1], dirs[:, 1:], logr)
            loop = np.stack([phi.log_value_dir(float(ux), float(uy), logr) for ux, uy in dirs])
        assert np.array_equal(rows, loop)
        assert np.all(rows[2] == -np.inf)


def test_constructed_light_sum_fails_to_dominate_leader(build6):
    # witnesses live at the cycle breakpoints; a moderate d-grid keeps the
    # finite construction's divergence budget decisive
    phi = build6.phi
    heavy_cycles = [r for r in build6.schedule if r.k >= 1]
    samples = np.sort(
        np.concatenate(
            [
                np.linspace(-2, 8, 30),
                [r.logs * 0.5 + r.logt_next * 0.5 for r in heavy_cycles],
                [r.logt_next for r in heavy_cycles],
            ]
        )
    )
    d_grid = np.exp(np.linspace(-4, 4, 9) * np.log(2.0))
    # each stored index leads somewhere, so the sum of the other two cannot
    # dominate it; spot-check the index leading at the last cycle
    lead = build6.schedule[-1].heavy_index
    others = [i for i in range(3) if i != lead]
    v = dominates(_Sum(phi[others[0]], phi[others[1]]), phi[lead], samples, d_grid=d_grid)
    assert not v.dominates


def test_axis_test_power_sum_passes():
    assert axis_decomposition_test(power_sum_fn(2, 3))["equivalent"]


def test_axis_test_trudinger_fails_then_passes_under_shear():
    tr = trudinger_fn()
    assert not axis_decomposition_test(tr)["equivalent"]
    m = canonical_shear().as_array()
    terms = []
    for dx, dy, fn in tr.terms:
        f = m.T @ np.array([dx, dy])
        terms.append((f[0], f[1], fn))
    assert axis_decomposition_test(AnisoFn2D(terms))["equivalent"]


def test_axis_test_triple_fails(build9):
    phi = constructed_triple_fn(build9)
    rep = axis_decomposition_test(phi)
    assert not rep["equivalent"]
    assert rep["method"] == "cycle-witness"
    assert rep["worst_drop"] >= 0.5


def test_probe_triple_small_family(build9):
    phi = constructed_triple_fn(build9)
    mats, _ = default_probe_family(24, 5, 5)
    rep = essential_anisotropy_probe(phi, mats)
    assert rep["all_fail"]
    assert rep["n_failing"] == rep["n_maps"] == 24 * 5 * 5


def test_probe_power_sum_identity_passes():
    rep = essential_anisotropy_probe(power_sum_fn(2, 3), np.eye(2)[None, :, :])
    assert rep["n_failing"] == 0
    assert rep["verdicts"][0]["equivalent"]


def test_probe_composition_consistency():
    # probing Phi o T0 at T equals probing Phi at T0 T (cloud path)
    t0 = LinearMap2D(1.0, 0.0, 1.0, 1.0)
    t1 = LinearMap2D(0.8, -0.6, 0.6, 0.8)
    ps = power_sum_fn(2, 3)
    composed_terms = []
    for dx, dy, fn in ps.terms:
        f = t0.as_array().T @ np.array([dx, dy])
        composed_terms.append((f[0], f[1], fn))
    ps_t0 = AnisoFn2D(composed_terms)
    lhs = essential_anisotropy_probe(ps_t0, t1.as_array()[None, :, :])
    rhs = essential_anisotropy_probe(ps, (t0.compose(t1)).as_array()[None, :, :])
    # T0 (T1 z): forms compose as (T0 T1)^T d
    rhs2 = essential_anisotropy_probe(ps, (t1.as_array() @ t0.as_array())[None, :, :])
    assert lhs["verdicts"][0]["equivalent"] == rhs2["verdicts"][0]["equivalent"]
    assert isinstance(rhs, dict)


def test_linear_map_guard():
    with pytest.raises(ValueError):
        LinearMap2D(1.0, 2.0, 0.5, 1.0)  # det = 0
    assert canonical_shear().det == pytest.approx(-1.0)


def test_envelope_check_sandwich():
    rep = power_sum_envelope_check(1, 2, 3, n_samples=30_000)
    assert rep["sandwich_finite"]
    assert rep["cases_cover"]
    assert rep["c_env_over_phi"] < 50.0
    assert rep["c_phi_over_env"] < 50.0


def test_envelope_equal_powers_factor_three():
    rep = power_sum_envelope_check(2, 2, 2, n_samples=20_000)
    assert rep["c_env_over_phi"] <= 3.0 + 1e-9
    assert rep["c_phi_over_env"] <= 3.0 + 1e-9


def test_envelope_on_diagonal():
    # x = y: Phi = |x|^p + |x|^r, envelope adds 2|x|^q <= 2 max(lower, upper)
    x = np.logspace(-6, 6, 200)
    p, q, r = 1.0, 2.0, 3.0
    phi = x**p + x**r
    env = x**p + x**r + 2 * x**q
    assert np.all(env <= 3.0 * phi + 1e-12)


def test_axis_test_symmetric_under_axis_swap():
    a = axis_decomposition_test(power_sum_fn(2, 3))
    b = axis_decomposition_test(power_sum_fn(3, 2))
    assert a["equivalent"] == b["equivalent"]
    tr_a = axis_decomposition_test(trudinger_fn())
    swapped = AnisoFn2D([(dy, dx, fn) for dx, dy, fn in trudinger_fn().terms])
    tr_b = axis_decomposition_test(swapped)
    assert tr_a["equivalent"] == tr_b["equivalent"]
