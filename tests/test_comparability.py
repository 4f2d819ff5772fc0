import warnings

import numpy as np
import pytest

from anisolab import comparability
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
    composed_forms,
    default_probe_family,
    dominates,
    equivalent,
    equivalent_on_rays,
    essential_anisotropy_probe,
    power_sum_envelope_check,
)
from anisolab.young1d import PowerFn

LOGS = np.linspace(-6 * np.log(10.0), 6 * np.log(10.0), 49)


def _scaled(fn, c):
    """log of c * fn."""
    return lambda lt: fn.log_value(lt) + np.log(c)


def _sum(*fns):
    """log of the sum of the functions."""
    return lambda lt: np.logaddexp.reduce([f.log_value(lt) for f in fns])


def _rows(*fns):
    """One row of log values per function: a cloud of 1-D rays."""
    return lambda lt: np.stack([f.log_value(lt) for f in fns])


def test_identity_dominates():
    v = dominates(PowerFn(2).log_value, PowerFn(2).log_value, LOGS)
    assert v.dominates
    assert v.c == pytest.approx(1.0)
    assert v.d == pytest.approx(1.0)


def test_powers_incomparable_globally():
    e = equivalent(PowerFn(2).log_value, PowerFn(3).log_value, LOGS)
    assert not e["equivalent"]
    assert not e["forward"].dominates and not e["backward"].dominates
    # failing witnesses recorded with diverging trends
    assert any(w["diverging"] for w in e["forward"].witnesses)


def test_row_scan_matches_1d_and_one_row_refutes():
    one = dominates(PowerFn(2).log_value, PowerFn(3).log_value, LOGS)
    rows = dominates(_rows(PowerFn(2)), _rows(PowerFn(3)), LOGS)
    assert [w["min_gap"] for w in rows.witnesses] == [w["min_gap"] for w in one.witnesses]
    both = _rows(PowerFn(2), PowerFn(3))
    assert dominates(both, both, LOGS).dominates
    # equal on the first ray, t^2 against t^3 on the second
    v = dominates(_rows(PowerFn(2), PowerFn(2)), _rows(PowerFn(2), PowerFn(3)), LOGS)
    assert not v.dominates
    assert any(w["diverging"] for w in v.witnesses)
    assert len(v.witnesses[0]["decade_minima"]) == 2


def test_scaling_equivalent():
    e = equivalent(_scaled(PowerFn(2), 2.0), PowerFn(2).log_value, LOGS)
    assert e["equivalent"]


def test_domination_reflexive_transitive_spotcheck(rng):
    # ten random triples of scaled powers: reflexivity always; transitivity
    # whenever the two links hold
    for _ in range(10):
        p_exp = rng.choice([1.25, 1.5, 2.0, 2.5, 3.0])
        coefs = np.sort(rng.uniform(0.5, 8.0, 3))
        a, b, c = (_scaled(PowerFn(p_exp), float(cf)) for cf in coefs)
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
    # witnesses live at the cycle breakpoints; the finite construction's
    # divergence budget stays decisive over the whole 41-point d-grid
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
    # each stored index leads somewhere, so the sum of the other two cannot
    # dominate it; spot-check the index leading at the last cycle
    lead = build6.schedule[-1].heavy_index
    others = [i for i in range(3) if i != lead]
    v = dominates(_sum(phi[others[0]], phi[others[1]]), phi[lead].log_value, samples)
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


def _probe_family_loop(n_rot, n_shear, n_scale):
    """Reference: the family built one map at a time, in row-major order."""
    thetas = np.deg2rad(np.arange(n_rot))
    shears = np.linspace(-2.0, 2.0, n_shear)
    scales = np.exp(np.linspace(-2.0, 2.0, n_scale) * np.log(2.0))
    mats, params = [], []
    for th in thetas:
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        for s in shears:
            RS = R @ np.array([[1.0, 0.0], [s, 1.0]])
            for lam in scales:
                mats.append(RS @ np.array([[lam, 0.0], [0.0, 1.0 / lam]]))
                params.append((float(np.rad2deg(th)), float(s), float(lam)))
    return np.array(mats), params


@pytest.mark.parametrize("shape", [(12, 3, 3), (36, 7, 7)])
def test_probe_family_matches_loop(shape):
    mats, params = default_probe_family(*shape)
    ref_mats, ref_params = _probe_family_loop(*shape)
    assert mats.shape == (np.prod(shape), 2, 2)
    assert mats.tobytes() == ref_mats.tobytes()
    assert params.tolist() == [list(row) for row in ref_params]


def test_probe_family_second_half_turn_negates_the_first():
    mats, params = default_probe_family(360, 3, 3)
    half = 180 * 3 * 3
    assert mats[half:].tobytes() == (-mats[:half]).tobytes()
    ref_mats, ref_params = _probe_family_loop(360, 3, 3)
    assert mats[:half].tobytes() == ref_mats[:half].tobytes()
    assert np.max(np.abs(mats - ref_mats)) <= 6e-15
    assert params.tolist() == [list(row) for row in ref_params]


def _signs_mix(mats):
    """mats, some negated, with repeats, shuffled: 8 maps per 5 given."""
    mix = np.concatenate([mats, -mats[::2], mats[1:4], -mats[2:3]])
    return mix[np.random.default_rng(5).permutation(len(mix))]


@pytest.mark.parametrize("chunk", [97, 1024])
def test_probe_folds_signs_without_moving_a_bit_on_the_triple(build9, monkeypatch, chunk):
    monkeypatch.setattr(comparability, "PROBE_CHUNK", chunk)
    phi = constructed_triple_fn(build9)
    mats, _ = default_probe_family(10, 5, 5)
    reps = {}
    for name, signed in (("mats", mats), ("-mats", -mats), ("mix", _signs_mix(mats))):
        # every map on its own, unfolded: the cycle-witness kernel on all rows
        ref_fails, ref_drops = comparability._triple_axis_fails(
            build9, composed_forms(phi, signed), np.log(comparability.DEFAULT_D_GRID)
        )
        rep = reps[name] = essential_anisotropy_probe(phi, signed)
        assert rep["n_maps"] == len(signed) and rep["n_evaluated"] == len(mats)
        assert rep["fails"].tobytes() == ref_fails.tobytes()
        assert rep["worst_drops"].tobytes() == ref_drops.tobytes()
    assert reps["mats"]["worst_drops"].tobytes() == reps["-mats"]["worst_drops"].tobytes()


def _positions(mix, mats):
    """Index in mix of each map of mats (present, byte for byte)."""
    keys = {m.tobytes(): i for i, m in enumerate(mix)}
    return np.array([keys[m.tobytes()] for m in mats])


@pytest.mark.parametrize("chunk", [97, 1024])
def test_probe_folds_signs_without_moving_a_bit_on_the_cloud_path(monkeypatch, chunk):
    monkeypatch.setattr(comparability, "PROBE_CHUNK", chunk)
    phi = trudinger_fn()
    mats = np.array([canonical_shear().as_array(), np.eye(2), [[0.8, -0.6], [0.6, 0.8]]])
    mix = _signs_mix(mats)
    fns = [fn for _, _, fn in phi.terms]
    reports = []
    for f in composed_forms(phi, mix):
        terms = [(fx, fy, fn) for (fx, fy), fn in zip(f, fns)]
        reports.append(axis_decomposition_test(AnisoFn2D(terms)))
    rep = essential_anisotropy_probe(phi, mix)
    assert rep["n_evaluated"] == len(mats)
    assert rep["fails"].tolist() == [not r["equivalent"] for r in reports]
    assert not rep["fails"][_positions(mix, mats[:1])[0]]  # the shear straightens it
    # T and -T: the whole cloud report, every float of every witness, agrees
    for i, j in zip(_positions(mix, mats[::2]), _positions(mix, -mats[::2])):
        assert repr(reports[i]) == repr(reports[j])


def test_probe_triple_small_family(build9):
    phi = constructed_triple_fn(build9)
    mats, _ = default_probe_family(24, 5, 5)
    rep = essential_anisotropy_probe(phi, mats)
    assert rep["all_fail"]
    assert rep["n_failing"] == rep["n_maps"] == 24 * 5 * 5


def test_probe_chunk_size_moves_no_bit(build9, monkeypatch):
    # 8,820 maps: more than two chunks of PROBE_CHUNK
    phi = constructed_triple_fn(build9)
    mats, _ = default_probe_family(20, 21, 21)
    assert len(mats) > 2 * comparability.PROBE_CHUNK
    ref = essential_anisotropy_probe(phi, mats)
    # rows are independent, so the chunk size does not move a bit
    for chunk in (4096, 1024, 97):
        monkeypatch.setattr(comparability, "PROBE_CHUNK", chunk)
        rep = essential_anisotropy_probe(phi, mats)
        assert rep["fails"].tobytes() == ref["fails"].tobytes()
        assert rep["worst_drops"].tobytes() == ref["worst_drops"].tobytes()


def _logaddexp_chain(*logs):
    # the chained np.logaddexp that the streaming log-sum-exp replaced
    out = logs[0]
    for l in logs[1:]:
        out = np.logaddexp(out, l)
    return out


def test_probe_agrees_with_the_chained_log_sum_exp(build9, monkeypatch):
    # 4,410 maps: more than one chunk of PROBE_CHUNK
    phi = constructed_triple_fn(build9)
    mats, _ = default_probe_family(10, 21, 21)
    assert len(mats) > comparability.PROBE_CHUNK
    rep = essential_anisotropy_probe(phi, mats)
    monkeypatch.setattr(comparability, "logaddexp_many", _logaddexp_chain)
    ref = essential_anisotropy_probe(phi, mats)
    assert np.array_equal(rep["fails"], ref["fails"])
    assert rep["n_failing"] == ref["n_failing"]
    np.testing.assert_allclose(rep["worst_drops"], ref["worst_drops"], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("singular", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
def test_probe_rejects_a_singular_map(build9, singular):
    # the singular map sits second, after a unimodular one, and on both paths
    mats = np.array([np.eye(2), singular])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in (constructed_triple_fn(build9), power_sum_fn(2, 3)):
            with pytest.raises(ValueError, match="map 1 is too close to singular"):
                essential_anisotropy_probe(phi, mats)


def test_probe_power_sum_identity_passes():
    rep = essential_anisotropy_probe(power_sum_fn(2, 3), np.eye(2)[None, :, :])
    assert rep["n_failing"] == 0
    assert not rep["fails"][0]


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
    # T0 (T1 z): forms compose as (T0 T1)^T d
    rhs = essential_anisotropy_probe(ps, (t0.as_array() @ t1.as_array())[None, :, :])
    assert lhs["fails"][0] == rhs["fails"][0]


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
