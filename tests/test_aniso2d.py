import struct

import numpy as np
import pytest

from anisolab import aniso2d
from anisolab.aniso2d import (
    AnisoFn2D,
    BoxTooSmallError,
    GridSpec2D,
    RadialFn2D,
    SampledFn2D,
    _legendre_kernel,
    biconjugate2d,
    check_monotonicity_property,
    conjugate2d,
    conjugate_of_samples,
    eval2d,
    intro_exp_fn,
    involution_error,
    power_sum_fn,
    quadratic_fn,
    radial_power_fn,
    trudinger_fn,
    verify_young_inequality,
)
from anisolab.numerics import RangeError, logaddexp_many
from anisolab.young1d import PowerFn


def test_intro_exp_reference_values():
    phi = intro_exp_fn()
    assert eval2d(phi, (2.0, 0.0)) == pytest.approx(4.0 * (1.0 + np.e**2), rel=1e-14)
    assert eval2d(phi, (3.0, 3.0)) == pytest.approx(18.0, rel=1e-14)
    assert eval2d(phi, (0.0, 0.0)) == 0.0


def test_monotonicity_violation_flagged():
    phi = intro_exp_fn()
    v = check_monotonicity_property(phi, [((2.0, 0.0), (3.0, 3.0))])
    assert len(v) == 1 and v[0][2] > v[0][3]


def test_power_sum_has_no_violations(rng):
    phi = power_sum_fn(2, 3)
    pairs = []
    for _ in range(200):
        eta = rng.uniform(-3, 3, 2)
        xi = eta * rng.uniform(0, 1, 2)
        pairs.append((xi, eta))
    assert check_monotonicity_property(phi, pairs) == []


def test_constructed_triple_not_componentwise_monotone(build6):
    from anisolab.aniso2d import constructed_triple_fn

    phi = constructed_triple_fn(build6)
    # at a point where phi_1 rides the power curve and phi_3 the upper curve
    # the pair (0, x) vs (x, x) violates componentwise monotonicity
    for rec in build6.schedule[1:]:
        x = float(np.exp(rec.logt_next)) * 0.999
        if x > 1e300:
            continue
        if phi.value(0.0, x) > phi.value(x, x):
            break
    else:
        pytest.fail("no violation found on schedule points")


def test_eval_overflow_flagged():
    phi = intro_exp_fn()
    with pytest.raises(RangeError):
        eval2d(phi, (0.0, 2000.0))
    assert np.isfinite(phi.log_value_dir(0.0, 1.0, np.log(2000.0)))


def test_grad_quadratic_identity():
    assert np.allclose(quadratic_fn().grad(1.0, 2.0), [1.0, 2.0])
    assert np.allclose(quadratic_fn().grad(0.0, 0.0), [0.0, 0.0])


def test_grad_power_sum():
    assert np.allclose(power_sum_fn(4, 2).grad(1.0, 1.0), [4.0, 2.0])


def test_grad_is_subgradient(rng, build6):
    from anisolab.aniso2d import constructed_triple_fn

    for phi in (quadratic_fn(), power_sum_fn(2, 4), constructed_triple_fn(build6)):
        xi = rng.uniform(-4, 4, (200, 2))
        eta = rng.uniform(-4, 4, (200, 2))
        f_xi = phi.value(xi[:, 0], xi[:, 1])
        f_eta = phi.value(eta[:, 0], eta[:, 1])
        gx, gy = phi.grad(xi[:, 0], xi[:, 1])
        lin = gx * (eta[:, 0] - xi[:, 0]) + gy * (eta[:, 1] - xi[:, 1])
        scale = np.maximum(1.0, np.abs(f_eta))
        assert np.all(f_eta >= f_xi + lin - 1e-9 * scale)


def test_evenness_exact(rng):
    phi = trudinger_fn()
    pts = rng.uniform(-5, 5, (100, 2))
    assert np.array_equal(
        phi.value(pts[:, 0], pts[:, 1]), phi.value(-pts[:, 0], -pts[:, 1])
    )


def test_segment_convexity(rng):
    phi = intro_exp_fn()
    a = rng.uniform(-3, 3, (1000, 2))
    b = rng.uniform(-3, 3, (1000, 2))
    mid = 0.5 * (a + b)
    fmid = phi.value(mid[:, 0], mid[:, 1])
    favg = 0.5 * (phi.value(a[:, 0], a[:, 1]) + phi.value(b[:, 0], b[:, 1]))
    scale = np.maximum(1.0, favg)
    assert np.all(fmid <= favg + 1e-9 * scale)


def test_directions_must_span():
    with pytest.raises(ValueError):
        AnisoFn2D([(1.0, 0.0, PowerFn(2)), (2.0, 0.0, PowerFn(2))])


def test_conjugate_quadratic_analytic():
    spec = GridSpec2D.square(4.0, 129)
    star = conjugate2d(quadratic_fn(), spec)
    X, Y = np.meshgrid(star.x, star.y, indexing="ij")
    ref = 0.5 * (X**2 + Y**2)
    assert np.max(np.abs(star.values - ref)) / np.max(ref) <= 0.01
    assert star.values[64, 64] == 0.0  # conjugate vanishes at the origin


def test_conjugate_power_analytic():
    spec = GridSpec2D.square(4.0, 129)
    star = conjugate2d(radial_power_fn(3.0, 1.0 / 3.0), spec)
    X, Y = np.meshgrid(star.x, star.y, indexing="ij")
    ref = np.hypot(X, Y) ** 1.5 / 1.5
    assert np.max(np.abs(star.values - ref)) / np.max(ref) <= 0.01


@pytest.mark.parametrize(
    "phi",
    [
        radial_power_fn(1.5),
        power_sum_fn(2, 4),
        AnisoFn2D([(1.0, 0.0, PowerFn(2.0)), (1.0, -1.0, PowerFn(3.0, 0.5))], name="sheared"),
    ],
    ids=lambda phi: phi.name,
)
def test_closed_form_conjugates_match_the_discrete_legendre(phi):
    # the discrete max over the primal grid never exceeds Phi*, and on a
    # fine grid it comes within a percent of it
    spec = GridSpec2D.square(2.0, 65)
    star = conjugate2d(phi, spec, primal_spec=GridSpec2D.square(4.0, 257))
    X, Y = np.meshgrid(star.x, star.y, indexing="ij")
    exact = phi.conjugate(X, Y)
    assert np.all(star.values <= exact + 1e-12 * np.max(exact))
    assert np.max(exact - star.values) <= 0.01 * np.max(exact)


def test_conjugate_is_none_without_a_closed_form(build6):
    from anisolab.aniso2d import constructed_triple_fn

    for phi in (trudinger_fn(), intro_exp_fn(), constructed_triple_fn(build6)):
        assert phi.conjugate is None


def test_conjugate_box_autoexpansion():
    spec = GridSpec2D.square(4.0, 65)
    tight = GridSpec2D.square(1.0, 65)
    star = conjugate2d(quadratic_fn(), spec, primal_spec=tight)
    X, Y = np.meshgrid(star.x, star.y, indexing="ij")
    ref = 0.5 * (X**2 + Y**2)
    assert np.max(np.abs(star.values - ref)) / np.max(ref) <= 0.02


def test_conjugate_box_too_small():
    spec = GridSpec2D.square(4.0, 65)
    # four doublings take the primal box to 3.2, short of the dual box 4.0
    tight = GridSpec2D.square(0.2, 65)
    with pytest.raises(BoxTooSmallError, match="after 4 doublings"):
        conjugate2d(quadratic_fn(), spec, primal_spec=tight)


def test_young_inequality_analytic_pairs(rng):
    phi = quadratic_fn()
    xi = rng.uniform(-3, 3, (10_000, 2))
    eta = rng.uniform(-3, 3, (10_000, 2))
    slack = verify_young_inequality(phi, quadratic_fn(), xi, eta)
    assert slack <= 1e-6
    # Fenchel equality at gradient pairs
    eq = verify_young_inequality(phi, quadratic_fn(), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert eq == pytest.approx(0.0, abs=1e-15)
    zero = verify_young_inequality(
        phi, quadratic_fn(), np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]])
    )
    assert zero == 0.0


def test_young_inequality_sampled_conjugate(rng):
    spec = GridSpec2D.square(4.0, 129)
    phi = power_sum_fn(2, 4)
    star = conjugate2d(phi, spec)
    ii = rng.integers(0, 129, 3000)
    jj = rng.integers(0, 129, 3000)
    pi = rng.integers(0, 129, 3000)
    pj = rng.integers(0, 129, 3000)
    xi = np.stack([spec.x[pi], spec.x[pj]], axis=-1)
    slack = verify_young_inequality(phi, star, xi, (ii, jj))
    assert slack <= 1e-12


def test_involution_and_minorant():
    spec = GridSpec2D.square(4.0, 129)
    for phi in (quadratic_fn(), power_sum_fn(2, 4)):
        err = involution_error(phi, spec)
        assert err <= 0.02
        back, _ = biconjugate2d(phi, spec)
        X, Y = np.meshgrid(spec.x, spec.y, indexing="ij")
        ref = phi.value(X, Y)
        # the discrete transform is a minorant up to the first transform's
        # own discretization error (grid tolerance)
        scale = float(np.max(np.abs(ref)))
        assert np.all(back.values <= ref + 0.01 * scale)
        assert abs(back.values[64, 64]) <= 1e-12


def test_sampled_roundtrips(tmp_path):
    spec = GridSpec2D.square(2.0, 33)
    X, Y = np.meshgrid(spec.x, spec.y, indexing="ij")
    s = SampledFn2D.from_spec(spec, X**2 + Y**2)
    p = tmp_path / "f.bin"
    s.to_binary(p)
    back = SampledFn2D.from_binary(p)
    assert np.array_equal(back.values, s.values)
    assert back.x0 == s.x0 and back.hx == s.hx
    c = tmp_path / "f.csv"
    s.to_csv(c)
    lines = c.read_text().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 33 * 33
    # plain shortest round-trip floats, bit for bit
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 0], np.repeat(s.x, 33))
    assert np.array_equal(rows[:, 1], np.tile(s.y, 33))
    assert np.array_equal(rows[:, 2], s.values.ravel())


def _brute_legendre(xs, ys, values, eta1, eta2):
    """Exhaustive iterated max-reduction: the reference the transform
    must match bit for bit, argmax ties going to the lowest index."""
    tmp = eta1[:, None, None] * xs[None, :, None] - values[None, :, :]
    arg1 = np.argmax(tmp, axis=1)
    g1 = np.take_along_axis(tmp, arg1[:, None, :], axis=1)[:, 0, :]
    tmp = eta2[None, :, None] * ys[None, None, :] + g1[:, None, :]
    jarg = np.argmax(tmp, axis=2)
    star = np.max(tmp, axis=2)
    iarg = arg1[np.arange(len(eta1))[:, None], jarg]
    return star, iarg, jarg


def _assert_matches_brute(xs, ys, values, eta1, eta2):
    star, iarg, jarg = _legendre_kernel(xs, ys, values, eta1, eta2)
    ref_star, ref_i, ref_j = _brute_legendre(xs, ys, values, eta1, eta2)
    assert np.array_equal(star, ref_star)
    assert np.array_equal(iarg, ref_i)
    assert np.array_equal(jarg, ref_j)


def test_legendre_matches_brute_force_nonconvex(rng):
    # random rows are far from convex; random sizes make nx != ny and m != n
    for _ in range(40):
        nx, ny, m1, m2 = rng.integers(1, 48, 4)
        xs = np.sort(rng.uniform(-3.0, 3.0, nx))
        ys = np.linspace(-1.5, 2.5, ny)
        values = rng.normal(size=(nx, ny)) * rng.uniform(0.1, 100.0)
        e = rng.uniform(0.1, 10.0)
        _assert_matches_brute(xs, ys, values, np.linspace(-e, e, m1), np.linspace(-0.5 * e, 2 * e, m2))


def test_legendre_blocked_merge_matches_brute_force(rng, monkeypatch):
    # merge blocks of one or a few rows, the last one short, give what one
    # block over all rows gives
    for block in (1, 100, 300):
        monkeypatch.setattr(aniso2d, "_MERGE_BLOCK", block)
        for _ in range(10):
            nx, ny, m1, m2 = rng.integers(2, 40, 4)
            xs, ys = np.sort(rng.uniform(-3.0, 3.0, nx)), np.linspace(-1.5, 2.5, ny)
            values = rng.normal(size=(nx, ny)) * 10.0
            values[rng.uniform(size=values.shape) < 0.2] = np.inf
            _assert_matches_brute(xs, ys, values, np.linspace(-4, 4, m1), np.linspace(-2, 8, m2))


def test_legendre_matches_brute_force_with_inf_samples(rng):
    for _ in range(30):
        nx, ny, m1, m2 = rng.integers(2, 40, 4)
        xs, ys = np.linspace(-2.0, 2.0, nx), np.linspace(-3.0, 1.0, ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        values = X**2 + np.abs(X - Y) ** 3 + rng.normal(size=X.shape)
        values[rng.uniform(size=values.shape) < 0.3] = np.inf
        values[rng.integers(nx), :] = np.inf
        values[:, rng.integers(ny)] = np.inf
        _assert_matches_brute(xs, ys, values, np.linspace(-4, 4, m1), np.linspace(-5, 3, m2))
    # every sample +inf: the conjugate is -inf and the argmax index 0
    values = np.full((5, 7), np.inf)
    star, iarg, jarg = _legendre_kernel(np.arange(5.0), np.arange(7.0), values, np.arange(3.0), np.arange(4.0))
    assert np.all(star == -np.inf) and not iarg.any() and not jarg.any()
    _assert_matches_brute(np.arange(5.0), np.arange(7.0), values, np.arange(3.0), np.arange(4.0))


def test_legendre_matches_brute_force_outside_slope_range(rng):
    # dual nodes far beyond every chord slope land on the primal box edge
    xs, ys = np.linspace(-1.0, 1.0, 31), np.linspace(-2.0, 2.0, 23)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    values = np.hypot(X, Y) ** 3 + 0.1 * rng.normal(size=X.shape)
    for e in (0.01, 1.0, 1e3, 1e6):
        _assert_matches_brute(xs, ys, values, np.linspace(-e, e, 17), np.linspace(-2 * e, e, 29))
    star, iarg, jarg = _legendre_kernel(xs, ys, values, np.array([-1e6, 1e6]), np.array([1e6]))
    assert list(iarg[:, 0]) == [0, 30] and np.all(jarg == 22)


def test_legendre_mixed_rows_match_brute_force(rng, monkeypatch):
    # one block of rows of three kinds: strictly convex rows are merged,
    # rows with a bump or with +inf samples are maximized exhaustively
    n, eta1, eta2 = 29, np.linspace(-6.0, 6.0, 23), np.linspace(-3.0, 3.0, 17)
    x = np.linspace(-2.0, 2.0, n)
    kinds = np.arange(30) % 3
    rows = np.empty((kinds.size, n))
    for r, kind in enumerate(kinds):
        rows[r] = rng.uniform(0.5, 3.0) * x**2 + rng.uniform(-1.0, 1.0) * x + rng.normal()
        if kind == 1:
            rows[r, rng.integers(1, n - 1)] += 0.5
        elif kind == 2:
            rows[r, rng.uniform(size=n) < 0.3] = np.inf
    assert np.array_equal(aniso2d._convex_rows(x, rows, np.ones(kinds.size)), kinds == 0)
    # _legendre_kernel's first pass runs _legendre_1d on exactly these rows,
    # one row per block under the small _MERGE_BLOCK
    ys = np.linspace(-1.0, 1.0, kinds.size)
    for block in (40, aniso2d._MERGE_BLOCK):
        monkeypatch.setattr(aniso2d, "_MERGE_BLOCK", block)
        _assert_matches_brute(x, ys, rows.T, eta1, eta2)


def test_builtin_conjugates_merge_every_row(build6, monkeypatch):
    # builtin Young functions and their partial conjugates are convex rows:
    # none of them may fall back to the O(n m) exhaustive path
    masks = []
    convex_rows = aniso2d._convex_rows

    def record(x, v, scale):
        masks.append(convex_rows(x, v, scale))
        return masks[-1]

    monkeypatch.setattr(aniso2d, "_convex_rows", record)
    spec = GridSpec2D.square(4.0, 129)
    for phi in (
        quadratic_fn(),
        power_sum_fn(2, 4),
        trudinger_fn(),
        intro_exp_fn(),
        radial_power_fn(3, 1 / 3),
        aniso2d.constructed_triple_fn(build6),
    ):
        conjugate2d(phi, spec)
    involution_error(quadratic_fn(), GridSpec2D.square(4.0, 65))
    assert len(masks) >= 16  # two passes per transform, eight transforms at least
    assert all(mask.all() for mask in masks)


def test_legendre_exact_ties_go_to_lowest_index(rng):
    # integer data: every product is exact, so collinear runs tie exactly
    for _ in range(30):
        nx, ny, m1, m2 = rng.integers(2, 40, 4)
        xs, ys = np.arange(nx) - nx // 2.0, np.arange(ny) - ny // 3.0
        values = rng.integers(-3, 4, (nx, ny)) * 4.0 + 2.0 * np.abs(xs)[:, None]
        _assert_matches_brute(xs, ys, values, np.arange(m1) - m1 // 2.0, (np.arange(m2) - m2 // 2.0) / 2.0)
    # quadratic on a primal box twice the dual box: dual nodes fall on chord
    # slopes, where the winner is decided by float rounding
    for n, c in ((33, 0.5), (65, 0.5), (65, 0.6)):
        dual, primal = GridSpec2D.square(4.0, n), GridSpec2D.square(8.0, 2 * n - 1)
        X, Y = np.meshgrid(primal.x, primal.y, indexing="ij")
        values = power_sum_fn(2, 2, c, c).value(X, Y)
        _assert_matches_brute(primal.x, primal.y, values, dual.x, dual.y)


def test_legendre_rounding_near_ties(rng):
    # points a few ulps off a line or a parabola: float rounding, not the
    # exact hull, decides which of them the exhaustive argmax picks
    for _ in range(20):
        n, m = (int(k) for k in rng.integers(5, 40, 2))
        xs, ys = np.linspace(-rng.uniform(1, 5), rng.uniform(1, 5), n), np.linspace(-2.0, 2.0, n + 3)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        a, b = rng.uniform(0.1, 3.0, 2)
        values = a * np.abs(X) + b * np.abs(X - Y) + 0.3 * np.abs(Y)
        eta1 = np.sort(np.concatenate([np.linspace(-3 * a, 3 * a, m), [-a, a, b, a + b]]))
        _assert_matches_brute(xs, ys, values, eta1, np.linspace(-3 * b, 3 * b, m + 2))

        xs, ys = np.linspace(-1.0, 1.0, n), np.linspace(-1.0, 1.0, n + 1)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        values = 500.0 * (X**2 + Y**2)
        values += rng.integers(-4, 5, values.shape) * np.spacing(values + 1.0)
        _assert_matches_brute(xs, ys, values, np.linspace(-1e3, 1e3, m), np.linspace(-1e3, 1e3, m))
        # a large offset puts the rounding of v far above that of eta * x
        values = 1e8 + X**2 + Y**2 + np.abs(X)
        _assert_matches_brute(xs, ys, values, np.linspace(-3, 3, m), np.linspace(-3, 3, m))


def test_conjugate_rejects_invalid_samples():
    spec = GridSpec2D.square(1.0, 5)
    for bad in (np.nan, -np.inf):
        values = np.zeros((5, 5))
        values[2, 3] = bad
        with pytest.raises(ValueError):
            conjugate_of_samples(SampledFn2D.from_spec(spec, values), spec)
    flipped = SampledFn2D(x0=1.0, y0=-1.0, hx=-0.5, hy=0.5, values=np.zeros((5, 5)))
    with pytest.raises(ValueError):
        conjugate_of_samples(flipped, spec)
    for ex, ey in ((0.0, 1.0), (1.0, -1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError):
            GridSpec2D(ex, ey, 5)


def _header(nx, ny, x0=-1.0, y0=-1.0, h=0.5):
    return struct.pack("<qqddd", nx, ny, x0, y0, h)


def test_from_binary_rejects_malformed_files(tmp_path, rng):
    nx, ny = (int(k) for k in rng.integers(1, 9, 2))
    payload = rng.normal(size=nx * ny).astype("<f8").tobytes()
    good = tmp_path / "good.bin"
    good.write_bytes(_header(nx, ny) + payload)
    assert SampledFn2D.from_binary(good).values.shape == (nx, ny)
    cut = int(rng.integers(1, 8 * nx * ny))
    extra = int(rng.integers(1, 64))
    bad = {
        "short_header": _header(nx, ny)[: int(rng.integers(0, 40))],
        "zero_nx": _header(0, ny) + payload,
        "negative_ny": _header(nx, -int(rng.integers(1, 2**40))) + payload,
        "nan_h": _header(nx, ny, h=np.nan) + payload,
        "inf_h": _header(nx, ny, h=np.inf) + payload,
        "zero_h": _header(nx, ny, h=0.0) + payload,
        "negative_h": _header(nx, ny, h=-0.5) + payload,
        "inf_origin": _header(nx, ny, x0=np.inf) + payload,
        "short_payload": _header(nx, ny) + payload[:-cut],
        "long_payload": _header(nx, ny) + payload + bytes(extra),
        "huge_size": _header(2**31, 2**31) + payload,
    }
    for name, data in bad.items():
        p = tmp_path / f"{name}.bin"
        p.write_bytes(data)
        with pytest.raises(ValueError):
            SampledFn2D.from_binary(p)


def test_value_and_grad_is_value_and_grad_bit_for_bit(build6):
    from anisolab.aniso2d import constructed_triple_fn

    phis = [radial_power_fn(p) for p in (1.0, 1.5, 2.0, 3.0)]
    phis += [quadratic_fn(), power_sum_fn(2, 4), trudinger_fn(), intro_exp_fn()]
    phis.append(constructed_triple_fn(build6))
    # xi = 0, the axes, the diagonal (where x - y vanishes) and spread cells
    ax = np.array([-7.0, -1.0, -0.3, 0.0, 1e-9, 0.3, 1.0, 7.0])
    x, y = np.meshgrid(ax, ax, indexing="ij")
    for phi in phis:
        val, gx, gy = phi.value_and_grad(x, y)
        rx, ry = phi.grad(x, y)
        assert np.array_equal(val, phi.value(x, y)), phi.name
        assert np.array_equal(gx, rx) and np.array_equal(gy, ry), phi.name
        for a, b in ((0.0, 0.0), (0.3, 0.3), (-1.0, 0.3)):
            out = phi.value_and_grad(a, b)
            assert all(type(v) is float for v in out), phi.name
            assert out == (phi.value(a, b), *phi.grad(a, b)), phi.name


@pytest.mark.parametrize("cls", [AnisoFn2D, RadialFn2D])
def test_protocol_methods_live_in_each_class_dict(cls):
    # the benchmark's tracer wraps cls.__dict__["value"] and ["grad"] class by class
    names = ("value", "grad", "value_and_grad", "log_value_dir", "is_doubling")
    assert all(callable(cls.__dict__.get(name)) for name in names)


# value, grad, value_and_grad and log_value_dir as AnisoFn2D and
# RadialFn2D each wrote them before one class decorator installed them,
# kept verbatim as the reference the protocol must reproduce bit for bit.
def _aniso_value(self, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    for dx, dy, fn in self.terms:
        out = out + fn.value(np.abs(dx * x + dy * y))
    return out if out.ndim else float(out)


def _aniso_log_value_dir(self, ux, uy, logr):
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    logr = np.asarray(logr, dtype=float)
    parts = []
    for dx, dy, fn in self.terms:
        c = np.abs(dx * ux + dy * uy)
        with np.errstate(divide="ignore"):
            parts.append(fn.log_value(np.log(c) + logr))
    out = logaddexp_many(*parts)
    return out if np.ndim(out) else float(out)


def _aniso_grad(self, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx = np.zeros(np.broadcast(x, y).shape)
    gy = np.zeros_like(gx)
    for dx, dy, fn in self.terms:
        s = dx * x + dy * y
        v = np.sign(s) * fn.derivative(np.abs(s))
        gx = gx + v * dx
        gy = gy + v * dy
    if gx.ndim:
        return gx, gy
    return float(gx), float(gy)


def _aniso_value_and_grad(self, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    gx = np.zeros_like(out)
    gy = np.zeros_like(out)
    for dx, dy, fn in self.terms:
        s = dx * x + dy * y
        val, der = fn.value_and_derivative(np.abs(s))
        out = out + val
        v = np.sign(s) * der
        gx = gx + v * dx
        gy = gy + v * dy
    if out.ndim:
        return out, gx, gy
    return float(out), float(gx), float(gy)


def _radial_value(self, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    out = self.fn.value(r)
    return out if np.ndim(out) else float(out)


def _radial_log_value_dir(self, ux, uy, logr):
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    with np.errstate(divide="ignore"):
        logn = np.log(np.hypot(ux, uy))
    out = self.fn.log_value(logn + np.asarray(logr, dtype=float))
    return out if np.ndim(out) else float(out)


def _radial_grad(self, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 0.0, self.fn.derivative(r) / np.where(r > 0, r, 1.0), 0.0)
    gx, gy = scale * x, scale * y
    if np.ndim(gx):
        return gx, gy
    return float(gx), float(gy)


def _radial_value_and_grad(self, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    out, der = self.fn.value_and_derivative(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 0.0, der / np.where(r > 0, r, 1.0), 0.0)
    gx, gy = scale * x, scale * y
    if np.ndim(gx):
        return out, gx, gy
    return float(out), float(gx), float(gy)


_REFERENCE = {
    AnisoFn2D: (_aniso_value, _aniso_grad, _aniso_value_and_grad, _aniso_log_value_dir),
    RadialFn2D: (_radial_value, _radial_grad, _radial_value_and_grad, _radial_log_value_dir),
}


def _same_bits(a, b):
    """Same type, shape and bytes: stricter than array_equal, which takes
    -0.0 for 0.0."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same_bits, a, b))
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_protocol_reproduces_the_per_type_formulas_bit_for_bit(build6):
    from anisolab.aniso2d import constructed_triple_fn

    phis = [radial_power_fn(p) for p in (1.0, 1.5, 2.0, 3.0)]
    phis += [quadratic_fn(), power_sum_fn(2, 4), trudinger_fn(), intro_exp_fn()]
    phis.append(constructed_triple_fn(build6))
    # xi = 0, the axes, the diagonal (where x - y vanishes), spread cells
    # and cells whose derivatives underflow to signed zeros
    ax = np.array([-7.0, -1.0, -0.3, -1e-200, 0.0, 1e-200, 1e-9, 0.3, 1.0, 7.0])
    x, y = np.meshgrid(ax, ax, indexing="ij")
    points = [(x, y), (0.0, 0.0), (0.3, 0.3), (-1.0, 0.3), (-1.0, -1.0)]
    for phi in phis:
        value, grad, value_and_grad, log_value_dir = _REFERENCE[type(phi)]
        for a, b in points:
            assert _same_bits(phi.value(a, b), value(phi, a, b)), phi.name
            assert _same_bits(phi.grad(a, b), grad(phi, a, b)), phi.name
            assert _same_bits(phi.value_and_grad(a, b), value_and_grad(phi, a, b)), phi.name
            for logr in (0.0, 3.0, -50.0):
                assert _same_bits(phi.log_value_dir(a, b, logr), log_value_dir(phi, a, b, logr)), phi.name
