from decimal import Decimal, localcontext

import numpy as np
import pytest

from anisolab.aniso2d import constructed_triple_fn, quadratic_fn
from anisolab.construction import build_triple
from anisolab.numerics import safe_exp
from anisolab.tables import MonotoneTable
from anisolab.young1d import (
    LinearPiece,
    PiecewiseYoungFn1D,
    PowerExpFn,
    PowerFn,
    PowerLogBaseFn,
    PowerLogFn,
    check_convex,
    inverse1d_log,
    is_doubling,
)


def test_eval_power():
    assert PowerFn(2).value(3.0) == pytest.approx(9.0, rel=1e-14)


def test_eval_at_zero_is_zero():
    for f in (PowerFn(2), PowerLogFn(2, 1), PowerExpFn(2)):
        assert f.value(0.0) == 0.0


def test_eval_powerlog_closed_form():
    # t^2 log(t+1) at t = 2 -> 4 ln 3
    assert PowerLogFn(2, 1).value(2.0) == pytest.approx(4.0 * np.log(3.0), rel=1e-12)


def test_eval_negative_rejected():
    with pytest.raises(ValueError):
        PowerFn(2).value(-1.0)


def test_eval_overflow_gives_inf():
    assert PowerExpFn(2).value(1000.0) == np.inf
    assert PowerExpFn(2).derivative(1000.0) == np.inf
    # the log path still works out there
    assert np.isfinite(PowerExpFn(2).log_value(np.log(1000.0)))
    assert np.isfinite(PowerLogFn(2, 1).log_value(500.0))


def test_derivative_power():
    assert PowerFn(2).derivative(3.0) == pytest.approx(6.0, rel=1e-14)


def test_derivative_linear_piece():
    line = LinearPiece(np.log(5.0), 0.0, 0.0)
    assert float(np.exp(line.log_derivative(2.0))) == pytest.approx(5.0, rel=1e-14)


def test_derivative_powerlog_product_rule():
    want = 4.0 * np.log(3.0) + 4.0 / 3.0
    assert PowerLogFn(2, 1).derivative(2.0) == pytest.approx(want, rel=1e-12)


def test_inverse_roundtrips():
    assert np.exp(inverse1d_log(PowerFn(2), np.log(9.0))) == pytest.approx(3.0, rel=1e-9)
    assert np.exp(inverse1d_log(PowerLogFn(2, 1), np.log(4.0 * np.log(3.0)))) == pytest.approx(
        2.0, rel=1e-9
    )
    # far past double range
    assert inverse1d_log(PowerFn(2), 2000.0) == pytest.approx(1000.0, rel=1e-12)


def test_inverse_eval_identity_sampled(build6):
    for f in build6.phi:
        ts = np.logspace(-2, 3, 40)
        ys = f.value(ts)
        back = np.exp([inverse1d_log(f, np.log(y)) for y in ys])
        assert np.allclose(back, ts, rtol=1e-8)


def test_eval_nondecreasing_sampled(build6):
    logts = np.linspace(-5, 2000, 800)
    for f in build6.phi:
        vals = f.log_value(logts)
        assert np.all(np.diff(vals) >= -1e-12)


def test_convexity_power_and_constructed(build6):
    assert check_convex(PowerFn(2)).ok
    for f in build6.phi:
        rep = check_convex(f)
        assert rep.ok, rep


def test_convexity_negative_control():
    # slope 5 then slope 1: a concave kink at t = 1
    p1 = LinearPiece(np.log(5.0), -30.0, np.log(5.0) - 30.0)  # f = 5 t
    p2 = LinearPiece(0.0, 0.0, p1.log_value(0.0))  # f = 5 + (t - 1)
    f = PiecewiseYoungFn1D([p1, p2], [0.0])
    rep = check_convex(f)
    assert not rep.ok
    assert rep.worst_violation > 1e-3


def test_exponential_not_doubling():
    assert not is_doubling(PowerExpFn(2))
    assert is_doubling(PowerFn(2))
    assert is_doubling(PowerLogFn(2, 1))


@pytest.mark.parametrize("cycles", range(10))
def test_every_build_of_the_triple_is_doubling(cycles):
    build = build_triple(2.0, 1.0, cycles)
    assert all(is_doubling(f) for f in build.phi)
    assert constructed_triple_fn(build).is_doubling()


def test_a_piecewise_exponential_tail_is_not_doubling():
    # t^2 up to t = 1, then t^2 e^(t - 1)
    f = PiecewiseYoungFn1D([PowerFn(2), PowerExpFn(2, np.exp(-1.0))], [0.0])
    assert not is_doubling(f)


def test_an_exponential_head_continued_by_a_line_is_doubling():
    # t^2 e^t up to t = 1, then its tangent line there
    head = PowerExpFn(2)
    line = LinearPiece(head.log_derivative(0.0), 0.0, head.log_value(0.0))
    assert is_doubling(PiecewiseYoungFn1D([head, line], [0.0]))


def test_nfunction_report(build6):
    # an N-function's ratio f(t) / t grows without bound at infinity and
    # vanishes at zero: from t = 1 it rises by a factor e out to t = e^10
    # and falls by one in to t = e^-10
    logts = np.array([-10.0, 0.0, 10.0])
    for f in build6.phi:
        low, one, high = f.log_value(logts) - logts
        assert high > one + 1.0
        assert low < one - 1.0


def test_continuity_guard():
    bad = [PowerFn(2), PowerFn(3)]  # t^2 vs t^3 mismatch at logt=1
    with pytest.raises(ValueError):
        PiecewiseYoungFn1D(bad, [1.0])


def test_piece_validation():
    with pytest.raises(ValueError):
        PowerFn(0.5)
    with pytest.raises(ValueError):
        PowerLogFn(2, 0.0)


def test_piecewise_vanishes_at_zero(build6):
    for f in build6.phi:
        assert f.value(0.0) == 0.0
        assert f.log_value(-np.inf) == -np.inf


_X = np.logspace(-3, 3, 25)
PROTOCOL_CASES = {
    "power": lambda b: PowerFn(2.5, 3.0),
    "powerlog": lambda b: PowerLogFn(2, 1),
    "powerlogbase": lambda b: PowerLogBaseFn(2, -0.5, np.e),
    "powerexp": lambda b: PowerExpFn(2),
    "table": lambda b: MonotoneTable.from_values(_X, 2.0 * _X**2.5),
    "piecewise-build6": lambda b: b.phi[0],
    "piece-power": lambda b: PiecewiseYoungFn1D([PowerFn(2.5, 3.0)], []),
    "piece-powerlog": lambda b: PiecewiseYoungFn1D([PowerLogFn(2, 1)], []),
    # t^2 up to t = 1, then 1 + 2 (t - 1)
    "piece-linear": lambda b: PiecewiseYoungFn1D(
        [PowerFn(2), LinearPiece(np.log(2.0), 0.0, 0.0)], [0.0]
    ),
}


def _decimal_power_pair(f, t):
    """(coef t**p, coef p t**(p - 1)) of a PowerFn at each t, rounded
    from 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        c, p = Decimal(f.coef), Decimal(f.p)
        pairs = []
        for x in np.ravel(t):
            x = Decimal(float(x))
            w = x ** (p - 1) if f.p != 1.0 else Decimal(1)
            pairs.append((float(c * x * w), float(c * p * w)))
    val, der = np.array(pairs).T
    return val.reshape(np.shape(t)), der.reshape(np.shape(t))


def _ulps(got, ref):
    return np.abs(got - ref) / np.spacing(ref)


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_one_protocol_edge_rules(name, build6):
    f = PROTOCOL_CASES[name](build6)
    t = np.array([[0.0, 0.5], [3.0, 40.0]])
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    # a type with a value kernel is held to a decimal reference, every
    # other one to exp of its log form bit for bit
    value_kernel = "_value_and_derivative" in type(f).__dict__
    refs = _decimal_power_pair(f, t) if value_kernel else (None, None)
    for plain, log_fn, ref in zip((f.value, f.derivative), (f.log_value, f.log_derivative), refs):
        out = plain(t)
        assert out.shape == t.shape
        if value_kernel:
            assert np.all(_ulps(out, ref) <= 2.0)
        else:
            assert np.array_equal(out, safe_exp(log_fn(logt)))
        assert type(plain(3.0)) is float and plain(3.0) == out[1, 0]
        assert log_fn(-np.inf) == -np.inf
        with pytest.raises(ValueError):
            plain(-1.0)
        with pytest.raises(ValueError):
            plain(np.array([1.0, -1e-300]))
    assert f.value(0.0) == 0.0
    assert np.isfinite(f.derivative(0.0))


def test_piece_evaluation_builds_no_closed_form(build6, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("closed form built during evaluation")

    for cls in (PowerFn, PowerLogFn):
        monkeypatch.setattr(cls, "__init__", refuse)
    logts = np.linspace(-5, 2000, 200)
    for f in build6.phi:
        assert np.all(np.isfinite(f.log_value(logts)))
        assert np.all(np.isfinite(f.log_derivative(logts)))


PROTOCOL_NAMES = ("log_value", "log_derivative", "value", "derivative", "value_and_derivative")


@pytest.mark.parametrize(
    "cls",
    [PowerFn, PowerLogFn, PowerLogBaseFn, PowerExpFn, LinearPiece, PiecewiseYoungFn1D,
     MonotoneTable],
)
def test_protocol_methods_live_in_each_class_dict(cls):
    # the benchmark's tracer wraps cls.__dict__[name] class by class
    assert all(callable(cls.__dict__.get(name)) for name in PROTOCOL_NAMES)


def _fused_cases():
    """Every protocol type: closed forms, a linear piece, the three
    functions of build_triple(2, 1, 3) and each of their pieces, a table."""
    build = build_triple(2.0, 1.0, 3)
    cases = {
        "power": PowerFn(2.5, 3.0),
        "power-p1": PowerFn(1.0, 2.0),
        "powerlog": PowerLogFn(2, 1),
        "powerlogbase": PowerLogBaseFn(2, -0.5, np.e),
        "powerexp": PowerExpFn(2),
        "linear": LinearPiece(np.log(2.0), 0.0, 0.0),
        "table": MonotoneTable.from_values(_X, 2.0 * _X**2.5),
    }
    for k, f in enumerate(build.phi):
        cases[f"triple-phi{k + 1}"] = f
        for i, piece in enumerate(f.pieces):
            cases[f"triple-phi{k + 1}-piece{i}"] = piece
    return cases


def test_value_and_derivative_is_value_and_derivative_bit_for_bit():
    # 0, tiny, moderate, and arguments where value and derivative overflow to +inf
    t = np.array([0.0, 1e-300, 0.5, 3.0, 40.0, 800.0, 1e200, 1e308])
    for name, f in _fused_cases().items():
        val, der = f.value_and_derivative(t)
        assert np.isposinf(val[-1]), name
        assert np.array_equal(val, f.value(t)) and np.array_equal(der, f.derivative(t)), name
        grid = t.reshape(2, 4)
        val, der = f.value_and_derivative(grid)
        assert val.shape == der.shape == grid.shape
        assert np.array_equal(val, f.value(grid)) and np.array_equal(der, f.derivative(grid)), name
        for x in t:
            val, der = f.value_and_derivative(x)
            assert type(val) is float and type(der) is float, name
            assert np.array_equal(val, f.value(x)) and np.array_equal(der, f.derivative(x)), (name, x)
        with pytest.raises(ValueError):
            f.value_and_derivative(np.array([1.0, -1e-300]))


@pytest.mark.parametrize(
    "form",
    [PowerFn(2.5, 3.0), PowerFn(1.0, 2.0), PowerLogFn(2, 1), LinearPiece(np.log(2.0), 0.0, 0.0)],
    ids=["power", "power-p1", "powerlog", "linear"],
)
def test_one_piece_function_equals_its_form_bit_for_bit(form):
    f = PiecewiseYoungFn1D([form], [])
    logts = np.array([-np.inf, -30.0, 0.0, 1500.0])
    for name in ("log_value", "log_derivative"):
        whole, bare = getattr(f, name), getattr(form, name)
        assert np.array_equal(whole(logts), bare(logts))
        assert np.array_equal(whole(logts.reshape(2, 2)), bare(logts.reshape(2, 2)))
        for x in logts:
            assert type(whole(x)) is float
            assert np.array_equal(whole(x), bare(x))
            assert np.array_equal(whole(np.array(x)), bare(np.array(x)))
    # the piecewise function's plain values are exp of its pieces' log
    # kernels, whatever value kernel the form has of its own
    ts = np.exp(logts[:3])
    with np.errstate(divide="ignore"):
        log_ts = np.log(ts)
    for name in ("value", "derivative"):
        via_log = safe_exp(getattr(form, f"log_{name}")(log_ts))
        assert np.array_equal(getattr(f, name)(ts), via_log)
        assert getattr(f, name)(ts[1]) == via_log[1]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 6.0])
def test_power_values_are_within_two_ulp_of_a_decimal_reference(p, rng):
    for coef in (1.0, 1.0 / p, 0.6, 3.0, 1e-3):
        f = PowerFn(p, coef)
        t = 10.0 ** rng.uniform(-40.0, 40.0 / p, 60)
        val, der = _decimal_power_pair(f, t)
        assert np.all(_ulps(f.value(t), val) <= 2.0), coef
        assert np.all(_ulps(f.derivative(t), der) <= 2.0), coef


@pytest.mark.parametrize(
    "f, t",
    [
        (PowerFn(2.5, 0.5), [2e123, 2.5e123]),  # t**p overflows, coef t**p does not
        (PowerFn(2.0, 1e-100), [1e160, 1e200]),
        (PowerFn(2.0, 1e100), [1e-170, 1e-200]),  # t * t underflows, coef t * t does not
        (PowerFn(6.0, 1e200), [1e-60, 1e-80]),
    ],
    ids=["high-p2.5", "high-p2", "low-p2", "low-p6"],
)
def test_power_guard_keeps_the_scaled_result(f, t):
    for mix in (t, [0.0, 1.0] + t):  # alone, and beside elements the power takes
        mix = np.array(mix)
        val, der = f.value_and_derivative(mix)
        with np.errstate(divide="ignore"):
            logt = np.log(mix)
        ref_val, ref_der = safe_exp(f.log_value(logt)), safe_exp(f.log_derivative(logt))
        assert np.all(np.isfinite(val) & np.isfinite(der))
        assert np.all(val[mix > 0] >= np.finfo(float).tiny)
        assert np.all(der[mix > 0] >= np.finfo(float).tiny)
        assert np.allclose(val, ref_val, rtol=1e-13, atol=0.0)
        assert np.allclose(der, ref_der, rtol=1e-13, atol=0.0)
        assert np.array_equal(val, f.value(mix)) and np.array_equal(der, f.derivative(mix))


def test_in_range_grid_takes_no_log_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("log kernel used on an in-range grid")

    for name in ("_log_value", "_log_derivative"):
        monkeypatch.setattr(PowerFn, name, refuse)
    x, y = np.meshgrid(np.linspace(-3.0, 3.0, 41), np.linspace(-1.0, 1.0, 21), indexing="ij")
    val, gx, gy = quadratic_fn(1.0).value_and_grad(x, y)
    assert np.array_equal(val, x * x + y * y)
    assert np.array_equal(gx, 2.0 * x) and np.array_equal(gy, 2.0 * y)


# The piece dispatch that the threshold-mask walk replaced, kept as the
# reference it must reproduce bit for bit.
def _searchsorted_dispatch(f, logt, kernel):
    flat = np.atleast_1d(logt)
    out = np.empty_like(flat)
    idx = np.searchsorted(f.breakpoints_logt, flat, side="right")
    for i, piece in enumerate(f.pieces):
        m = idx == i
        if np.any(m):
            out[m] = getattr(piece, kernel)(flat[m])
    return out.reshape(logt.shape)


def test_dispatch_equals_searchsorted_bit_for_bit(build9, rng):
    for f in build9.phi:
        bp = f.breakpoints_logt
        assert len(f.pieces) == 13
        edges = np.concatenate(
            [bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf)]
        )
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
        logts = np.concatenate([rng.uniform(-50.0, 2500.0, 4000), edges, specials])
        rng.shuffle(logts)
        for kernel in ("_log_value", "_log_derivative"):
            with np.errstate(invalid="ignore", divide="ignore"):
                ref = _searchsorted_dispatch(f, logts, kernel)
                got = getattr(f, kernel)(logts)
                got_2d = getattr(f, kernel)(logts.reshape(-1, 1))
                got_0d = getattr(f, kernel)(np.array(bp[3]))
            assert got.tobytes() == ref.tobytes()
            assert got_2d.tobytes() == ref.tobytes()
            assert got_0d.shape == () and got_0d == ref[np.flatnonzero(logts == bp[3])[0]]
        # one element per piece: the walk must reach the last piece
        one_each = np.concatenate([[bp[0] - 1.0], 0.5 * (bp[:-1] + bp[1:]), [bp[-1] + 1.0]])
        # inputs inside one piece take the one-piece path: each piece on
        # its own, from its left breakpoint (which it owns) to just below
        # its right one, then the ends with their infinities and NaN, and
        # a piece with the next piece's left breakpoint
        lows = np.concatenate([[bp[0] - 60.0], bp])
        highs = np.concatenate([np.nextafter(bp, -np.inf), [bp[-1] + 60.0]])
        one_piece = [np.concatenate([[lo, hi], rng.uniform(lo, hi, 38)]) for lo, hi in zip(lows, highs)]
        cases = [one_each, logts[1:].reshape(-1, 2).T]
        cases += one_piece + [x.reshape(-1, 2).T for x in one_piece]
        cases += [
            np.concatenate([[-np.inf, -np.inf], one_piece[0]]),
            np.full(7, np.nan),
            np.concatenate([[np.inf, np.nan], one_piece[-1]]),
            np.concatenate([[np.nan], one_piece[5]]),
            np.concatenate([one_piece[5], [bp[5]]]),
            np.empty(0),
            np.empty((0, 3)),
        ]
        for x in cases:
            for kernel in ("_log_value", "_log_derivative"):
                with np.errstate(invalid="ignore", divide="ignore"):
                    ref = _searchsorted_dispatch(f, x, kernel)
                    got = getattr(f, kernel)(x)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_power_conjugate_is_the_dense_legendre_max(p):
    fn = PowerFn(p, 0.7)
    t = np.linspace(-20.0, 20.0, 100_001)  # holds every maximizer below
    tau = np.linspace(-3.0, 3.0, 13)
    dense = np.max(tau[:, None] * t - fn.value(np.abs(t)), axis=1)
    assert np.allclose(fn.conjugate(tau), dense, rtol=1e-6, atol=1e-7)
    assert isinstance(fn.conjugate(1.0), float)


def test_power_conjugate_at_p_one_is_an_indicator():
    fn = PowerFn(1.0, 0.7)
    inside = np.array([-0.7, -0.3, 0.0, 0.5, 0.7])
    outside = np.array([-0.8, 1.0])
    for span in (10.0, 20.0):
        t = np.linspace(-span, span, 4001)
        dense = np.max(inside[:, None] * t - fn.value(np.abs(t)), axis=1)
        assert np.allclose(dense, 0.0, atol=1e-14)
        # outside the slope range the dense max grows with the span
        dense = np.max(outside[:, None] * t - fn.value(np.abs(t)), axis=1)
        assert np.allclose(dense, (np.abs(outside) - 0.7) * span)
    assert np.array_equal(fn.conjugate(inside), np.zeros_like(inside))
    assert np.all(np.isinf(fn.conjugate(outside)))
