import numpy as np
import pytest

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
    doubling_indices,
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


def test_doubling_indices_pure_power():
    i, s = doubling_indices(PowerFn(3), np.log(10.0), np.log(1e6))
    assert i == pytest.approx(3.0, abs=1e-9)
    assert s == pytest.approx(3.0, abs=1e-9)


def test_doubling_indices_powerlog_range():
    i, s = doubling_indices(PowerLogFn(2, 1), np.log(10.0), np.log(1e6))
    assert i >= 2.0
    assert s <= 2.5


def test_exponential_not_doubling():
    assert not is_doubling(PowerExpFn(2))
    assert is_doubling(PowerFn(2))
    assert is_doubling(PowerLogFn(2, 1))


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


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_one_protocol_edge_rules(name, build6):
    f = PROTOCOL_CASES[name](build6)
    t = np.array([[0.0, 0.5], [3.0, 40.0]])
    with np.errstate(divide="ignore"):
        logt = np.log(t)
    for plain, log_fn in ((f.value, f.log_value), (f.derivative, f.log_derivative)):
        out = plain(t)
        assert out.shape == t.shape
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


PROTOCOL_NAMES = ("log_value", "log_derivative", "value", "derivative")


@pytest.mark.parametrize(
    "cls",
    [PowerFn, PowerLogFn, PowerLogBaseFn, PowerExpFn, LinearPiece, PiecewiseYoungFn1D,
     MonotoneTable],
)
def test_protocol_methods_live_in_each_class_dict(cls):
    # the benchmark's tracer wraps cls.__dict__[name] class by class
    assert all(callable(cls.__dict__.get(name)) for name in PROTOCOL_NAMES)


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
    ts = np.exp(logts[:3])
    for name in ("value", "derivative"):
        assert np.array_equal(getattr(f, name)(ts), getattr(form, name)(ts))
        assert getattr(f, name)(ts[1]) == getattr(form, name)(ts[1])


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
