import json

import numpy as np
import pytest

from anisolab.numerics import RangeError, safe_exp
from anisolab.tables import MonotoneTable
from anisolab.young1d import (
    Piece,
    PiecewiseYoungFn1D,
    PowerExpFn,
    PowerFn,
    PowerLogBaseFn,
    PowerLogFn,
    check_convex,
    derivative1d,
    doubling_indices,
    eval1d,
    inverse1d,
    is_doubling,
    nfunction_report,
)


def test_eval_power():
    assert eval1d(PowerFn(2), 3.0) == pytest.approx(9.0, rel=1e-14)


def test_eval_at_zero_is_zero():
    for f in (PowerFn(2), PowerLogFn(2, 1), PowerExpFn(2)):
        assert eval1d(f, 0.0) == 0.0


def test_eval_powerlog_closed_form():
    # t^2 log(t+1) at t = 2 -> 4 ln 3
    assert eval1d(PowerLogFn(2, 1), 2.0) == pytest.approx(4.0 * np.log(3.0), rel=1e-12)


def test_eval_negative_rejected():
    with pytest.raises(ValueError):
        eval1d(PowerFn(2), -1.0)


def test_eval_overflow_raises_rangeerror():
    with pytest.raises(RangeError):
        eval1d(PowerExpFn(2), 1000.0)
    # the log path still works out there
    assert np.isfinite(PowerLogFn(2, 1).log_value(500.0))


def test_derivative_power():
    assert derivative1d(PowerFn(2), 3.0) == pytest.approx(6.0, rel=1e-14)


def test_derivative_linear_piece():
    line = Piece.linear(np.log(5.0), 0.0, 0.0)
    assert float(np.exp(line.log_derivative(2.0))) == pytest.approx(5.0, rel=1e-14)


def test_derivative_powerlog_product_rule():
    want = 4.0 * np.log(3.0) + 4.0 / 3.0
    assert derivative1d(PowerLogFn(2, 1), 2.0) == pytest.approx(want, rel=1e-12)


def test_inverse_roundtrips():
    assert inverse1d(PowerFn(2), 9.0) == pytest.approx(3.0, rel=1e-9)
    assert inverse1d(PowerFn(2), 0.0) == 0.0
    assert inverse1d(PowerLogFn(2, 1), 4.0 * np.log(3.0)) == pytest.approx(2.0, rel=1e-9)


def test_inverse_negative_domain_error():
    with pytest.raises(ValueError):
        inverse1d(PowerFn(2), -1.0)


def test_inverse_eval_identity_sampled(build6):
    for f in build6.phi:
        ts = np.logspace(-2, 3, 40)
        ys = f.value(ts)
        back = np.array([inverse1d(f, y) for y in ys])
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
    p1 = Piece.linear(np.log(5.0), -30.0, np.log(5.0) - 30.0)  # f = 5 t
    p2 = Piece.linear(0.0, 0.0, p1.log_value(0.0))  # f = 5 + (t - 1)
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
    for f in build6.phi:
        rep = nfunction_report(f)
        assert rep["superlinear"]
        assert rep["vanishing_slope_at_zero"]


def test_json_roundtrip_bit_stable(build6):
    for f in build6.phi:
        d = f.to_json_dict()
        s1 = json.dumps(d, sort_keys=True)
        back = PiecewiseYoungFn1D.from_json_dict(json.loads(s1))
        s2 = json.dumps(back.to_json_dict(), sort_keys=True)
        assert s1 == s2
        logts = np.linspace(-3, 1500, 200)
        assert np.array_equal(f.log_value(logts), back.log_value(logts))


def test_continuity_guard():
    bad = [Piece.power(2), Piece.power(3)]  # t^2 vs t^3 mismatch at logt=1
    with pytest.raises(ValueError):
        PiecewiseYoungFn1D(bad, [1.0])


def test_piece_validation():
    with pytest.raises(ValueError):
        PowerFn(0.5)
    with pytest.raises(ValueError):
        PowerLogFn(2, 0.0)


def test_piecewise_vanishes_at_zero(build6):
    for f in build6.phi:
        assert eval1d(f, 0.0) == 0.0
        assert f.log_value(-np.inf) == -np.inf


_X = np.logspace(-3, 3, 25)
PROTOCOL_CASES = {
    "power": lambda b: PowerFn(2.5, 3.0),
    "powerlog": lambda b: PowerLogFn(2, 1),
    "powerlogbase": lambda b: PowerLogBaseFn(2, -0.5, np.e),
    "powerexp": lambda b: PowerExpFn(2),
    "table": lambda b: MonotoneTable.from_values(_X, 2.0 * _X**2.5),
    "piecewise-build6": lambda b: b.phi[0],
    "piece-power": lambda b: PiecewiseYoungFn1D([Piece.power(2.5, 3.0)], []),
    "piece-powerlog": lambda b: PiecewiseYoungFn1D([Piece.powerlog(2, 1)], []),
    # t^2 up to t = 1, then 1 + 2 (t - 1)
    "piece-linear": lambda b: PiecewiseYoungFn1D(
        [Piece.power(2), Piece.linear(np.log(2.0), 0.0, 0.0)], [0.0]
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


def test_unknown_piece_kind_rejected():
    with pytest.raises(ValueError):
        Piece("cubic", {"p": 3.0})
    with pytest.raises(ValueError):
        PiecewiseYoungFn1D.from_json_dict({"pieces": [{"kind": "cubic", "from_logt": None}]})
