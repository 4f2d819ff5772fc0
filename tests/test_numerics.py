import warnings

import numpy as np
import pytest

from anisolab.construction import tangent_point
from anisolab.numerics import (
    LOG1P_EXP_ABSORBED,
    BracketError,
    bisect_increasing_arrays,
    log1p_exp,
    logaddexp_many,
    logsubexp,
    root_increasing,
)
from anisolab.young1d import PowerFn, PowerLogFn, inverse1d_log


# The bracket walk and bisection that root_increasing replaced, kept
# verbatim as the reference it must reproduce bit for bit.
def bisect_increasing(f, lo, hi, rtol=1e-12, max_iter=200):
    """Root of a nondecreasing scalar function on a bracketing interval.

    ``f(lo) <= 0 <= f(hi)`` is required.  Stops when the bracket width falls
    below ``rtol * max(1, |mid|)``.
    """
    flo, fhi = f(lo), f(hi)
    if flo > 0.0 or fhi < 0.0:
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f={flo!r},{fhi!r}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rtol * max(1.0, abs(mid)):
            return mid
        fm = f(mid)
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def expand_bracket_increasing(f, start, step=1.0, factor=2.0, max_steps=200):
    """Bracket the root of a nondecreasing f starting at ``start``.

    Walks right (and left) in geometrically growing steps until a sign
    change is enclosed; returns (lo, hi).
    """
    f0 = f(start)
    if f0 == 0.0:
        return start, start
    lo = hi = start
    s = step
    if f0 < 0.0:
        for _ in range(max_steps):
            hi = lo + s
            if f(hi) >= 0.0:
                return lo, hi
            lo, s = hi, s * factor
        raise BracketError("rightward bracket expansion exhausted")
    for _ in range(max_steps):
        lo = hi - s
        if f(lo) <= 0.0:
            return lo, hi
        hi, s = lo, s * factor
    raise BracketError("leftward bracket expansion exhausted")


def _reference(f, start, step):
    return bisect_increasing(f, *expand_bracket_increasing(f, start, step=step))


def _recorded(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_root_walks_right_from_below():
    g, calls = _recorded(lambda x: x - 37.3)
    root = root_increasing(g, 0.0, 1.0)
    assert root == pytest.approx(37.3, rel=1e-12)
    assert min(calls) == 0.0


def test_root_walks_left_from_above():
    g, calls = _recorded(lambda x: x**3 + 5.0)
    root = root_increasing(g, 2.0, 0.5)
    assert root == pytest.approx(-(5.0 ** (1.0 / 3.0)), rel=1e-12)
    assert max(calls) == 2.0


def test_root_at_start_is_returned_after_one_evaluation():
    g, calls = _recorded(lambda x: x - 1.5)
    assert root_increasing(g, 1.5, 1.0) == 1.5
    assert calls == [1.5]


@pytest.mark.parametrize("sign, side", [(-1.0, "right"), (1.0, "left")])
def test_root_without_a_sign_change_raises(sign, side):
    with pytest.raises(BracketError, match=f"walking {side} from 0.25"):
        root_increasing(lambda x: sign, 0.25, 1.0)


def test_false_position_takes_an_f_that_returns_a_float():
    # a Python float from f makes fx < 0.0 a bool, whose ~ is -1 or -2,
    # both true: every step then moved hi and the bracket collapsed to 0.0786
    root = bisect_increasing_arrays(lambda x, rows: float(np.exp(x.ravel()[0])) - 1.5, [0.0], [3.0])
    assert root.shape == (1,)
    assert root[0] == pytest.approx(np.log(1.5), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("p, alpha", [(2.0, 1.0), (1.5, 2.0), (1.0, 1.0)])
@pytest.mark.parametrize("logt_k", [np.log(2.0), 5.0, 40.0, 700.0])
def test_root_equals_the_old_pair_on_the_tangency_gap(p, alpha, logt_k):
    lower, upper = PowerFn(p), PowerLogFn(p, alpha)
    target = lower.log_value(logt_k)

    def gap(logh):
        spent = np.logaddexp(upper.log_derivative(logh) + logsubexp(logh, logt_k), target)
        return spent - upper.log_value(logh)

    ref = _reference(gap, logt_k + 1e-9, 0.5)
    assert root_increasing(gap, logt_k + 1e-9, 0.5) == ref
    assert tangent_point(logt_k, p, alpha)[0] == ref


def test_root_equals_the_old_pair_on_level_inverses(build6):
    for f in (PowerFn(2), PowerLogFn(2, 1), build6.phi[0]):
        for logy in (-30.0, -1.0, 0.0, 0.5, 12.0, 700.0, 2000.0):

            def g(logt):
                return f.log_value(logt) - logy

            assert inverse1d_log(f, logy) == _reference(g, 0.0, 4.0)


# The forms that log1p_exp and logaddexp_many replaced, kept as references.
def _log1p_exp_two_branch(x):
    x = np.asarray(x, dtype=float)
    return np.where(
        x > 0.0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0.0)))
    )


def _logaddexp_chain(*logs):
    out = logs[0]
    for l in logs[1:]:
        out = np.logaddexp(out, l)
    return out


def test_log1p_exp_equals_the_two_branch_form_bit_for_bit():
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 800.0, -800.0,
                      np.inf, -np.inf, np.nan, -np.nan])
    x = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 40.0, 1000)])
    assert log1p_exp(x).tobytes() == _log1p_exp_two_branch(x).tobytes()
    for v in edges:
        out = log1p_exp(float(v))
        assert type(out) is float
        assert np.array([out]).tobytes() == np.array([_log1p_exp_two_branch(v)]).tobytes()


# The unclamped forms, kept as the references the clamped ones equal bit for bit.
def _logaddexp_many_unclamped(*logs):
    top = logs[0]
    for l in logs[1:]:
        top = np.maximum(top, l)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(over="ignore", divide="ignore"):
        total = np.exp(logs[0] - shift)
        for l in logs[1:]:
            total += np.exp(l - shift)
        return shift + np.log(total)


def _log1p_exp_unclamped(x):
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(np.minimum(x, -x)))


def _clamp_cases():
    rng = np.random.default_rng(11)
    specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 700.0, -700.0, 709.5, -745.5])
    for spread in (1.0, 50.0, 700.0, 1e4):
        parts = rng.uniform(-spread, spread, (6, 400))
        parts[rng.random(parts.shape) < 0.05] = -np.inf
        parts[:, :9] = specials[rng.permuted(np.tile(np.arange(9), (6, 1)), axis=1)]
        parts[:, 9] = -np.inf  # a column of all -inf
        parts[:, 10] = parts[0, 10] - spread * np.arange(6)  # one part dominates
        yield parts


def test_log_sum_exp_clamps_move_no_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parts in _clamp_cases():
            for k in (2, 3, 6):
                got = logaddexp_many(*parts[:k])
                assert got.tobytes() == _logaddexp_many_unclamped(*parts[:k]).tobytes()
            # a broadcast scalar part
            got = logaddexp_many(parts[0], 3.0, parts[1].reshape(20, 20)[:, :1])
            ref = _logaddexp_many_unclamped(parts[0], 3.0, parts[1].reshape(20, 20)[:, :1])
            assert got.shape == (20, 400) and got.tobytes() == ref.tobytes()
            ref = _log1p_exp_unclamped(parts.ravel())
            assert log1p_exp(parts.ravel()).tobytes() == ref.tobytes()
        for a, b in [(1.0, 2.0), (-1e4, 1e4), (-np.inf, -np.inf), (-np.inf, 5.0), (np.nan, 1.0)]:
            got = logaddexp_many(a, b)
            assert isinstance(got, float) and np.ndim(got) == 0
            assert np.array(got).tobytes() == np.array(_logaddexp_many_unclamped(a, b)).tobytes()
        for v in (-1e4, -800.0, -1.0, 0.0, 650.0, 701.0, 1e4, np.inf, -np.inf, np.nan):
            got = log1p_exp(v)
            assert type(got) is float
            assert np.array(got).tobytes() == np.array(_log1p_exp_unclamped(v)).tobytes()


def test_log1p_exp_returns_absorbed_arguments_bit_for_bit():
    t = LOG1P_EXP_ABSORBED
    assert t == 53.0 * np.log(2.0)
    edges = [np.nextafter(t, 0.0), t, np.nextafter(t, np.inf), 36.0, 40.0, 700.0, 1e300, np.inf,
             20.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in edges:
            got = log1p_exp(v)
            assert type(got) is float
            assert np.array(got).tobytes() == np.array(_log1p_exp_two_branch(v)).tobytes()
            if v >= t:
                assert got == v
        # every element absorbed: x itself comes back
        x = np.array(edges[1:3] + edges[4:8])
        assert log1p_exp(x) is x
        assert log1p_exp(x).tobytes() == _log1p_exp_two_branch(x).tobytes()
        # one element below the threshold, or a NaN, takes the full sum
        for odd in (edges[0], 36.0, 20.0, -5.0, np.nan):
            y = np.append(x, odd)
            got = log1p_exp(y)
            assert got is not y and got.tobytes() == _log1p_exp_two_branch(y).tobytes()
        empty = np.empty((0, 3))
        got = log1p_exp(empty)
        assert got.shape == (0, 3) and got.dtype == float


def _broadcast_cases():
    """Parts of different shapes, each broadcasting to (4, 5): the widest
    first, in the middle and last, with specials mixed in."""
    rng = np.random.default_rng(17)
    wide = rng.uniform(-800.0, 800.0, (4, 5))
    wide[0, :3] = [-np.inf, np.inf, 0.0]
    col = rng.uniform(-50.0, 50.0, (4, 1))
    col[1, 0] = -np.inf
    row = rng.uniform(-50.0, 50.0, (5,))
    yield wide, col, row
    yield col, wide, row, 3.0
    yield row, col, 3.0, wide
    yield col, row, wide
    yield 2.0, row, col


def test_logaddexp_many_broadcasts_bit_for_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parts in _broadcast_cases():
            got = logaddexp_many(*parts)
            ref = _logaddexp_many_unclamped(*parts)
            assert got.shape == ref.shape == (4, 5) and got.tobytes() == ref.tobytes()
        # all parts 0-d: numpy scalars and 0-d arrays give a float
        for parts in [(np.float64(1.0), np.array(-3.0), 2.5), (np.array(0.0), np.array(700.0))]:
            got = logaddexp_many(*parts)
            assert isinstance(got, float) and np.ndim(got) == 0
            assert np.array(got).tobytes() == np.array(_logaddexp_many_unclamped(*parts)).tobytes()
        # all -inf, with and without broadcasting
        for parts in [(np.full(4, -np.inf), np.full(4, -np.inf), np.full(4, -np.inf)),
                      (np.full((3, 1), -np.inf), -np.inf, np.full(2, -np.inf))]:
            got = logaddexp_many(*parts)
            assert got.tobytes() == _logaddexp_many_unclamped(*parts).tobytes()
            assert np.all(got == -np.inf)
    # one NaN part element: NaN there, the rest as the reference (the NaN
    # lane overflows exp, as in the reference)
    a, b, c = np.array([1.0, np.nan, -np.inf]), np.array([0.0, 800.0, 2.0]), np.zeros((2, 1))
    with np.errstate(over="ignore"):
        ref = _logaddexp_many_unclamped(a, b, c)
    got = logaddexp_many(a, b, c)
    assert got.tobytes() == ref.tobytes() and np.isnan(got[:, 1]).all()


def test_logaddexp_many_edge_values():
    inf, nan = np.inf, np.nan
    assert logaddexp_many(-inf, -inf, -inf) == -inf
    assert logaddexp_many(np.full(3, -inf), np.full(3, -inf)).tolist() == [-inf] * 3
    assert logaddexp_many(np.array([1.0, -inf]), np.array([inf, inf])).tolist() == [inf, inf]
    assert logaddexp_many(2.0, inf, -inf) == inf
    assert np.isnan(logaddexp_many(nan, 1.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(logaddexp_many(1.0, nan, 800.0))
        assert logaddexp_many(-inf, -inf) == -inf
    out = logaddexp_many(np.array([0.0, nan, -inf]), np.array([0.0, 5.0, 3.0]))
    assert out[0] == np.log(2.0) and np.isnan(out[1]) and out[2] == 3.0
    assert isinstance(logaddexp_many(1.0, 2.0), float) and np.ndim(logaddexp_many(1.0, 2.0)) == 0
    # a scalar broadcasts against arrays of different shapes
    a, b = np.array([1.0, 2.0, 3.0]), np.array([[0.5], [-1.0]])
    got = logaddexp_many(a, 750.0, b)
    assert got.shape == (2, 3)
    np.testing.assert_allclose(got, _logaddexp_chain(a, 750.0, b), rtol=1e-15)


@pytest.mark.parametrize("n_parts", [2, 3, 6])
def test_logaddexp_many_stays_within_4_ulp_of_the_chain(n_parts):
    # ulp of max(1, |result|): near a zero result both forms carry an
    # absolute rounding of a few 1e-16 (log of a sum near 1), so a
    # relative ulp there measures nothing
    rng = np.random.default_rng(n_parts)
    parts = [rng.uniform(-700.0, 700.0, 20000) for _ in range(n_parts)]
    ref = _logaddexp_chain(*parts)
    got = logaddexp_many(*parts)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(np.maximum(1.0, np.abs(ref))))
