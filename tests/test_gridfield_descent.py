import numpy as np
import pytest

from anisolab import descent
from anisolab.aniso2d import SampledFn2D
from anisolab.descent import IterationCapError, minimize_projected
from anisolab.gridfield import GridField2D, divergence_of, forward_gradient


def test_gradient_divergence_adjoint(rng):
    n, h = 17, 0.25
    u = rng.normal(size=(n, n))
    ax = rng.normal(size=(n - 1, n - 1))
    ay = rng.normal(size=(n - 1, n - 1))
    gx, gy = forward_gradient(u, h)
    lhs = np.sum(gx * ax + gy * ay)
    rhs = -np.sum(u * divergence_of(ax, ay, h, n))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_binary_roundtrip(tmp_path, rng):
    f = GridField2D(rng.normal(size=(9, 9)), 0.125)
    p = tmp_path / "f.bin"
    f.to_binary(p)
    back = GridField2D.from_binary(p)
    assert np.array_equal(back.values, f.values)
    assert back.h == f.h
    header = SampledFn2D.from_binary(p)
    assert (header.x0, header.y0) == (0.0, 0.0)


def test_binary_off_origin_rejected(tmp_path):
    p = tmp_path / "f.bin"
    SampledFn2D(x0=0.0, y0=-0.5, hx=0.125, hy=0.125, values=np.zeros((9, 9))).to_binary(p)
    with pytest.raises(ValueError, match=r"origin \(0\.0, -0\.5\) is not \(0, 0\)"):
        GridField2D.from_binary(p)


def test_descent_solves_quadratic(rng):
    # min 0.5 x^T A x - b x with random SPD A
    m = rng.normal(size=(12, 12))
    A = m @ m.T + 12 * np.eye(12)
    b = rng.normal(size=12)
    res = minimize_projected(
        lambda x: 0.5 * x @ A @ x - b @ x,
        lambda x: A @ x - b,
        lambda x: x,
        np.zeros(12),
        rel_tol=1e-14,
    )
    assert res.converged
    assert res.stop_reason in ("rel_decrease", "stationary")
    assert np.allclose(res.u, np.linalg.solve(A, b), atol=1e-5)


def test_descent_stops_on_relative_decrease():
    # an ill-conditioned quadratic at a loose tolerance: the window rule
    # fires long before the iterate reaches the rounding floor
    d = np.logspace(0.0, 3.0, 20)
    res = minimize_projected(
        lambda x: 0.5 * float(np.sum(d * (x - 1.0) ** 2)) + 1.0,
        lambda x: d * (x - 1.0),
        lambda x: x,
        np.zeros(20),
        rel_tol=1e-3,
    )
    assert res.stop_reason == "rel_decrease"
    assert res.converged and 0.0 < res.rel_decrease < 1e-3


def test_descent_start_at_box_optimum_is_stationary():
    target = np.array([2.0, -1.0])
    res = minimize_projected(
        lambda x: 0.5 * np.sum((x - target) ** 2),
        lambda x: x - target,
        lambda x: np.clip(x, 0.0, 1.0),
        np.array([1.0, 0.0]),
    )
    assert res.stop_reason == "stationary"
    assert res.converged and res.iterations == 1 and res.rel_decrease == 0.0
    assert np.array_equal(res.u, [1.0, 0.0])


def test_descent_wrong_sign_gradient_exhausts_line_search():
    # the "gradient" points uphill: every backtrack fails the Armijo test
    res = minimize_projected(
        lambda x: float(x[0]), lambda x: np.array([-1.0]), lambda x: x, np.array([0.0])
    )
    assert res.stop_reason == "linesearch_exhausted"
    assert not res.converged
    assert res.iterations == 1 and res.rel_decrease == 0.0
    assert res.u[0] == 0.0


def test_descent_objective_monotone(rng):
    m = rng.normal(size=(8, 8))
    A = m @ m.T + 8 * np.eye(8)
    trace = []

    def energy(x):
        return 0.5 * x @ A @ x

    def grad(x):
        trace.append(energy(x))
        return A @ x

    minimize_projected(energy, grad, lambda x: x, rng.normal(size=8), rel_tol=1e-12)
    # gradient is evaluated once per accepted iterate: objective nonincreasing
    assert np.all(np.diff(trace) <= 1e-12)


def test_descent_respects_projection(rng):
    A = np.eye(3)
    target = np.array([2.0, -1.0, 0.5])

    def project(x):
        return np.clip(x, 0.0, 1.0)

    res = minimize_projected(
        lambda x: 0.5 * np.sum((x - target) ** 2),
        lambda x: x - target,
        project,
        np.zeros(3),
        rel_tol=1e-14,
    )
    assert np.allclose(res.u, [1.0, 0.0, 0.5], atol=1e-6)


def test_descent_iteration_cap(monkeypatch):
    # a descending but never-converging linear slope within the cap
    monkeypatch.setattr(descent, "MAX_ITER", 50)
    with pytest.raises(IterationCapError) as info:
        minimize_projected(
            lambda x: float(x[0]),
            lambda x: np.array([1.0]),
            lambda x: x,
            np.array([0.0]),
            rel_tol=1e-30,
        )
    assert info.value.result.iterations == 50
    assert info.value.result.stop_reason == "cap"
    assert not info.value.result.converged
