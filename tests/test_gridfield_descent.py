import numpy as np
import pytest

from anisolab import capacity, descent, pde
from anisolab.aniso2d import SampledFn2D, power_sum_fn, quadratic_fn, radial_power_fn
from anisolab.capacity import disk_mask, relative_capacity
from anisolab.descent import IterationCapError, minimize_projected
from anisolab.gridfield import GridField2D, divergence_of, forward_gradient
from anisolab.pde import DiscreteMeasure
from anisolab.young1d import PowerFn


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
    back = SampledFn2D.from_binary(p)
    assert np.array_equal(back.values, f.values)
    assert (back.x0, back.y0) == (0.0, 0.0)
    assert back.hx == back.hy == f.h


N, H = 9, 0.125  # the small grid of the synthetic energies below
EDGE = capacity._boundary_mask(N)


class _ZeroPhi:
    """Phi = 0: the grid energy is its nodewise psi term alone."""

    def is_doubling(self):
        return True

    def value(self, gx, gy):
        return np.zeros_like(gx)

    def grad(self, gx, gy):
        return np.zeros_like(gx), np.zeros_like(gy)

    def value_and_grad(self, gx, gy):
        return self.value(gx, gy), *self.grad(gx, gy)


def _interior(v):
    return np.pad(v, 1)


def test_descent_solves_quadratic(rng):
    # sum 0.5 |grad u|^2 h^2 + sum (0.5 c u^2 - b u) h^2 with a zero edge:
    # the minimizer solves (L + h^2 diag c) u = h^2 b on the interior,
    # L the 5-point stencil (4, -1)
    m = N - 2
    c = 1.0 + rng.random((N, N))
    b = rng.normal(size=(N, N))
    t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    lap = np.kron(t, np.eye(m)) + np.kron(np.eye(m), t)
    A = lap + H * H * np.diag(c[1:-1, 1:-1].ravel())
    ref = np.linalg.solve(A, H * H * b[1:-1, 1:-1].ravel()).reshape(m, m)
    psi = (lambda u: 0.5 * c * u * u - b * u, lambda u: c * u - b)
    res = minimize_projected(
        quadratic_fn(), np.zeros((N, N)), EDGE, H, psi=psi, rel_tol=1e-14
    )
    assert res.converged
    assert res.stop_reason in ("rel_decrease", "stationary", "gap")
    assert np.allclose(res.u, _interior(ref), atol=1e-5)


def test_descent_stops_on_relative_decrease():
    # an ill-conditioned nodewise quadratic at a loose tolerance: the window
    # rule fires long before the iterate reaches the rounding floor
    d = np.logspace(0.0, 3.0, N * N).reshape(N, N)
    psi = (lambda u: 0.5 * d * (u - 1.0) ** 2 + 1.0, lambda u: d * (u - 1.0))
    res = minimize_projected(_ZeroPhi(), np.zeros((N, N)), EDGE, H, psi=psi, rel_tol=1e-3)
    assert res.stop_reason == "rel_decrease"
    assert res.converged and 0.0 < res.rel_decrease < 1e-3


def test_descent_start_at_box_optimum_is_stationary():
    # psi pulls every node towards 2; under the box the optimum is 1 on
    # the free nodes, where the descent starts
    psi = (lambda u: 0.5 * (u - 2.0) ** 2, lambda u: u - 2.0)
    u0 = _interior(np.ones((N - 2, N - 2)))
    res = minimize_projected(_ZeroPhi(), u0, EDGE, H, psi=psi, box=True)
    assert res.stop_reason == "stationary"
    assert res.converged and res.iterations == 1 and res.rel_decrease == 0.0
    assert np.array_equal(res.u, u0)


def test_descent_wrong_sign_gradient_exhausts_line_search():
    # the "gradient" points uphill: every backtrack fails the Armijo test
    psi = (lambda u: u, lambda u: -np.ones_like(u))
    res = minimize_projected(_ZeroPhi(), np.zeros((N, N)), EDGE, H, psi=psi)
    assert res.stop_reason == "linesearch_exhausted"
    assert not res.converged
    assert res.iterations == 1 and res.rel_decrease == 0.0
    assert np.array_equal(res.u, np.zeros((N, N)))


def test_descent_objective_monotone(rng):
    phi = radial_power_fn(3.0)
    b = rng.normal(size=(N, N))
    trace = []

    def energy(u):
        gx, gy = forward_gradient(u, H)
        return float(np.sum(phi.value(gx, gy)) - np.sum(b * u)) * H * H

    def dpsi(u):
        trace.append(energy(u))
        return -b

    u0 = _interior(rng.normal(size=(N - 2, N - 2)))
    res = minimize_projected(phi, u0, EDGE, H, psi=(lambda u: -b * u, dpsi), rel_tol=1e-12)
    # psi's derivative is evaluated once per accepted iterate, the start
    # first: the nonmonotone search may step uphill, but the result is the
    # best accepted iterate, so it never lies above the start
    assert len(trace) > 2
    assert res.objective == pytest.approx(min(trace), rel=1e-12, abs=1e-15)
    assert res.objective <= trace[0]
    assert energy(res.u) == pytest.approx(res.objective, rel=1e-12, abs=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_descent_respects_projection():
    # a nodewise pull towards 2, -1 and 0.5 in turn: the box optimum is the
    # clipped target on the free nodes, some on a bound and some inside.
    # Phi = 0 gives zero secant weights, which the drift check must skip
    # without a 0/0
    i, j = np.indices((N, N))
    target = np.array([2.0, -1.0, 0.5])[(i + j) % 3]
    psi = (lambda u: 0.5 * (u - target) ** 2, lambda u: u - target)
    res = minimize_projected(
        _ZeroPhi(), np.zeros((N, N)), EDGE, H, psi=psi, box=True, rel_tol=1e-14
    )
    expected = np.where(EDGE, 0.0, np.clip(target, 0.0, 1.0))
    assert np.allclose(res.u, expected, atol=1e-6)


def test_descent_solves_an_obstacle_problem():
    # sum 0.5 |grad u|^2 h^2 - 100 u h^2 under u <= 1: a contact set at 1
    # surrounded by free nodes inside the box.  Reference: projected
    # red-black Gauss-Seidel on the same 5-point system
    n = 17
    h = 1.0 / (n - 1)
    edge = capacity._boundary_mask(n)
    psi = (lambda u: -100.0 * u, lambda u: np.full_like(u, -100.0))
    res = minimize_projected(
        quadratic_fn(), np.zeros((n, n)), edge, h, psi=psi, box=True, rel_tol=1e-14
    )
    i, j = np.indices((n, n))
    ref = np.zeros((n, n))
    for _ in range(2000):
        for colour in (0, 1):
            mask = ~edge & ((i + j) % 2 == colour)
            nbrs = np.zeros((n, n))
            nbrs[1:-1, 1:-1] = ref[:-2, 1:-1] + ref[2:, 1:-1] + ref[1:-1, :-2] + ref[1:-1, 2:]
            ref[mask] = np.clip((nbrs[mask] + 100.0 * h * h) / 4.0, 0.0, 1.0)
    assert 0 < np.sum(ref == 1.0) < np.sum(~edge & (ref > 0.0))
    assert res.converged
    assert np.allclose(res.u, ref, atol=1e-6)
    # the Frank-Wolfe bracket E - gap <= min E <= E holds the reference's
    # energy, up to the rounding of the energy sums
    e_ref = (np.sum(quadratic_fn().value(*forward_gradient(ref, h))) - 100.0 * np.sum(ref)) * h * h
    slack = 1e-14 * abs(e_ref)
    assert res.gap is not None and res.gap <= 1e-14 * abs(res.objective)
    assert res.objective - res.gap - slack <= e_ref <= res.objective + slack


def test_descent_iteration_cap(monkeypatch):
    # a descending but never-converging linear energy, no lower bound
    monkeypatch.setattr(descent, "MAX_ITER", 50)
    psi = (lambda u: u, lambda u: np.ones_like(u))
    with pytest.raises(IterationCapError) as info:
        minimize_projected(_ZeroPhi(), np.zeros((N, N)), EDGE, H, psi=psi, rel_tol=1e-30)
    assert info.value.result.iterations == 50
    assert info.value.result.stop_reason == "cap"
    assert not info.value.result.converged


def test_capacities_and_weak_solves_bind_one_engine():
    # the bench traces the descent by patching every binding of this one
    # function, so its span covers every capacity and weak solve
    assert capacity.minimize_projected is pde.minimize_projected is descent.minimize_projected


def test_solves_keep_their_fixed_nodes_bit_for_bit(rng):
    # only the metric's null space holds the fixed nodes: no step moves them
    n = 33
    k_mask = disk_mask(n, 0.5, 0.5, 0.1)
    omega = disk_mask(n, 0.5, 0.5, 0.4)
    res = relative_capacity(
        radial_power_fn(3.0), PowerFn(3.0), 1.0, k_mask, omega, n, u0=rng.random((n, n))
    )
    u = res.minimizer.values
    assert np.all(u[k_mask] == 1.0)
    assert np.all(u[capacity._boundary_mask(n) | ~omega] == 0.0)
    f = GridField2D(np.ones((n, n)), 1.0 / (n - 1))
    warm = pde.solve_weak(radial_power_fn(1.5), f, u0=1.0 + rng.random((n, n)))
    assert np.all(warm.values[capacity._boundary_mask(n)] == 0.0)
    assert np.any(warm.values != 0.0)


def _point_source_solve(phi, rel_tol, edge_values):
    """The weak solve of a unit point source at the centre of the 17 x 17
    unit grid, with the box edge held at ``edge_values``."""
    n = 17
    base = GridField2D.unit_square(n)
    f = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)]).node_values(base)
    edge = capacity._boundary_mask(n)
    u0 = np.where(edge, edge_values(*np.meshgrid(base.axis(), base.axis(), indexing="ij")), 0.0)
    psi = (lambda u: -f * u, lambda u: -f)
    return minimize_projected(phi, u0, edge, base.h, psi=psi, rel_tol=rel_tol)


def _bracket_holds(res, e_ref):
    """E - gap - slack <= E_ref <= E + slack, slack the rounding of the sums."""
    slack = 1e-13 * abs(e_ref)
    return res.objective - res.gap - slack <= e_ref <= res.objective + slack


def _zero(x, y):
    return 0.0 * x


def _tilted(x, y):
    return 0.3 * x - 0.2 * y * y


CERTIFIED = [
    (radial_power_fn(1.5), _zero),
    (radial_power_fn(3.0), _zero),
    (power_sum_fn(2, 4), _zero),
    (radial_power_fn(3.0), _tilted),
]


@pytest.mark.parametrize(
    "phi, edge_values", CERTIFIED, ids=[f"{p.name}-{e.__name__}" for p, e in CERTIFIED]
)
def test_dual_bound_brackets_the_minimum(phi, edge_values):
    # p != 2 solves stop on the Fenchel gap, and its bracket holds the
    # energy of a re-solve at rounding tolerance
    res = _point_source_solve(phi, 1e-9, edge_values)
    e_ref = _point_source_solve(phi, 1e-15, edge_values).objective
    assert res.stop_reason == "gap" and res.converged
    assert 0.0 <= res.gap <= 1e-9 * abs(res.objective)
    assert _bracket_holds(res, e_ref)


@pytest.mark.parametrize("mutation", ["halved_conjugate", "uncorrected_flux"])
def test_bracket_catches_a_broken_dual_bound(monkeypatch, mutation):
    phi = radial_power_fn(1.5)
    e_ref = _point_source_solve(phi, 1e-15, _zero).objective
    exact = descent._fenchel_sum

    def broken(conjugate, cells, z, h):
        if mutation == "halved_conjugate":
            return exact(lambda x, y: 0.5 * conjugate(x, y), cells, z, h)
        return exact(conjugate, cells, np.zeros_like(z), h)

    monkeypatch.setattr(descent, "_fenchel_sum", broken)
    assert not _bracket_holds(_point_source_solve(phi, 1e-9, _zero), e_ref)


@pytest.mark.parametrize("seed", [0, 1])
def test_rough_warm_start_reweights_and_is_certified(seed):
    # the secant weights of a rough start are poor; the solve re-weights
    # once they drift and closes its certificate within a few thousand
    # iterations (tens of thousands without the drift check)
    n = 33
    f = GridField2D(np.ones((n, n)), 1.0 / (n - 1))
    u0 = 1.0 + np.random.default_rng(seed).random((n, n))
    warm = pde.solve_weak(radial_power_fn(1.5), f, u0=u0)
    assert warm.stop_reason == "gap" and warm.iterations <= 5000
    assert warm.gap <= 1e-9 * abs(warm.objective)
    assert warm.evaluations > warm.iterations
