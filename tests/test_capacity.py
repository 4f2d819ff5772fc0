import numpy as np
import pytest

from anisolab import capacity, descent
from anisolab.aniso2d import intro_exp_fn, quadratic_fn, radial_power_fn
from anisolab.capacity import (
    capacity_property_suite,
    diffuse_singular_split,
    disk_mask,
    point_capacity_scaling,
    relative_capacity,
    sobolev_capacity,
    square_mask,
)
from anisolab.descent import NonDoublingError
from anisolab.gridfield import GridField2D
from anisolab.pde import DiscreteMeasure
from anisolab.young1d import PowerFn

PHI = quadratic_fn(1.0)  # |xi|^2
PC = PowerFn(2.0)


def _five_point(m):
    """Dense 5-point stencil (4, -1) on an m x m block with a zero edge."""
    t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    return np.kron(t, np.eye(m)) + np.kron(np.eye(m), t)


def test_poisson_metric_inverts_the_stencil(rng):
    n = 14
    v = rng.normal(size=(n, n))
    edge = capacity._boundary_mask(n)
    lap = _five_point(n - 2)
    for fixed in (edge, edge | (rng.random((n, n)) < 0.3)):
        out = descent._poisson_inverse(fixed)(v)
        assert np.all(out[fixed] == 0.0)
        # Z L^-1 Z v: the stencil gives back v on the free nodes before the
        # fixed ones are zeroed
        free_v = np.where(fixed, 0.0, v)[1:-1, 1:-1].ravel()
        ref = np.linalg.solve(lap, free_v).reshape(n - 2, n - 2)
        assert np.allclose(out[1:-1, 1:-1], np.where(fixed[1:-1, 1:-1], 0.0, ref), rtol=0, atol=1e-12)
    # with only the edge fixed, the stencil applied to the output is v itself
    out = descent._poisson_inverse(edge)(v)
    back = (lap @ out[1:-1, 1:-1].ravel()).reshape(n - 2, n - 2)
    assert np.max(np.abs(back - v[1:-1, 1:-1])) <= 1e-12 * np.max(np.abs(v))


def test_poisson_metric_is_symmetric_positive_and_zero_on_fixed_nodes(rng):
    # a second size: m = 18 interior nodes per axis, m + 1 = 19 an odd prime
    n = 20
    edge = capacity._boundary_mask(n)
    lap = _five_point(n - 2)
    fixed = edge | (rng.random((n, n)) < 0.3)
    for mask in (edge, fixed):
        v = rng.normal(size=(n, n))
        out = descent._poisson_inverse(mask)(v)
        free_v = np.where(mask, 0.0, v)[1:-1, 1:-1].ravel()
        ref = np.linalg.solve(lap, free_v).reshape(n - 2, n - 2)
        assert np.allclose(out[1:-1, 1:-1], np.where(mask[1:-1, 1:-1], 0.0, ref), rtol=0, atol=1e-12)
    metric = descent._poisson_inverse(fixed)
    a, b = rng.normal(size=(2, n, n))
    pa, pb = metric(a), metric(b)
    # Z L^-1 Z is symmetric: <a, P b> = <P a, b> up to rounding on the
    # scale of the P-norms of a and b
    scale = np.sqrt(np.vdot(a, pa) * np.vdot(b, pb))
    assert abs(np.vdot(a, pb) - np.vdot(pa, b)) <= 1e-12 * scale
    # positive on a vector that lives on the free nodes
    a_free = np.where(fixed, 0.0, a)
    assert np.vdot(a_free, metric(a_free)) > 0.0
    # exactly zero on every fixed node, whatever v holds there
    assert np.all(pa[fixed] == 0.0) and np.all(pb[fixed] == 0.0)


def test_poisson_metric_on_a_free_rectangle_inverts_its_stencil(rng):
    # free nodes on rows 3..9 and columns 5..14: the metric solves the
    # 5-point stencil on that 7 x 10 box with zero values around it
    n = 18
    fixed = np.ones((n, n), dtype=bool)
    fixed[3:10, 5:15] = False
    v = rng.normal(size=(n, n))
    out = descent._poisson_inverse(fixed)(v)
    assert np.all(out[fixed] == 0.0)
    lap = 4.0 * out - np.roll(out, 1, 0) - np.roll(out, -1, 0) - np.roll(out, 1, 1) - np.roll(out, -1, 1)
    assert np.max(np.abs(lap[~fixed] - v[~fixed])) <= 1e-12 * np.max(np.abs(v))


def test_poisson_metric_on_the_annulus_is_symmetric_positive_and_zero_on_fixed_nodes(rng):
    # the condenser K = disk 0.1 in Omega = disk 0.4: Omega's box is cropped
    n = 33
    fixed = disk_mask(n, 0.5, 0.5, 0.1) | ~disk_mask(n, 0.5, 0.5, 0.4) | capacity._boundary_mask(n)
    metric = descent._poisson_inverse(fixed)
    a, b = rng.normal(size=(2, n, n))
    pa, pb = metric(a), metric(b)
    scale = np.sqrt(np.vdot(a, pa) * np.vdot(b, pb))
    assert abs(np.vdot(a, pb) - np.vdot(pa, b)) <= 1e-13 * scale
    a_free = np.where(fixed, 0.0, a)
    assert np.vdot(a_free, metric(a_free)) > 0.0
    assert np.all(pa[fixed] == 0.0) and np.all(pb[fixed] == 0.0)


def test_poisson_metric_with_the_edge_fixed_is_the_whole_box_inverse(rng):
    # free nodes on every interior row and column: the factors of the
    # whole interior, bit for bit
    n = 21
    m = n - 2
    fixed = capacity._boundary_mask(n)
    v = rng.normal(size=(n, n))
    k = np.arange(1, m + 1)
    s = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * m + 2)) / (m + 1))
    lam = 4.0 * np.sin(0.5 * np.pi * k / (m + 1)) ** 2
    weight = 1.0 / (lam[:, None] + lam[None, :])
    inner = v[1:-1, 1:-1]
    out = descent._poisson_inverse(fixed)(v)
    assert np.array_equal(out[1:-1, 1:-1], s @ (weight * (s @ inner @ s)) @ s)
    assert np.all(out[fixed] == 0.0)


@pytest.mark.parametrize("p, mode, budget", [(2.0, "dirichlet-only", 37), (1.5, "full", 90)])
def test_annulus_iteration_budget(p, mode, budget):
    # 41 and 113 iterations in the metric of the whole unit box; the
    # metric on Omega's box gets by with fewer
    n = 65
    k = disk_mask(n, 0.5, 0.5, 0.1)
    omega = disk_mask(n, 0.5, 0.5, 0.4)
    res = relative_capacity(radial_power_fn(p), PowerFn(p), 1.0, k, omega, n, mode=mode)
    assert res.stop_reason == "gap"
    assert res.iterations <= budget, res.iterations


def test_secant_weights_are_the_secant_modulus():
    # u = 2x + y has xi = (2, 1) on every cell, and |xi|^p has the secant
    # modulus |grad Phi(xi)| / |xi| = p |xi|^(p - 2)
    n = 9
    x, y = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij")
    w = descent._secant_weights(radial_power_fn(1.5), 2.0 * x + y, 1.0 / (n - 1))
    assert np.allclose(w[1:-1, 1:-1], 1.5 * 5.0**-0.25, rtol=1e-12)
    # a start flat on more than half of its cells has no weights: the
    # solve descends in the plain metric until its first weight check
    bump = np.zeros((n, n))
    bump[n // 2, n // 2] = 1.0
    for flat in (bump, np.zeros((n, n))):
        assert descent._secant_weights(radial_power_fn(1.5), flat, 1.0 / (n - 1)) is None


def test_drift_switches_from_a_flat_start_and_never_to_a_flat_field():
    n = 9
    free = ~capacity._boundary_mask(n)
    w = np.ones((n, n))
    assert descent._drifted(None, w, free)
    assert not descent._drifted(None, None, free)
    assert not descent._drifted(w, None, free)
    assert not descent._drifted(w, 2.0 * w, free)
    assert descent._drifted(w, 5.0 * w, free)


def test_warm_started_capacity_checks_its_weights_once(monkeypatch):
    # a warm start's weights hold for quadratic Phi: the solve takes them
    # from the start and checks them once
    n = 33
    a = square_mask(n, 0.30, 0.50, 0.30, 0.50)
    b = square_mask(n, 0.40, 0.62, 0.40, 0.62)
    ra, rb = (sobolev_capacity(PHI, PC, 1.0, m, n) for m in (a, b))
    calls = []
    weights = descent._secant_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(descent, "_secant_weights", counted)
    u0 = np.maximum(ra.minimizer.values, rb.minimizer.values)
    res = sobolev_capacity(PHI, PC, 1.0, a | b, n, u0=u0)
    assert res.stop_reason == "gap"
    assert len(calls) <= 2, len(calls)


def test_flat_started_quadratic_capacity_checks_its_weights_once(monkeypatch):
    # constant secant weights give the metric a flat start already uses,
    # so the first check is the last
    n = 65
    calls = []
    weights = descent._secant_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(descent, "_secant_weights", counted)
    res = sobolev_capacity(PHI, PC, 1.0, square_mask(n, 0.4, 0.6, 0.4, 0.6), n)
    assert res.stop_reason == "gap"
    assert len(calls) <= 2, len(calls)


def test_grid_energy_needs_the_box_edge_fixed():
    n = 9
    fixed = np.zeros((n, n), dtype=bool)
    fixed[0, :] = fixed[:, 0] = True
    with pytest.raises(ValueError, match="edge"):
        descent.minimize_projected(PHI, np.zeros((n, n)), fixed, 0.125)


def test_point_capacity_iterations_do_not_grow_with_the_grid():
    # solves from the zero field on a single centre node: the re-weighted
    # Poisson metric keeps the iteration count flat under refinement, for
    # p = 3 and p = 1.5 (44 and 46 iterations at n = 129)
    for p, budget in ((3.0, 50), (1.5, 60)):
        iterations = []
        for n in (33, 129):
            k = np.zeros((n, n), dtype=bool)
            k[n // 2, n // 2] = True
            omega = ~capacity._boundary_mask(n)
            res = relative_capacity(radial_power_fn(p), PowerFn(p), 1.0, k, omega, n)
            iterations.append(res.iterations)
        assert iterations[1] <= 2 * iterations[0], (p, iterations)
        assert iterations[1] <= budget, (p, iterations)


def test_empty_set_zero():
    n = 33
    empty = np.zeros((n, n), dtype=bool)
    assert sobolev_capacity(PHI, PC, 1.0, empty, n).value == 0.0
    omega = disk_mask(n, 0.5, 0.5, 0.4)
    res = relative_capacity(PHI, PC, 1.0, empty, omega, n)
    assert res.value == 0.0 and res.iterations == 0 and res.stop_reason == "stationary"
    # no solve runs, so growth that the solver rejects is fine
    assert sobolev_capacity(intro_exp_fn(), PC, 1.0, empty, n).value == 0.0


def test_capacity_of_omega_itself_moves_no_node():
    # K = Omega fixes every node: the start is the minimizer, certified exactly
    n = 33
    K = square_mask(n, 0.2, 0.8, 0.2, 0.8)
    res = relative_capacity(PHI, PC, 1.0, K, K, n)
    assert res.iterations == 1 and res.stop_reason == "stationary" and res.gap == 0.0
    assert np.array_equal(res.minimizer.values, K.astype(float))


def test_capacity_reports_stop_reason():
    n = 33
    res = sobolev_capacity(PHI, PC, 1.0, square_mask(n, 0.4, 0.6, 0.4, 0.6), n)
    assert res.iterations > 0
    assert res.stop_reason in ("rel_decrease", "stationary", "gap")


def test_nested_monotonicity_tight():
    n = 65
    inner = square_mask(n, 0.42, 0.58, 0.42, 0.58)
    outer = square_mask(n, 0.35, 0.65, 0.35, 0.65)
    # the inner solve starts from the outer minimizer, which is feasible for
    # it; the descent returns its best iterate, never above the start, so
    # C(inner) <= C(outer) exactly
    ro = sobolev_capacity(PHI, PC, 1.0, outer, n)
    ri = sobolev_capacity(PHI, PC, 1.0, inner, n, u0=ro.minimizer.values)
    assert ri.value <= ro.value + 1e-8


def test_annulus_against_conductor_value():
    n = 129
    K = disk_mask(n, 0.5, 0.5, 0.1)
    Om = disk_mask(n, 0.5, 0.5, 0.4)
    res = relative_capacity(radial_power_fn(2.0), PC, 1.0, K, Om, n, mode="dirichlet-only")
    target = 2.0 * np.pi / np.log(4.0)
    assert abs(res.value - target) / target <= 0.05


def test_annulus_monotone_approach():
    # the forward-difference value approaches the conductor constant
    # monotonically under refinement (from below for this stencil)
    target = 2.0 * np.pi / np.log(4.0)
    errs = []
    for n in (65, 129):
        K = disk_mask(n, 0.5, 0.5, 0.1)
        Om = disk_mask(n, 0.5, 0.5, 0.4)
        res = relative_capacity(radial_power_fn(2.0), PC, 1.0, K, Om, n, mode="dirichlet-only")
        errs.append(abs(res.value - target))
    assert errs[1] < errs[0]


def test_full_mode_dominates_dirichlet_only():
    n = 65
    K = disk_mask(n, 0.5, 0.5, 0.1)
    Om = disk_mask(n, 0.5, 0.5, 0.4)
    full = relative_capacity(PHI, PC, 1.0, K, Om, n, mode="full")
    diri = relative_capacity(PHI, PC, 1.0, K, Om, n, mode="dirichlet-only")
    assert full.value >= diri.value - 1e-12


def test_k_outside_omega_rejected():
    n = 33
    K = disk_mask(n, 0.1, 0.1, 0.05)
    Om = disk_mask(n, 0.5, 0.5, 0.2)
    with pytest.raises(ValueError):
        relative_capacity(PHI, PC, 1.0, K, Om, n)


def test_minimizer_in_unit_interval():
    n = 65
    E = square_mask(n, 0.4, 0.6, 0.4, 0.6)
    res = sobolev_capacity(PHI, PC, 1.0, E, n)
    assert np.all(res.minimizer.values >= 0.0)
    assert np.all(res.minimizer.values <= 1.0)
    assert np.all(res.minimizer.values[E] == 1.0)


def test_property_suite_small():
    n = 65
    pairs = [
        (square_mask(n, 0.3, 0.5, 0.3, 0.5), square_mask(n, 0.4, 0.6, 0.4, 0.6)),
        (square_mask(n, 0.25, 0.4, 0.25, 0.4), square_mask(n, 0.6, 0.75, 0.6, 0.75)),
        (square_mask(n, 0.4, 0.6, 0.4, 0.6), square_mask(n, 0.4, 0.6, 0.4, 0.6)),
    ]
    rep = capacity_property_suite(PHI, PC, 1.0, pairs, n)
    assert rep["ok"], rep
    identical = rep["rows"][2]
    assert identical["C_union"] == pytest.approx(identical["C_a"], rel=1e-3)
    disjoint = rep["rows"][1]
    assert disjoint["C_union"] <= disjoint["C_a"] + disjoint["C_b"] + 1e-6
    assert disjoint["C_inter"] == 0.0


def test_refinement_self_consistency():
    vals = []
    for n in (65, 129):
        E = square_mask(n, 0.4, 0.6, 0.4, 0.6)
        vals.append(sobolev_capacity(PHI, PC, 1.0, E, n).value)
    assert abs(vals[1] - vals[0]) <= 0.05 * vals[0]


def test_non_doubling_rejected():
    n = 33
    E = square_mask(n, 0.4, 0.6, 0.4, 0.6)
    with pytest.raises(NonDoublingError):
        sobolev_capacity(intro_exp_fn(), PC, 1.0, E, n)


def test_point_scaling_quick():
    rep = point_capacity_scaling([1.5, 3.0], n_values=(33, 65, 129))
    v15, v30 = rep[1.5]["values"], rep[3.0]["values"]
    assert rep[1.5]["monotone_decreasing"]
    assert v15[-1] < 0.5 * v15[0]
    assert v30[-1] >= 0.5 * v30[0]
    assert v15[-1] < v30[-1]


def test_diffuse_singular_split():
    dens = GridField2D.unit_square(33)
    dens.values[:] = 1.0
    only_density = DiscreteMeasure(atoms=[], density=dens)
    rep = diffuse_singular_split(only_density, 1.5, n_values=(33, 65))
    assert rep["singular_atoms"] == []
    atomic = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    rep15 = diffuse_singular_split(atomic, 1.5, n_values=(33, 65, 129))
    assert rep15["singular_atoms"] == [(0.5, 0.5, 1.0)]
    rep30 = diffuse_singular_split(atomic, 3.0, n_values=(33, 65, 129))
    assert rep30["diffuse_atoms"] == [(0.5, 0.5, 1.0)]


def _recorded_cells(monkeypatch):
    """Record (n, marked node coordinates) of every ladder rung."""
    cells = []
    solve = capacity.relative_capacity

    def spy(phi, phicirc, kappa, k_mask, omega_mask, n, mode="full", u0=None):
        (i, j), = np.argwhere(k_mask)
        cells.append((n, i / (n - 1), j / (n - 1)))
        return solve(phi, phicirc, kappa, k_mask, omega_mask, n, mode=mode, u0=u0)

    monkeypatch.setattr(capacity, "relative_capacity", spy)
    return cells


def test_centred_split_values_equal_point_scaling():
    atomic = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    for p in (1.5, 3.0):
        split = diffuse_singular_split(atomic, p, n_values=(17, 33, 65))
        scaling = point_capacity_scaling([p], n_values=(17, 33, 65))
        assert split["details"][0]["values"] == scaling[p]["values"]


def test_off_centre_atom_keeps_one_point(monkeypatch):
    cells = _recorded_cells(monkeypatch)
    atomic = DiscreteMeasure(atoms=[(0.3, 0.7, 1.0)])
    diffuse_singular_split(atomic, 1.5, n_values=(17, 33, 65))
    assert [n for n, _, _ in cells] == [17, 33, 65]
    # 0.3 snaps to 0.3125 on the 17-node grid and stays there
    assert {(x, y) for _, x, y in cells} == {(0.3125, 0.6875)}


def test_ladder_rejects_points_outside_its_box(monkeypatch):
    cells = _recorded_cells(monkeypatch)
    inside = (0.5, 0.5, 1.0)
    for x, y in ((-0.2, 0.5), (0.5, -0.2), (1.5, 0.5), (0.5, 1.5), (1.7, 0.5), (0.0, 0.5)):
        # the point sits after a valid atom: nothing is solved before the check
        mu = DiscreteMeasure(atoms=[inside, (x, y, 1.0)])
        with pytest.raises(ValueError, match=rf"atom at \({x}, {y}\)"):
            diffuse_singular_split(mu, 3.0, n_values=(17, 33))
    assert cells == []


def test_ladder_rejects_grids_that_are_not_nested(monkeypatch):
    cells = _recorded_cells(monkeypatch)
    with pytest.raises(ValueError):
        point_capacity_scaling([1.5], n_values=(33, 64))
    with pytest.raises(ValueError):
        diffuse_singular_split(DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)]), 1.5, n_values=(17, 65))
    assert cells == []
