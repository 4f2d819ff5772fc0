import warnings

import numpy as np
import pytest

from anisolab import descent
from anisolab.aniso2d import intro_exp_fn, quadratic_fn, radial_power_fn
from anisolab.descent import IterationCapError, NonDoublingError
from anisolab.gridfield import GridField2D, divergence_of, forward_gradient
from anisolab.pde import (
    ApproxSequence,
    DiscreteMeasure,
    mollify_measure,
    solve_weak,
    truncate,
    truncation_bounds_check,
    uniqueness_experiment,
)
from anisolab.sobolev import modular_vector

POISSON_CENTER = 0.07367135138980674


def _unit_source(n):
    f = GridField2D.unit_square(n)
    f.values[:] = 1.0
    return f


def test_truncate_basics():
    f = GridField2D.unit_square(9)
    f.values[:] = 3.0
    assert np.all(truncate(f, 2.0).values == 2.0)
    f.values[:] = 0.5
    assert np.array_equal(truncate(f, 2.0).values, f.values)
    g = GridField2D.unit_square(9)
    g.values = np.linspace(-3, 3, 81).reshape(9, 9)
    assert np.array_equal(truncate(g, 1.5).values, -truncate(_neg(g), 1.5).values)
    with pytest.raises(ValueError):
        truncate(f, 0.0)


def _neg(f):
    return GridField2D(-f.values, f.h)


def test_mollify_mass_conservation():
    base = GridField2D.unit_square(65)
    mu = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    for kernel in ("gaussian", "bump"):
        h = mollify_measure(mu, 0.1, kernel, base)
        assert np.sum(h.values) * base.cell_area == pytest.approx(1.0, rel=1e-12)
    ga = mollify_measure(mu, 0.1, "gaussian", base)
    bu = mollify_measure(mu, 0.1, "bump", base)
    assert np.max(np.abs(ga.values - bu.values)) > 1.0  # genuinely different shapes


def test_mollify_scale_floor():
    base = GridField2D.unit_square(33)
    mu = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    with pytest.raises(ValueError):
        mollify_measure(mu, 0.5 * base.h, "gaussian", base)


def test_mollify_boundary_clip_warns():
    base = GridField2D.unit_square(65)
    mu = DiscreteMeasure(atoms=[(0.05, 0.5, 1.0)])
    with pytest.warns(UserWarning):
        h = mollify_measure(mu, 0.2, "bump", base)
    assert np.sum(h.values) * base.cell_area == pytest.approx(1.0, rel=1e-12)


def test_mollify_rejects_an_atom_on_the_box_edge():
    base = GridField2D.unit_square(33)
    mu = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0), (0.0, 0.5, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no blob is built, so nothing is renormalized
        with pytest.raises(ValueError, match=r"atom at \(0.0, 0.5\)"):
            mollify_measure(mu, 0.25, "bump", base)


def test_mollify_density_smoothing():
    base = GridField2D.unit_square(65)
    dens = GridField2D.unit_square(65)
    ax = dens.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    dens.values = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.02)
    mu = DiscreteMeasure(atoms=[], density=dens)
    smoothed = mollify_measure(mu, 2 * base.h, "gaussian", base)
    assert not np.array_equal(smoothed.values, dens.values)
    assert np.max(np.abs(smoothed.values - dens.values)) <= 0.05 * np.max(dens.values)
    # the density's mass, well inside the box, is kept
    mass = np.sum(dens.values) * base.cell_area
    assert np.sum(smoothed.values) * base.cell_area == pytest.approx(mass, rel=1e-6)


def test_atom_outside_grid_rejected():
    base = GridField2D.unit_square(17)
    mu = DiscreteMeasure(atoms=[(1.5, 0.5, 1.0)])
    with pytest.raises(ValueError):
        mu.node_values(base)


def test_decomposition_action_rejects_atoms_off_the_grid():
    # the measure acts on a test function through its node density, atoms as w/h^2
    n = 17
    test = GridField2D.unit_square(n)
    # an atom on the box edge would sit where the zero-boundary solves hold u = 0
    off = ((-0.2, 0.5), (0.5, -0.2), (1.5, 0.5), (0.5, 1.5), (0.0, 0.5), (1.0, 0.5), (0.5, 0.0))
    for atom in ((x, y, 1.0) for x, y in off):
        with pytest.raises(ValueError, match="is not inside the open box of the grid"):
            DiscreteMeasure(atoms=[atom]).node_values(test)
    vals = DiscreteMeasure(atoms=[(0.5, 0.5, 1.5)]).node_values(test)
    expected = np.zeros((n, n))
    expected[8, 8] = 1.5 / test.h**2
    assert np.array_equal(vals, expected)
    test.values[:] = 2.0
    assert np.sum(vals * test.values) * test.cell_area == 3.0


def test_solve_weak_rejects_non_doubling():
    with pytest.raises(NonDoublingError):
        solve_weak(intro_exp_fn(), _unit_source(17))


def test_solve_zero_datum_zero_solution():
    f = GridField2D.unit_square(33)
    u = solve_weak(quadratic_fn(), f)
    assert np.max(np.abs(u.values)) == 0.0


def test_solve_symmetry():
    n = 65
    f = GridField2D.unit_square(n)
    ax = f.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    f.values = np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.05)
    u = solve_weak(quadratic_fn(), f)
    assert np.max(np.abs(u.values - u.values.T)) <= 1e-8 * np.max(np.abs(u.values))


def test_poisson_center_value():
    n = 65
    u = solve_weak(quadratic_fn(), _unit_source(n))
    center = u.values[n // 2, n // 2]
    assert abs(center - POISSON_CENTER) / POISSON_CENTER <= 0.01
    # the Euler-Lagrange residual div A(grad u) + f on the interior nodes
    ax, ay = quadratic_fn().grad(*forward_gradient(u.values, u.h))
    res = divergence_of(ax, ay, u.h, n) + _unit_source(n).values
    assert np.max(np.abs(res[1:-1, 1:-1])) <= 1e-3


def test_torsion_matches_the_dense_five_point_solve():
    # quadratic growth: the Poisson metric is the exact inverse Hessian, so
    # the descent ends at the discrete minimizer, not near it
    n = 33
    f = _unit_source(n)
    u = solve_weak(quadratic_fn(), f)
    m = n - 2
    t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    lap = (np.kron(t, np.eye(m)) + np.kron(np.eye(m), t)) / f.h**2
    ref = np.linalg.solve(lap, np.ones(m * m)).reshape(m, m)
    err = np.max(np.abs(u.values[1:-1, 1:-1] - ref)) / np.max(ref)
    assert err <= 1e-12, err


def test_torsion_certificate_is_the_exact_gap(monkeypatch, rng):
    # quadratic growth and a linear psi: the dual gap, here half the
    # metric norm of the gradient <g, P g> / 2, is exactly E(u) - min E,
    # with the minimum from the dense five-point solve.  One iteration
    # from a rough warm start leaves a wide bracket whose lower end is
    # that minimum
    n = 33
    f = _unit_source(n)
    m = n - 2
    t = 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)
    lap = (np.kron(t, np.eye(m)) + np.kron(np.eye(m), t)) / f.h**2
    e_min = -0.5 * f.h**2 * float(np.sum(np.linalg.solve(lap, np.ones(m * m))))
    monkeypatch.setattr(descent, "MAX_ITER", 1)
    with pytest.raises(IterationCapError) as info:
        solve_weak(quadratic_fn(), f, u0=rng.random((n, n)))
    part = info.value.result
    assert part.gap > 0.1 * abs(e_min)
    assert part.objective - part.gap == pytest.approx(e_min, rel=1e-12)
    monkeypatch.undo()
    # the converged solve stops on the certificate; its bracket holds the
    # minimum up to the rounding of the energy sums
    u = solve_weak(quadratic_fn(), f)
    slack = 1e-14 * abs(e_min)
    assert u.stop_reason == "gap" and u.gap <= 1e-9 * abs(u.objective)
    assert u.objective - u.gap - slack <= e_min <= u.objective + slack


def test_truncation_never_raises_gradient_energy():
    n = 65
    u = solve_weak(quadratic_fn(), _unit_source(n))
    for k in (0.01, 0.03, 0.05):
        tk = truncate(u, k)
        gx, gy = forward_gradient(tk.values, u.h)
        gx0, gy0 = forward_gradient(u.values, u.h)
        e_t = modular_vector(gx, gy, quadratic_fn(), u.cell_area)
        e_0 = modular_vector(gx0, gy0, quadratic_fn(), u.cell_area)
        assert e_t <= e_0 + 1e-12


def test_truncation_bounds_quick():
    n = 65
    base = GridField2D.unit_square(n)
    mu = DiscreteMeasure(atoms=[(0.5, 0.5, 1.0)])
    phi = radial_power_fn(1.5)
    sols = []
    prev = None
    for eps in (0.25, 0.125, 0.0625):
        hf = mollify_measure(mu, eps, "gaussian", base)
        sol = solve_weak(phi, hf, rel_tol=1e-9, u0=prev)
        prev = sol.values.copy()
        sols.append(sol)
    umax1 = float(np.max(sols[0].values))
    rep = truncation_bounds_check(sols, [0.1 * umax1, 0.2 * umax1, 0.4 * umax1], phi)
    assert rep["ok"], rep["per_stage"]
    # a k far above the solution range saturates: ratio decreases
    big_k = 100.0 * float(np.max(sols[-1].values))
    from anisolab.sobolev import luxemburg_norm_gradient

    sat = luxemburg_norm_gradient(truncate(sols[-1], big_k), phi)
    assert sat / big_k < rep["C0"] / 10.0


def test_uniqueness_identical_sequences_zero_gap():
    n = 33
    base = GridField2D.unit_square(n)
    dens = GridField2D.unit_square(n)
    dens.values[10:22, 10:22] = 1.0
    mu = DiscreteMeasure(atoms=[], density=dens)
    seq = ApproxSequence(kernel="gaussian", scales=[0.25, 0.125])
    rep = uniqueness_experiment(quadratic_fn(), mu, seq, seq, base)
    assert rep.l1_gaps == [0.0, 0.0]
    assert rep.gap_integrals == [0.0, 0.0]


def test_uniqueness_trends_quick():
    n = 65
    base = GridField2D.unit_square(n)
    dens = GridField2D.unit_square(n)
    ax = dens.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    dens.values = np.where((np.abs(X - 0.5) <= 0.2) & (np.abs(Y - 0.5) <= 0.2), 1.0, 0.0)
    mu = DiscreteMeasure(atoms=[], density=dens)
    scales = [0.25, 0.125, 0.0625]
    rep = uniqueness_experiment(
        quadratic_fn(),
        mu,
        ApproxSequence(kernel="gaussian", scales=scales),
        ApproxSequence(kernel="bump", scales=scales),
        base,
    )
    assert rep.gaps_decreasing()
    assert rep.gap_integrals_decreasing()
    assert rep.l1_gaps[-1] < 1e-2


def test_uniqueness_bad_sequence_rejected():
    n = 33
    base = GridField2D.unit_square(n)
    dens = GridField2D.unit_square(n)
    dens.values[10:22, 10:22] = 1.0
    mu = DiscreteMeasure(atoms=[], density=dens)
    diverging = ApproxSequence(kernel="gaussian", scales=[0.1, 0.2, 0.4])
    with pytest.raises(ValueError):
        uniqueness_experiment(quadratic_fn(), mu, diverging, diverging, base)
