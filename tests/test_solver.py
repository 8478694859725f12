"""Newton solver tests.

Accuracy anchors come from the radial shooting oracle: a constant-potential
solve must reproduce the rescaled one-dimensional profile at second order
in h.  The remaining tests pin down iteration behavior (quadratic tail,
Krylov counts, backtracks and shifts) and the error paths.
"""

import dataclasses
import math

import numpy as np
import pytest

from nlsbump.errors import ConsistencyError, ConvergenceError, DomainError, \
    GeometryError
import nlsbump.solver
from nlsbump.grid import make_grid, make_problem
from nlsbump.potential import (WellSpec, eval_potential, grad_potential,
                               make_multiwell)
from nlsbump.radial import eval_profile
from nlsbump.solver import (BumpSpec, build_ansatz,
                            dirichlet_inverse, interior_operator,
                            jacobian_diagonal, newton_solve, residual,
                            sample_bump)
from support import constant_potential


def node_points(grid):
    """The grid nodes as a (node_count, dim) row array, row-major."""
    return np.stack(np.meshgrid(*grid.axes, indexing="ij"),
                    axis=-1).reshape(-1, grid.dim)


def const_problem_1d(n, eps=1.0):
    grid = make_grid(lo=[-25.0], hi=[25.0], counts=[n])
    return make_problem(eps=eps, p=4.0, potential=constant_potential(1.0, 1),
                        grid=grid)


def const_problem_2d(n, eps=1.0):
    # wide enough that the Dirichlet truncation (~e^-10) sits far below
    # the h^2 discretization error at these resolutions
    grid = make_grid(lo=[-10.0, -10.0], hi=[10.0, 10.0], counts=[n, n])
    return make_problem(eps=eps, p=4.0, potential=constant_potential(1.0, 2),
                        grid=grid)


def single_well_problem(n=161, eps=0.25):
    well = WellSpec(center=np.array([0.0, 0.0]), depth=1.0, coeff=1.0)
    pot = make_multiwell([well], exponent=2.0, patch_radius=0.4)
    grid = make_grid(lo=[-2.5, -2.5], hi=[2.5, 2.5], counts=[n, n])
    return make_problem(eps=eps, p=4.0, potential=pot, grid=grid)


@pytest.fixture(scope="module")
def well_solution(get_profile):
    spec = single_well_problem()
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    u, rep = newton_solve(spec, u0)
    return spec, u0, u, rep


def test_zero_start_returns_trivial_fixed_point():
    spec = const_problem_1d(201)
    u0 = np.zeros(spec.grid.counts)
    u, rep = newton_solve(spec, u0)
    assert rep.converged
    assert rep.trivial
    assert not rep.positivity
    assert np.all(u == 0.0)


def test_dim1_matches_radial_oracle_at_second_order(get_profile):
    prof = get_profile(1.0, 4.0, 1)
    errs = {}
    for n in (501, 1001):
        spec = const_problem_1d(n)
        u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(1)),))
        u, rep = newton_solve(spec, u0)
        assert rep.converged and rep.positivity
        exact = eval_profile(prof, np.abs(spec.grid.axes[0]))[0]
        errs[n] = np.abs(u - exact).max()
    # measured: coarse 1.16e-3, fine 2.90e-4, order 2.00
    assert errs[1001] <= 5e-4
    order = np.log2(errs[501] / errs[1001])
    assert order >= 1.9


def test_dim2_matches_radial_oracle_at_second_order(get_profile):
    prof = get_profile(1.0, 4.0, 2)
    errs = {}
    iters = {}
    for n in (129, 257):
        spec = const_problem_2d(n)
        u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
        u, rep = newton_solve(spec, u0)
        assert rep.converged and rep.positivity
        r = np.linalg.norm(node_points(spec.grid), axis=1)
        exact = eval_profile(prof, r)[0].reshape(spec.grid.counts)
        errs[n] = np.abs(u - exact).max()
        iters[n] = rep.iterations
    assert errs[257] <= 8e-3
    assert np.log2(errs[129] / errs[257]) >= 1.9
    assert iters[129] <= 4


def test_single_well_converges_positive(well_solution):
    spec, u0, u, rep = well_solution
    assert rep.converged
    assert rep.positivity
    assert not rep.trivial
    assert rep.final_residual <= 1e-10


def test_residual_history_monotone_with_quadratic_tail(well_solution):
    _, _, _, rep = well_solution
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    for a, b in zip(hist, hist[1:]):
        if a < 1e-3 and b > 5e-13:
            assert b <= 10.0 * a ** 1.7


def test_jacobian_symmetry_and_fd_consistency(well_solution):
    # F is residual and J is interior_operator of jacobian_diagonal, as
    # newton_solve applies them (p = 4, so |u|^(p-2) u = u^3)
    spec, _, u, _ = well_solution
    rng = np.random.default_rng(7)
    inner = (slice(1, -1), slice(1, -1))
    v_int = spec.potential_values[inner]
    u_int = u[inner]
    e2 = spec.eps ** 2
    assert np.array_equal(jacobian_diagonal(spec, u_int),
                          v_int - 3.0 * u_int ** 2)
    jmat = interior_operator(jacobian_diagonal(spec, u_int),
                             spec.grid.spacing, e2)
    linear = interior_operator(v_int, spec.grid.spacing, e2)
    u_int = u_int.ravel()

    def embed(w):
        full = np.zeros(spec.grid.counts)
        full[inner] = w.reshape(v_int.shape)
        return full

    def f_int(w):
        return residual(spec, embed(w))[inner].ravel()

    # F on the grid: the stencil minus the cube inside, zero on the ring
    assert np.array_equal(residual(spec, embed(u_int)),
                          embed(linear(u_int) - u_int * u_int * u_int))

    v = rng.standard_normal(u_int.size)
    w = rng.standard_normal(u_int.size)
    lhs = float(np.sum(jmat(v) * w))
    rhs = float(np.sum(v * jmat(w)))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    # finite differences of the full residual approach Jv at first order
    x = node_points(spec.grid)
    smooth = np.exp(-np.sum(x ** 2, axis=1)).reshape(spec.grid.counts)
    smooth = smooth[inner].ravel()
    errs = []
    for t in (1e-4, 1e-5):
        fd = (f_int(u_int + t * smooth) - f_int(u_int)) / t
        errs.append(np.abs(fd - jmat(smooth)).max())
    assert errs[0] <= 1e-3
    assert errs[1] <= 0.2 * errs[0]


def test_solutions_on_nested_grids_differ_at_second_order(get_profile):
    prof = get_profile(1.0, 4.0, 1)
    fields = {}
    for n in (501, 1001):
        spec = const_problem_1d(n)
        u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(1)),))
        u, _ = newton_solve(spec, u0)
        fields[n] = u
    shared = fields[1001][::2]
    assert np.abs(shared - fields[501]).max() <= 1.2e-3


def benchmark_factory(eps):
    wells = [WellSpec(center=np.array([-1.0, 0.0]), depth=1.0, coeff=1.0),
             WellSpec(center=np.array([1.0, 0.0]), depth=1.21, coeff=1.0)]
    pot = make_multiwell(wells, exponent=2.0, patch_radius=0.4)
    h = eps / 6.0
    nx = 2 * int(round(4.25 / h)) + 1
    ny = 2 * int(round(3.25 / h)) + 1
    grid = make_grid(lo=[-4.25, -3.25], hi=[4.25, 3.25], counts=[nx, ny])
    return make_problem(eps=eps, p=4.0, potential=pot, grid=grid)


def benchmark_ansatz(get_profile):
    return (
        BumpSpec(get_profile(1.0, 4.0, 2), np.array([-1.0, 0.0])),
        BumpSpec(get_profile(1.21, 4.0, 2), np.array([1.0, 0.0])))


def test_preconditioner_keeps_krylov_counts_small(get_profile):
    spec = benchmark_factory(0.3)
    u0 = build_ansatz(spec, benchmark_ansatz(get_profile))
    _, rep = newton_solve(spec, u0)
    assert rep.converged
    assert len(rep.krylov_iterations) == len(rep.backtracks) \
        == len(rep.shifts) == rep.iterations
    # measured: 8-13 per step; unpreconditioned MINRES took 100-200
    assert 1 <= min(rep.krylov_iterations)
    assert max(rep.krylov_iterations) <= 20
    assert rep.krylov_short == 0


def test_report_records_backtracks_and_shifts(get_profile):
    # measured: backtracks 2, 6, 7, 7, 7, 1, then 0; the shift climbs to
    # 0.147 in step 6 and relaxes to 0 for the quadratic tail
    spec = benchmark_factory(0.4)
    u0 = build_ansatz(spec, benchmark_ansatz(get_profile))
    _, rep = newton_solve(spec, u0)
    assert rep.converged
    assert sum(rep.backtracks) > 0 and max(rep.shifts) > 0.0
    assert rep.backtracks[-1] == 0 and rep.shifts[-1] == 0.0
    for trials, shift in zip(rep.backtracks, rep.shifts):
        # more rejected trials than one attempt has means an attempt failed
        # and the step ended on a raised shift
        if trials >= nlsbump.solver._MAX_BACKTRACKS:
            assert shift > 0.0


def test_forcing_cuts_krylov_work_without_moving_the_solution(
        get_profile, monkeypatch):
    # measured: 6 Newton steps either way, 60 MINRES iterations against
    # 112 at the fixed tolerance, solutions 2.0e-13 apart (relative sup)
    cap, floor = nlsbump.solver._FORCING_MAX, nlsbump.solver._KRYLOV_TOL
    spec = benchmark_factory(0.3)
    u0 = build_ansatz(spec, benchmark_ansatz(get_profile))
    u, rep = newton_solve(spec, u0)
    # the fixed-tolerance solve
    monkeypatch.setattr(nlsbump.solver, "_FORCING_MAX", floor)
    u_ref, ref = newton_solve(spec, u0)
    assert rep.converged and ref.converged
    assert rep.iterations == ref.iterations
    assert sum(rep.krylov_iterations) <= 0.65 * sum(ref.krylov_iterations)
    assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert len(rep.forcing) == rep.iterations
    assert rep.forcing[0] == cap
    assert all(floor <= eta <= cap for eta in rep.forcing)
    assert ref.forcing == [floor] * ref.iterations


def test_minres_stopping_short_is_counted(get_profile, monkeypatch):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    monkeypatch.setattr(nlsbump.solver, "_KRYLOV_MAX", 2)
    monkeypatch.setattr(nlsbump.solver, "_MAX_NEWTON", 2)
    monkeypatch.setattr(nlsbump.solver, "_TOL_RESIDUAL", 1e-14)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(spec, u0)
    rep = err.value.report
    assert rep.krylov_iterations == [2, 2]
    assert rep.krylov_short == 2


@pytest.mark.parametrize("counts,eps", [((9,), 0.7), ((11, 9), 0.45),
                                        ((9, 11, 13), 0.6)])
def test_dirichlet_inverse_inverts_constant_potential_metric(counts, eps):
    dim = len(counts)
    grid = make_grid(lo=[-3.0] * dim, hi=[3.0, 2.5, 4.0][:dim],
                     counts=list(counts))
    spec = make_problem(eps=eps, p=4.0,
                        potential=constant_potential(1.7, dim), grid=grid)
    inner = tuple(slice(1, -1) for _ in counts)
    v_int = spec.potential_values[inner]
    eye = np.eye(v_int.size)
    metric = interior_operator(v_int, grid.spacing, eps ** 2)(eye)
    inverse = dirichlet_inverse(spec) @ eye
    # SPD, as preconditioned MINRES needs: V_inf = V = 1.7 > 0
    assert np.abs(inverse - inverse.T).max() <= 1e-12 * np.abs(inverse).max()
    assert np.linalg.eigvalsh(inverse).min() > 0.0
    product = dirichlet_inverse(spec) @ metric
    assert np.abs(product - eye).max() <= 1e-12


def test_dirichlet_inverse_inverts_the_far_field_operator():
    # P = -eps^2 lap_h + V_inf, the background outside every support
    # ball, not the minimum of V (1.0 at a well floor, V_inf 1.37)
    spec = benchmark_factory(0.3)
    inner = (slice(1, -1),) * 2
    v_int, v_inf = spec.potential_values[inner], spec.potential.background
    assert v_int.min() < v_inf
    far = interior_operator(np.full(v_int.shape, v_inf), spec.grid.spacing,
                            spec.eps ** 2)
    x = np.random.default_rng(3).standard_normal((v_int.size, 2))
    assert np.abs(dirichlet_inverse(spec) @ far(x) - x).max() <= 1e-12


def min_v_inverse(spec):
    """The DST-I inverse with the constant min V on the interior in place
    of V_inf: the reference preconditioner."""
    floor = float(spec.potential_values[(slice(1, -1),)
                                        * spec.grid.dim].min())
    return dirichlet_inverse(dataclasses.replace(
        spec, potential=dataclasses.replace(spec.potential,
                                            background=floor)))


def test_far_field_preconditioner_cuts_krylov_work(get_profile,
                                                   monkeypatch):
    # measured: 6 Newton steps either way, 60 MINRES iterations against
    # 67 with min V, solutions 1.9e-13 apart (relative sup)
    spec = benchmark_factory(0.3)
    u0 = build_ansatz(spec, benchmark_ansatz(get_profile))
    u, rep = newton_solve(spec, u0)
    monkeypatch.setattr(nlsbump.solver, "dirichlet_inverse", min_v_inverse)
    u_ref, ref = newton_solve(spec, u0)
    assert rep.converged and ref.converged
    assert rep.iterations == ref.iterations
    assert sum(rep.krylov_iterations) < sum(ref.krylov_iterations)
    assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()


def test_build_ansatz_validates_center_and_floor(get_profile):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    with pytest.raises(GeometryError):
        build_ansatz(spec, (BumpSpec(prof, np.array([3.0, 0.0])),))
    # profile floor 1.0 but V at the off-center point is 1 + 0.25
    with pytest.raises(ConsistencyError):
        build_ansatz(spec, (BumpSpec(prof, np.array([0.5, 0.0])),))


def test_build_ansatz_worked_values(get_profile):
    prof1 = get_profile(1.0, 4.0, 2)
    prof2 = get_profile(1.21, 4.0, 2)
    wells = [WellSpec(center=np.array([-1.0, 0.0]), depth=1.0, coeff=1.0),
             WellSpec(center=np.array([1.0, 0.0]), depth=1.21, coeff=1.0)]
    pot = make_multiwell(wells, exponent=2.0, patch_radius=0.4)
    grid = make_grid(lo=[-4.25, -3.25], hi=[4.25, 3.25], counts=[205, 157])
    spec = make_problem(eps=0.25, p=4.0, potential=pot, grid=grid)
    u0 = build_ansatz(spec, (
        BumpSpec(prof1, np.array([-1.0, 0.0])),
        BumpSpec(prof2, np.array([1.0, 0.0]))))
    # (-1, 0) is a grid node: value there is U1(0) plus U2 at separation 2
    ix = int(np.argmin(np.abs(grid.axes[0] + 1.0)))
    iy = int(np.argmin(np.abs(grid.axes[1])))
    got = u0[ix, iy]
    expected = (eval_profile(prof1, 0.0)[0]
                + eval_profile(prof2, 2.0 / 0.25)[0])
    assert abs(got - expected) <= 1e-12
    assert eval_profile(prof2, 8.0)[0] <= np.exp(-0.5 * 8.0)


@pytest.mark.parametrize("dim, counts", [(1, (61,)), (2, (31, 17)),
                                         (3, (23, 13, 11))],
                         ids=["1d", "2d", "3d"])
def test_coordinate_path_agrees_with_nodewise_evaluation(get_profile, dim,
                                                         counts):
    # V, grad V and a sampled bump on the grid's broadcast coordinates
    # (grid.mesh()) equal the same evaluations one node at a time, bit for
    # bit: a minimum, and a maximum (coeff < 0) under an explicit
    # background, with nodes in both patches and both blend shells.
    wells = [WellSpec(np.eye(dim)[0] * sign, depth, coeff)
             for sign, depth, coeff in ((-1.0, 1.0, 1.0), (1.0, 1.21, -0.3))]
    pot = make_multiwell(wells, exponent=2.0, patch_radius=0.4,
                         background=1.3)
    grid = make_grid(lo=[-2.4] + [-1.4] * (dim - 1),
                     hi=[2.4] + [1.4] * (dim - 1), counts=list(counts))
    spec = make_problem(eps=0.1, p=4.0, potential=pot, grid=grid)
    prof = get_profile(1.0, 4.0, dim)
    center = np.array([-0.97, 0.05, -0.02])[:dim]
    bump = sample_bump(spec, prof, center)[0]
    want_v, want_bump = np.empty(counts), np.empty(counts)
    want_g = np.empty((dim, *counts))
    for idx in np.ndindex(*counts):
        node = np.array([grid.axes[a][i] for a, i in enumerate(idx)])
        want_v[idx] = eval_potential(pot, node)
        want_g[(slice(None), *idx)] = grad_potential(pot, node)
        dist = math.sqrt(sum((x - c) * (x - c) for x, c in zip(node, center)))
        want_bump[idx] = eval_profile(prof, dist / spec.eps)[0]
    assert np.array_equal(eval_potential(pot, grid.mesh()), want_v)
    assert np.array_equal(spec.potential_values, want_v)
    assert np.array_equal(grad_potential(pot, grid.mesh()), want_g)
    assert np.array_equal(bump, want_bump)
    for w in wells:  # nodes in each well's core and blend shell
        d = np.sqrt(sum((x - c) ** 2 for x, c in zip(grid.mesh(), w.center)))
        assert np.any(d < 0.4) and np.any((d > 0.4) & (d < 0.8))


def test_convergence_error_carries_partial_state(get_profile, monkeypatch):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    monkeypatch.setattr(nlsbump.solver, "_MAX_NEWTON", 1)
    monkeypatch.setattr(nlsbump.solver, "_TOL_RESIDUAL", 1e-14)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(spec, u0)
    assert err.value.report.iterations == 1
    assert len(err.value.report.krylov_iterations) == 1
    assert not err.value.report.converged


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_start_is_rejected(bad):
    # A NaN residual reads as converged in the stopping test, so a start
    # with one non-finite node would return at once with converged=True.
    spec = const_problem_1d(64)
    u0 = np.zeros(spec.grid.counts)
    u0[20] = bad
    with pytest.raises(DomainError, match="finite"):
        newton_solve(spec, u0)


def test_mismatched_grid_rejected():
    spec = const_problem_1d(64)
    other = make_grid(lo=[-25.0], hi=[25.0], counts=[65])
    u0 = np.zeros(other.counts)
    with pytest.raises(DomainError):
        newton_solve(spec, u0)


@pytest.mark.parametrize("depth, positive", [(2.0, False), (0.5, True)])
def test_positivity_ignores_negativity_the_tolerance_cannot_resolve(
        get_profile, monkeypatch, depth, positive):
    # tau = tolerance / min V: at the most negative node -lap_h u <= 0, so
    # |F| >= |u| (V - |u|^(p-2)) there, and a converged solve leaves a
    # positive solution's far field anywhere within tau of zero.  One
    # interior node of the ansatz at -depth tau; no Newton step is taken,
    # so the report describes the start.
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    tau = (nlsbump.solver._TOL_RESIDUAL
           / spec.potential_values[1:-1, 1:-1].min())
    u0[1, 1] = -depth * tau
    monkeypatch.setattr(nlsbump.solver, "_MAX_NEWTON", 0)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(spec, u0)
    assert err.value.report.iterations == 0
    assert err.value.report.positivity is positive
