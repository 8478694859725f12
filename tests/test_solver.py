"""Newton solver tests.

Accuracy anchors come from the radial shooting oracle: a constant-potential
solve must reproduce the rescaled one-dimensional profile at second order
in h.  The remaining tests pin down iteration behavior (quadratic tail,
Krylov counts, backtracks and shifts) and the error paths.
"""

import numpy as np
import pytest

from nlsbump.errors import ConsistencyError, ConvergenceError, DomainError, \
    GeometryError
from nlsbump.grid import (apply_linear, make_field, make_grid, make_problem,
                          pde_residual)
from nlsbump.potential import WellSpec, constant_potential, make_multiwell
from nlsbump.analysis import _interior_operators
from nlsbump.solver import (AnsatzSpec, BumpSpec, NewtonConfig, build_ansatz,
                            dirichlet_inverse, dirichlet_symbol, newton_solve)


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
    u0 = build_ansatz(spec, AnsatzSpec(bumps=(BumpSpec(prof, np.zeros(2)),)))
    u, rep = newton_solve(spec, u0)
    return spec, u0, u, rep


def test_zero_start_returns_trivial_fixed_point():
    spec = const_problem_1d(201)
    u0 = make_field(spec.grid, np.zeros(spec.grid.counts))
    u, rep = newton_solve(spec, u0)
    assert rep.converged
    assert rep.trivial
    assert not rep.positivity
    assert np.all(u.values == 0.0)


def test_dim1_matches_radial_oracle_at_second_order(get_profile):
    from nlsbump.radial import eval_profile
    prof = get_profile(1.0, 4.0, 1)
    errs = {}
    for n in (501, 1001):
        spec = const_problem_1d(n)
        u0 = build_ansatz(spec,
                          AnsatzSpec(bumps=(BumpSpec(prof, np.zeros(1)),)))
        u, rep = newton_solve(spec, u0)
        assert rep.converged and rep.positivity
        exact = eval_profile(prof, np.abs(spec.grid.axes()[0]))
        errs[n] = np.abs(u.values - exact).max()
    # measured: coarse 1.16e-3, fine 2.90e-4, order 2.00
    assert errs[1001] <= 5e-4
    order = np.log2(errs[501] / errs[1001])
    assert order >= 1.9


def test_dim2_matches_radial_oracle_at_second_order(get_profile):
    from nlsbump.radial import eval_profile
    prof = get_profile(1.0, 4.0, 2)
    errs = {}
    iters = {}
    for n in (129, 257):
        spec = const_problem_2d(n)
        u0 = build_ansatz(spec,
                          AnsatzSpec(bumps=(BumpSpec(prof, np.zeros(2)),)))
        u, rep = newton_solve(spec, u0)
        assert rep.converged and rep.positivity
        r = np.linalg.norm(spec.grid.points(), axis=1)
        exact = eval_profile(prof, r).reshape(spec.grid.counts)
        errs[n] = np.abs(u.values - exact).max()
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
    spec, _, u, _ = well_solution
    rng = np.random.default_rng(7)

    def jmat(v):
        field = make_field(spec.grid, v)
        out = apply_linear(spec, field).values
        out -= 3.0 * u.values ** 2 * v
        return out

    def bz(a):
        a = a.copy()
        a[0, :] = a[-1, :] = 0.0
        a[:, 0] = a[:, -1] = 0.0
        return a

    v = bz(rng.standard_normal(spec.grid.counts))
    w = bz(rng.standard_normal(spec.grid.counts))
    lhs = float(np.sum(jmat(v) * w))
    rhs = float(np.sum(v * jmat(w)))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    # finite differences of the full residual approach Jv at first order
    x = spec.grid.points()
    smooth = np.exp(-np.sum(x ** 2, axis=1)).reshape(spec.grid.counts)
    errs = []
    for t in (1e-4, 1e-5):
        up = make_field(spec.grid, u.values + t * smooth)
        fd = (pde_residual(spec, up).values
              - pde_residual(spec, u).values) / t
        errs.append(np.abs(fd - jmat(smooth)).max())
    assert errs[0] <= 1e-3
    assert errs[1] <= 0.2 * errs[0]


def test_solutions_on_nested_grids_differ_at_second_order(get_profile):
    prof = get_profile(1.0, 4.0, 1)
    fields = {}
    for n in (501, 1001):
        spec = const_problem_1d(n)
        u0 = build_ansatz(spec,
                          AnsatzSpec(bumps=(BumpSpec(prof, np.zeros(1)),)))
        u, _ = newton_solve(spec, u0)
        fields[n] = u
    shared = fields[1001].values[::2]
    assert np.abs(shared - fields[501].values).max() <= 1.2e-3


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
    return AnsatzSpec(bumps=(
        BumpSpec(get_profile(1.0, 4.0, 2), np.array([-1.0, 0.0])),
        BumpSpec(get_profile(1.21, 4.0, 2), np.array([1.0, 0.0]))))


def test_preconditioner_keeps_krylov_counts_small(get_profile):
    spec = benchmark_factory(0.3)
    u0 = build_ansatz(spec, benchmark_ansatz(get_profile))
    _, rep = newton_solve(spec, u0)
    assert rep.converged
    assert len(rep.krylov_iterations) == len(rep.backtracks) \
        == len(rep.shifts) == rep.iterations
    # measured: 20-24 per step; unpreconditioned MINRES took 100-200
    assert 1 <= min(rep.krylov_iterations)
    assert max(rep.krylov_iterations) <= 40
    assert rep.krylov_short == 0


def test_report_records_backtracks_and_shifts(get_profile):
    # measured: backtracks 2, 6, 7, 7, 13, then 0; the shift climbs to
    # 0.147 in step 5 and relaxes to 0 for the quadratic tail
    spec = benchmark_factory(0.4)
    u0 = build_ansatz(spec, benchmark_ansatz(get_profile))
    _, rep = newton_solve(spec, u0)
    assert rep.converged
    assert sum(rep.backtracks) > 0 and max(rep.shifts) > 0.0
    assert rep.backtracks[-1] == 0 and rep.shifts[-1] == 0.0
    for trials, shift in zip(rep.backtracks, rep.shifts):
        # more rejected trials than one attempt has means an attempt failed
        # and the step ended on a raised shift
        if trials >= NewtonConfig().max_backtracks:
            assert shift > 0.0


def test_minres_stopping_short_is_counted(get_profile):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, AnsatzSpec(bumps=(BumpSpec(prof, np.zeros(2)),)))
    with pytest.raises(ConvergenceError) as err:
        newton_solve(spec, u0, NewtonConfig(krylov_max=2, max_newton=2,
                                            tol_residual=1e-14))
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
    _, m_sp, _, n_int = _interior_operators(spec, np.zeros(grid.counts))
    symbol = dirichlet_symbol(tuple(n - 2 for n in counts), grid.spacing,
                              eps ** 2, 1.7)
    assert symbol.size == n_int
    assert np.all(symbol > 0.0)
    product = dirichlet_inverse(symbol) @ m_sp.toarray()
    assert np.abs(product - np.eye(n_int)).max() <= 1e-12


def test_build_ansatz_validates_center_and_floor(get_profile):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    with pytest.raises(GeometryError):
        build_ansatz(spec, AnsatzSpec(bumps=(
            BumpSpec(prof, np.array([3.0, 0.0])),)))
    with pytest.raises(DomainError):
        build_ansatz(spec, AnsatzSpec(bumps=(
            BumpSpec(prof, np.zeros(2), amplitude=-1.0),)))
    # profile floor 1.0 but V at the off-center point is 1 + 0.25
    with pytest.raises(ConsistencyError):
        build_ansatz(spec, AnsatzSpec(bumps=(
            BumpSpec(prof, np.array([0.5, 0.0])),)))


def test_build_ansatz_worked_values(get_profile):
    from nlsbump.radial import eval_profile
    prof1 = get_profile(1.0, 4.0, 2)
    prof2 = get_profile(1.21, 4.0, 2)
    wells = [WellSpec(center=np.array([-1.0, 0.0]), depth=1.0, coeff=1.0),
             WellSpec(center=np.array([1.0, 0.0]), depth=1.21, coeff=1.0)]
    pot = make_multiwell(wells, exponent=2.0, patch_radius=0.4)
    grid = make_grid(lo=[-4.25, -3.25], hi=[4.25, 3.25], counts=[205, 157])
    spec = make_problem(eps=0.25, p=4.0, potential=pot, grid=grid)
    u0 = build_ansatz(spec, AnsatzSpec(bumps=(
        BumpSpec(prof1, np.array([-1.0, 0.0])),
        BumpSpec(prof2, np.array([1.0, 0.0])))))
    # (-1, 0) is a grid node: value there is U1(0) plus U2 at separation 2
    ix = int(np.argmin(np.abs(grid.axes()[0] + 1.0)))
    iy = int(np.argmin(np.abs(grid.axes()[1])))
    got = u0.values[ix, iy]
    expected = (eval_profile(prof1, 0.0)
                + eval_profile(prof2, 2.0 / 0.25))
    assert abs(got - expected) <= 1e-12
    assert eval_profile(prof2, 8.0) <= np.exp(-0.5 * 8.0)


def test_newton_config_validation():
    with pytest.raises(DomainError):
        newton_solve(const_spec := const_problem_1d(64),
                     make_field(const_spec.grid,
                                np.zeros(const_spec.grid.counts)),
                     NewtonConfig(tol_residual=-1.0))
    with pytest.raises(DomainError):
        NewtonConfig(damping=1.5).validate()
    with pytest.raises(DomainError):
        NewtonConfig(krylov_tol=0.0).validate()


def test_convergence_error_carries_partial_state(get_profile):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, AnsatzSpec(bumps=(BumpSpec(prof, np.zeros(2)),)))
    with pytest.raises(ConvergenceError) as err:
        newton_solve(spec, u0, NewtonConfig(max_newton=1,
                                            tol_residual=1e-14))
    assert err.value.report.iterations == 1
    assert len(err.value.report.krylov_iterations) == 1
    assert not err.value.report.converged
    assert err.value.field.values.shape == tuple(spec.grid.counts)


def test_mismatched_grid_rejected():
    spec = const_problem_1d(64)
    other = make_grid(lo=[-25.0], hi=[25.0], counts=[65])
    u0 = make_field(other, np.zeros(other.counts))
    with pytest.raises(DomainError):
        newton_solve(spec, u0)
