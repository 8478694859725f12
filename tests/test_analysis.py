"""Diagnostics tests.

The flux identity and the coercivity estimate each get an independent
check: the identity against its own h-refinement order and a raw-ansatz
negative control, the spectrum against the dense one-dimensional pencil
oracle from conftest.  Decomposition tests use fields whose centers,
amplitudes, and remainders are known by construction.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import nlsbump.analysis
import nlsbump.solver
from nlsbump.analysis import (BumpDecomposition, _reduced_system,
                              coercivity_estimate, decompose, fit_rate,
                              pohozaev_terms, uniqueness_probe)
from nlsbump.config import parse_config, problem_at
from nlsbump.errors import (ConsistencyError, ConvergenceError, DomainError,
                            GeometryError, SpectralError)
from nlsbump.grid import (box_integral, eps_inner, eps_norm, make_grid,
                          make_problem)
from nlsbump.potential import WellSpec, make_multiwell
from nlsbump.radial import eval_profile
from nlsbump.solver import (BumpSpec, SolveReport, build_ansatz,
                            bump_centers, interior_operator,
                            jacobian_diagonal, newton_solve, sample_bump)
from support import constant_potential, radial_integral


def node_points(grid):
    """The grid nodes as a (node_count, dim) row array, row-major."""
    return np.stack(np.meshgrid(*grid.axes, indexing="ij"),
                    axis=-1).reshape(-1, grid.dim)


WELLS = [WellSpec(center=np.array([-1.0, 0.0]), depth=1.0, coeff=1.0),
         WellSpec(center=np.array([1.0, 0.0]), depth=1.21, coeff=1.0)]
CENTERS = np.array([[-1.0, 0.0], [1.0, 0.0]])


def double_well_problem(eps=0.3, counts=(171, 131), exponent=2.0):
    pot = make_multiwell(WELLS, exponent=exponent, patch_radius=0.4)
    grid = make_grid(lo=[-4.25, -3.25], hi=[4.25, 3.25], counts=list(counts))
    return make_problem(eps=eps, p=4.0, potential=pot, grid=grid)


def single_well_problem(n=161, eps=0.25):
    well = WellSpec(center=np.array([0.0, 0.0]), depth=1.0, coeff=1.0)
    pot = make_multiwell([well], exponent=2.0, patch_radius=0.4)
    grid = make_grid(lo=[-2.5, -2.5], hi=[2.5, 2.5], counts=[n, n])
    return make_problem(eps=eps, p=4.0, potential=pot, grid=grid)


def const_problem(n, eps=0.25):
    grid = make_grid(lo=[-2.5, -2.5], hi=[2.5, 2.5], counts=[n, n])
    return make_problem(eps=eps, p=4.0, potential=constant_potential(1.0, 2),
                        grid=grid)


@pytest.fixture(scope="module")
def two_bump_case(get_profile):
    spec = double_well_problem()
    u1 = get_profile(1.0, 4.0, 2)
    u2 = get_profile(1.21, 4.0, 2)
    ansatz = (BumpSpec(u1, CENTERS[0]), BumpSpec(u2, CENTERS[1]))
    u0 = build_ansatz(spec, ansatz)
    return spec, (u1, u2), ansatz, u0


@pytest.fixture(scope="module")
def well_case(get_profile):
    spec = single_well_problem()
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    u, rep = newton_solve(spec, u0)
    assert rep.converged
    dec = decompose(spec, u, np.zeros((1, 2)), profiles=(prof,))
    return spec, u0, u, dec


@pytest.fixture(scope="module")
def fine_well_case(get_profile):
    spec = single_well_problem(n=321)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    u, rep = newton_solve(spec, u0)
    assert rep.converged
    return spec, u


@pytest.fixture(scope="module")
def const_solutions(get_profile):
    prof = get_profile(1.0, 4.0, 2)
    out = {}
    for n in (161, 321):
        spec = const_problem(n)
        u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
        u, rep = newton_solve(spec, u0)
        assert rep.converged
        out[n] = (spec, u)
    return out


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list it appends to."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# --- decomposition ---

def test_decompose_exact_ansatz_is_a_fixed_point(two_bump_case):
    spec, profs, _, u0 = two_bump_case
    dec = decompose(spec, u0, CENTERS, profiles=profs)
    assert dec.iterations == 0
    assert np.abs(dec.centers - CENTERS).max() <= 1e-12
    assert np.abs(dec.amplitudes).max() <= 1e-12
    assert dec.w_norm <= 1e-12
    assert dec.v_norm <= 1e-12
    assert dec.projection_residuals.max() <= 1e-12


def test_decompose_recovers_shifted_centers(two_bump_case):
    spec, (u1, u2), _, _ = two_bump_case
    shift = np.array([0.3 * spec.eps, 0.0])
    truth = np.array([CENTERS[0] + shift, CENTERS[1] - shift])
    u = (sample_bump(spec, u1, truth[0])[0]
         + sample_bump(spec, u2, truth[1])[0])
    dec = decompose(spec, u, CENTERS, profiles=(u1, u2))
    # measured: recovered to 1.5e-17 * eps; the contract asks 1e-3 * eps
    assert np.abs(dec.centers - truth).max() <= 1e-3 * spec.eps
    assert np.abs(dec.amplitudes).max() <= 1e-8


def test_decompose_puts_perturbation_into_remainder(two_bump_case):
    spec, profs, _, u0 = two_bump_case
    grid = spec.grid
    pts = node_points(grid)
    smooth = np.exp(-0.5 * np.sum((pts - np.array([0.0, 0.5])) ** 2, axis=1)
                    / 0.6 ** 2).reshape(grid.counts)
    basis = []
    for prof, c in zip(profs, CENTERS):
        bump, trans, _ = sample_bump(spec, prof, c)
        basis += [bump, *trans]
    gram = np.array([[eps_inner(spec, a, b) for b in basis]
                     for a in basis])
    rhs = np.array([eps_inner(spec, smooth, b) for b in basis])
    coef = np.linalg.solve(gram, rhs)
    orth = smooth - sum(c * b for c, b in zip(coef, basis))
    pert_norm = 0.01 * eps_norm(spec, orth)

    u = u0 + 0.01 * orth
    dec = decompose(spec, u, CENTERS, profiles=profs)
    assert np.abs(dec.amplitudes).max() <= 1e-8
    assert abs(dec.w_norm / pert_norm - 1.0) <= 0.01
    assert abs(dec.v_norm / pert_norm - 1.0) <= 0.01

    # both reconstruction identities hold pointwise
    sup = np.abs(u).max()
    rec_v = sum((1.0 + a) * b for a, b in zip(dec.amplitudes, dec.bumps))
    assert np.abs(rec_v + dec.remainder_v - u).max() <= 1e-12 * sup
    assert np.abs(sum(dec.bumps) + dec.remainder_w - u).max() <= 1e-12 * sup

    # remainder orthogonality at the documented tolerance
    norms = np.array([eps_norm(spec, b) for b in basis])
    assert np.all(dec.projection_residuals <= 1e-8 * dec.v_norm * norms)


@pytest.mark.parametrize("eps, counts, steps",
                         [(0.3, (171, 131), 3), (0.25, (205, 157), 2)])
def test_decompose_counts_projection_steps_on_benchmark_grid(
        get_profile, eps, counts, steps, monkeypatch):
    # The 2-well benchmark grid (spacing eps/6).  The exact Jacobian is
    # assembled from the basis the step already built, so a decomposition
    # samples each of its k bumps once per projection step plus once for
    # the final check: 4 and 3 basis builds at these eps, where the
    # finite-difference Jacobian rebuilt the basis 2k(N+1) = 12 more
    # times per step.  One sample_bump call gives a bump, its translation
    # fields and its Hessian pairings.
    spec = double_well_problem(eps=eps, counts=counts)
    profs = (get_profile(1.0, 4.0, 2), get_profile(1.21, 4.0, 2))
    ansatz = tuple(BumpSpec(prof, c) for prof, c in zip(profs, CENTERS))
    u, rep = newton_solve(spec, build_ansatz(spec, ansatz))
    assert rep.converged
    samples = count_calls(monkeypatch, nlsbump.analysis, "sample_bump")
    dec = decompose(spec, u, CENTERS, profiles=profs)
    assert dec.iterations == steps
    assert len(samples) == len(profs) * (steps + 1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_hessian_pairings_match_differenced_translations(get_profile,
                                                              dim):
    # -<v, dT_a/dc_b>_eps by central differences in the center c, against
    # the pairings read off the profile equation; measured 6.0e-8, 5.1e-10
    # and 1.7e-9 relative in 1-D, 2-D and 3-D.  The center is a grid node,
    # so the r = 0 branch is sampled too.
    n = {1: 201, 2: 81, 3: 33}[dim]
    grid = make_grid(lo=[-2.5] * dim, hi=[2.5] * dim, counts=[n] * dim)
    spec = make_problem(eps=0.5, p=4.0, potential=constant_potential(1.0, dim),
                        grid=grid)
    prof = get_profile(1.0, 4.0, dim)
    center = np.zeros(dim)
    x0 = np.array([0.3, 0.2, -0.25])[:dim]
    v = np.exp(-np.sum((node_points(grid) - x0) ** 2, axis=1)).reshape(
        grid.counts)
    got = sample_bump(spec, prof, center)[2](v)
    h = 1e-4 * spec.eps
    want = np.empty((dim, dim))
    for b in range(dim):
        step = h * np.eye(dim)[b]
        plus = sample_bump(spec, prof, center + step)[1]
        minus = sample_bump(spec, prof, center - step)[1]
        for a in range(dim):
            want[a, b] = -eps_inner(spec, v,
                                    (plus[a] - minus[a]) / (2.0 * h))
    assert np.array_equal(got, got.T)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_decomposition_keeps_the_basis_it_converged_on(two_bump_case):
    # Off the ansatz, so the returned basis comes from a moved center.
    spec, profs, _, _ = two_bump_case
    shift = np.array([0.2 * spec.eps, 0.1 * spec.eps])
    u = (sample_bump(spec, profs[0], CENTERS[0] + shift)[0]
         + sample_bump(spec, profs[1], CENTERS[1] - shift)[0])
    dec = decompose(spec, u, CENTERS, profiles=profs)
    assert dec.iterations > 0
    for j, prof in enumerate(profs):
        bump, trans, _ = sample_bump(spec, prof, dec.centers[j])
        assert np.array_equal(dec.bumps[j], bump)
        assert len(dec.translations[j]) == spec.grid.dim
        for got, want in zip(dec.translations[j], trans):
            assert np.array_equal(got, want)


def test_decompose_on_converged_solution(well_case):
    spec, _, _, dec = well_case
    # the well sits at the origin; a symmetric solve keeps the center there
    assert np.abs(dec.centers[0]).max() <= 1e-10
    assert abs(dec.amplitudes[0]) <= 0.05
    assert 0.0 < dec.w_norm < 0.5


def test_decompose_rejects_bad_geometry(two_bump_case, well_case,
                                       get_profile):
    spec, profs, _, u0 = two_bump_case
    with pytest.raises(GeometryError, match="beyond patch_radius"):
        decompose(spec, u0, np.array([[-1.0, 0.0], [1.45, 0.0]]),
                  profiles=profs)
    with pytest.raises(GeometryError, match="same well"):
        decompose(spec, u0, np.array([[-1.0, 0.0], [-0.9, 0.0]]),
                  profiles=profs)
    with pytest.raises(DomainError, match="one profile per bump"):
        decompose(spec, u0, CENTERS, profiles=(profs[0],))

    wspec = well_case[0]
    prof = get_profile(1.0, 4.0, 2)
    stray = sample_bump(wspec, prof, np.array([0.45, 0.0]))[0]
    with pytest.raises(GeometryError, match="drifted"):
        decompose(wspec, stray, np.zeros((1, 2)), profiles=(prof,))


# --- flux identity ---

BALL_CENTER = np.array([0.3, 0.1])


def test_flux_identity_on_converged_solution(well_case):
    spec, _, u, _ = well_case
    rep = pohozaev_terms(spec, u, [BALL_CENTER], 0.8)[0][0]
    scale = max(abs(rep.lhs_volume), abs(rep.i1), abs(rep.i2), abs(rep.i3))
    # measured: relative residual 1.1e-3 on the 161-point grid
    assert abs(rep.residual) / scale <= 0.01
    assert rep.rel_residual == abs(rep.residual) / scale
    assert rep.residual == rep.lhs_volume - (rep.i1 + rep.i2 + rep.i3)


def test_flux_residual_refines_at_three_halves_order(well_case,
                                                     fine_well_case):
    spec, _, u, _ = well_case
    fspec, fu = fine_well_case
    coarse = pohozaev_terms(spec, u, [BALL_CENTER], 0.8)[0][0]
    fine = pohozaev_terms(fspec, fu, [BALL_CENTER], 0.8)[0][0]
    order = np.log2(abs(coarse.residual) / abs(fine.residual))
    # measured: 2.0
    assert order >= 1.5


def test_flux_identity_flags_a_non_solution(well_case):
    spec, u0, u, _ = well_case
    good = pohozaev_terms(spec, u, [BALL_CENTER], 0.8)[0][0]
    bad = pohozaev_terms(spec, u0, [BALL_CENTER], 0.8)[0][0]

    # measured: 8.6e-2 for the raw ansatz vs 1.1e-3 for the solution
    assert bad.rel_residual >= 0.05
    assert bad.rel_residual >= 5.0 * good.rel_residual


def test_flux_volume_term_vanishes_at_constant_potential(const_solutions):
    reps = {}
    for n, (spec, u) in const_solutions.items():
        reps[n] = pohozaev_terms(spec, u, [BALL_CENTER], 0.8)[0][0]
        assert reps[n].lhs_volume == 0.0
    # boundary groups cancel on their own; measured 2.0e-4 then 5.0e-5
    sums = {n: abs(r.i1 + r.i2 + r.i3) for n, r in reps.items()}
    assert sums[161] <= 1e-3
    assert np.log2(sums[161] / sums[321]) >= 1.5


def test_flux_identity_takes_every_ball_of_an_eps_in_one_pass(
        two_bump_case, monkeypatch):
    # One call forms grad V and grad u on the grid once for both balls and
    # interpolates the stack [u, grad u] once per ball; each ball's reports
    # are bitwise those of a call on that ball alone.
    spec, _, _, u0 = two_bump_case
    centers = CENTERS + np.array([0.3, 0.15])
    alone = [pohozaev_terms(spec, u0, [c], 0.6)[0] for c in centers]
    grads = count_calls(monkeypatch, nlsbump.analysis, "grad_potential")
    interps = count_calls(monkeypatch, nlsbump.analysis, "field_values_on")
    both = pohozaev_terms(spec, u0, centers, 0.6)
    assert len(grads) == 1
    assert len(interps) == len(centers)
    assert both == alone


def test_flux_ball_validation(well_case):
    spec, _, u, _ = well_case
    with pytest.raises(GeometryError, match="k points of grid dim"):
        pohozaev_terms(spec, u, BALL_CENTER, 0.8)
    with pytest.raises(GeometryError):
        pohozaev_terms(spec, u, [np.array([2.0, 0.0])], 1.0)
    with pytest.raises(GeometryError):
        pohozaev_terms(spec, u, [BALL_CENTER], -0.5)


# --- rate fitting ---

def test_rate_fit_is_exact_on_pure_power_laws():
    fit = fit_rate([(e, 0.7 * e ** 1.5) for e in (0.4, 0.3, 0.2, 0.1)])
    assert abs(fit.slope - 1.5) <= 1e-12
    assert abs(fit.intercept - np.log(0.7)) <= 1e-12
    assert fit.max_deviation <= 1e-13


def test_rate_fit_tolerates_mild_prefactor_drift():
    samples = [(e, 0.7 * e ** 2 * (1.0 + 0.1 * e))
               for e in (0.4, 0.3, 0.2, 0.15, 0.1)]
    fit = fit_rate(samples)
    assert abs(fit.slope - 2.0) <= 0.05


def test_rate_fit_input_validation():
    with pytest.raises(DomainError, match="at least 3"):
        fit_rate([(0.4, 1.0), (0.2, 0.5)])
    with pytest.raises(DomainError, match="distinct"):
        fit_rate([(0.4, 1.0), (0.4, 0.9), (0.2, 0.5)])
    with pytest.raises(DomainError, match="below-floor"):
        fit_rate([(0.4, 1.0), (0.3, 0.0), (0.2, 0.5)])
    with pytest.raises(DomainError, match="below-floor"):
        fit_rate([(0.4, 1.0), (0.3, -0.1), (0.2, 0.5)])


# --- interaction integrals ---

def sampled_overlap(spec, profile_a, center_a, profile_b, center_b):
    """Box integral of two sampled bumps, as the CLI forms its overlaps."""
    bump_a = sample_bump(spec, profile_a, np.asarray(center_a))[0]
    bump_b = sample_bump(spec, profile_b, np.asarray(center_b))[0]
    return box_integral(spec.grid, bump_a * bump_b)


def overlap_at(eps, get_profile):
    h = eps / 6.0
    counts = (2 * int(round(4.25 / h)) + 1, 2 * int(round(3.25 / h)) + 1)
    spec = double_well_problem(eps=eps, counts=counts)
    return sampled_overlap(spec, get_profile(1.0, 4.0, 2), CENTERS[0],
                           get_profile(1.21, 4.0, 2), CENTERS[1])


def test_overlap_at_one_center_matches_radial_oracle(get_profile):
    spec = double_well_problem()
    u1 = get_profile(1.0, 4.0, 2)
    u2 = get_profile(1.21, 4.0, 2)
    val = sampled_overlap(spec, u1, [0.0, 0.0], u2, [0.0, 0.0])
    oracle = spec.eps ** 2 * radial_integral(
        u1, lambda v: v * eval_profile(u2, u1.r_nodes)[0])
    # measured: 1.5e-8 relative
    assert abs(val - oracle) <= 1e-6 * oracle


def test_overlap_decays_exponentially_in_inverse_eps(get_profile):
    # separated bumps interact through their tails; the volume-normalized
    # overlap should fall like exp(-sqrt(v_min) * L / eps) for wells
    # L apart, the shallower well setting the rate
    eps_list = (0.4, 0.3, 0.25, 0.2)
    vals = [overlap_at(e, get_profile) for e in eps_list]
    inv = np.array([1.0 / e for e in eps_list])
    lognorm = np.log([v / e ** 2 for v, e in zip(vals, eps_list)])
    slope = np.polyfit(inv, lognorm, 1)[0]
    expected = -np.sqrt(1.0) * 2.0
    # measured: -1.94
    assert slope < 0.0
    assert abs(slope - expected) <= 0.2 * abs(expected)


def test_overlap_falls_below_high_powers_of_eps(get_profile):
    val_02 = overlap_at(0.2, get_profile)
    for gamma in range(1, 6):
        assert val_02 < 0.2 ** gamma
    val_015 = overlap_at(0.15, get_profile)
    for gamma in range(1, 7):
        assert val_015 < 0.15 ** gamma


@pytest.mark.xfail(
    strict=True,
    reason="measured 1.12e-4 against eps^6 = 6.4e-5: at eps exactly 0.2 "
    "the benchmark wells' overlap still carries too large a constant for "
    "the sixth power; it passes from eps = 0.15 down")
def test_overlap_below_sixth_power_at_eps_one_fifth(get_profile):
    assert overlap_at(0.2, get_profile) < 0.2 ** 6


# --- coercivity ---

def test_hessian_spectrum_matches_the_radial_pencil(get_profile,
                                                    pencil_oracle):
    spec = const_problem(101)
    prof = get_profile(1.0, 4.0, 2)
    u0 = build_ansatz(spec, (BumpSpec(prof, np.zeros(2)),))
    u, rep = newton_solve(spec, u0)
    assert rep.converged
    dec = decompose(spec, u, np.zeros((1, 2)), profiles=(prof,))
    co = coercivity_estimate(spec, dec)

    l0 = pencil_oracle(1.0, 4.0, 2, 0)
    l1 = pencil_oracle(1.0, 4.0, 2, 1)
    l2 = pencil_oracle(1.0, 4.0, 2, 2)
    # the oracle itself: one unstable direction, a translation kernel,
    # nothing low in the higher sectors
    assert int(np.sum(l0 < 0.0)) == 1
    assert abs(l1[0]) <= 1e-3
    assert l2[0] > 0.3

    assert co.unprojected_min < 0.0
    # measured: -2.0117 on the grid vs -2.00008 from the oracle
    assert abs(co.unprojected_min - l0[0]) <= 0.03
    # next-lowest grid mode is the discrete translation pair
    assert abs(co.unprojected_second - l1[0]) <= 0.03
    assert np.abs(co.translation_quotients).max() <= 0.05
    assert abs(co.translation_quotients[0]
               - co.translation_quotients[1]) <= 1e-10

    # projecting out bumps and translations must land on the pencil's
    # constrained minimum; measured rho 0.3935 vs oracle 0.4100
    constrained = min(l0[1], l1[1], l2[0])
    assert co.rho > 0.0
    assert abs(co.rho - constrained) <= 0.05


def test_projected_coercivity_positive_at_a_flat_well(well_case):
    spec, _, _, dec = well_case
    co = coercivity_estimate(spec, dec)
    # measured: rho 0.4154, one negative unprojected direction
    assert co.unprojected_min < 0.0
    assert 0.3 <= co.rho <= 0.5
    assert np.abs(co.translation_quotients).max() <= 0.05
    # preconditioned by the DST-I inverse, and the projected solve by its
    # Woodbury update for the penalty, neither eigensolve needs many steps
    # on this 159 x 159 interior; measured 13 and 11
    unprojected, projected = co.lobpcg_iterations
    assert 1 <= unprojected <= 20
    assert 1 <= projected <= 20


@pytest.fixture(scope="module")
def two_well_decomposition(two_bump_case):
    spec, profs, _, u0 = two_bump_case
    u, rep = newton_solve(spec, u0)
    assert rep.converged
    return spec, decompose(spec, u, CENTERS, profs)


def seeded_coercivity(spec, dec, monkeypatch):
    """coercivity_estimate with each LOBPCG start replaced by a seeded
    normal block of the same shape: the reference starts."""
    plain = nlsbump.analysis._smallest_eigs

    def seeded(a_op, m_op, precond, x0):
        x0 = np.random.default_rng(12345).standard_normal(x0.shape)
        return plain(a_op, m_op, precond, x0)

    with monkeypatch.context() as patched:
        patched.setattr(nlsbump.analysis, "_smallest_eigs", seeded)
        return coercivity_estimate(spec, dec)


def assert_structured_starts_pay(spec, dec, monkeypatch, bound):
    co = coercivity_estimate(spec, dec)
    ref = seeded_coercivity(spec, dec, monkeypatch)
    for name in ("rho", "unprojected_min", "unprojected_second"):
        got, want = getattr(co, name), getattr(ref, name)
        assert abs(got - want) <= 1e-12 * abs(want)
    assert all(1 <= n <= b for n, b in zip(co.lobpcg_iterations, bound))
    assert sum(co.lobpcg_iterations) < sum(ref.lobpcg_iterations)
    return co


def test_bump_and_scaling_starts_cut_lobpcg_work_at_a_flat_well(
        well_case, monkeypatch):
    # measured: 13 and 11 iterations against 14 and 23 from seeded
    # normal blocks, values 5.4e-15 apart (relative)
    spec, _, _, dec = well_case
    assert_structured_starts_pay(spec, dec, monkeypatch, (14, 12))


def test_bump_and_scaling_starts_cut_lobpcg_work_on_two_wells(
        two_well_decomposition, monkeypatch):
    # measured: 7 and 29 iterations against 12 and 38 from seeded normal
    # blocks, values 7.5e-15 apart (relative)
    spec, dec = two_well_decomposition
    co = assert_structured_starts_pay(spec, dec, monkeypatch, (8, 32))
    # two bumps fill both unprojected columns, so the seed is unused
    other = coercivity_estimate(spec, dec, seed=777)
    assert (other.rho, other.unprojected_min, other.unprojected_second,
            other.lobpcg_iterations) == (co.rho, co.unprojected_min,
                                         co.unprojected_second,
                                         co.lobpcg_iterations)


def hand_decomposition(spec, profiles, centers):
    """Unit bumps at the given centers, their basis from the sampler."""
    k = len(profiles)
    centers = np.asarray(centers, dtype=float)
    bumps, translations, _ = zip(*(sample_bump(spec, prof, c)
                                   for prof, c in zip(profiles, centers)))
    return BumpDecomposition(
        centers=centers, amplitudes=np.zeros(k), remainder_w=None,
        remainder_v=None, w_norm=0.0, v_norm=0.0,
        projection_residuals=np.zeros((spec.grid.dim + 1) * k),
        bumps=bumps, translations=translations)


def smallest_one_dimensional_problem():
    # h = eps and 8 nodes, the fewest make_grid accepts: 6 interior
    # unknowns, fewer than LOBPCG iterates on for a block of 2
    well = WellSpec(center=np.zeros(1), depth=4.0, coeff=1.0)
    pot = make_multiwell([well], exponent=2.0, patch_radius=0.05)
    grid = make_grid(lo=[-1.4], hi=[1.4], counts=[8])
    return make_problem(eps=0.4, p=4.0, potential=pot, grid=grid)


@pytest.mark.parametrize("case", ["well-2d", "smallest-1d"])
def test_coercivity_matches_dense_pencils(case, get_profile):
    if case == "well-2d":
        spec = single_well_problem(n=21)  # 19 x 19 interior unknowns
        prof = get_profile(1.0, 4.0, 2)
    else:
        spec = smallest_one_dimensional_problem()
        prof = get_profile(4.0, 4.0, 1)
    center = np.zeros(spec.grid.dim)
    co = coercivity_estimate(spec,
                             hand_decomposition(spec, (prof,), [center]))

    # the same pencils, assembled densely from the shared stencil
    inner = tuple(slice(1, -1) for _ in spec.grid.counts)
    v_int = spec.potential_values[inner]
    bump, trans, _ = sample_bump(spec, prof, center)
    weight = (spec.p - 1.0) * bump ** (spec.p - 2.0)
    eye = np.eye(v_int.size)
    e2 = spec.eps ** 2
    h_mat = interior_operator(v_int - weight[inner], spec.grid.spacing,
                              e2)(eye)
    m_mat = interior_operator(v_int, spec.grid.spacing, e2)(eye)
    unprojected = scipy.linalg.eigh(h_mat, m_mat, eigvals_only=True)
    cons = np.stack([bump[inner].ravel()] + [t[inner].ravel()
                                             for t in trans], axis=1)
    my = m_mat @ cons
    lift = 10.0 * (1.0 + abs(unprojected[0]))
    pen = h_mat + lift * my @ np.linalg.solve(cons.T @ my, my.T)
    projected = scipy.linalg.eigh(pen, m_mat, eigvals_only=True)

    def rel(a, b):
        return abs(a - b) / abs(b)

    # measured: at most 5.9e-14
    assert rel(co.unprojected_min, unprojected[0]) <= 1e-9
    assert rel(co.unprojected_second, unprojected[1]) <= 1e-9
    assert rel(co.rho, projected[0]) <= 1e-9
    if case == "smallest-1d":
        # LOBPCG solves the 2-vector problem densely (no iterations)
        assert co.lobpcg_iterations[0] == 0


def test_lobpcg_iteration_cap_is_a_spectral_error(well_case, monkeypatch):
    spec, _, _, dec = well_case
    monkeypatch.setattr(nlsbump.analysis, "_LOBPCG_MAX_ITER", 1)
    with pytest.raises(SpectralError, match="LOBPCG did not converge"):
        coercivity_estimate(spec, dec)


@pytest.mark.parametrize("diag,lam,vec,accepted", [
    # an exact pair
    ([1e-3, 1.0, 2.0], 1e-3, [1.0, 0.0, 0.0], True),
    # a finite eigenvalue with a NaN eigenvector: every comparison with
    # its NaN residual is false, so a ">" test lets it through
    ([1e-3, 1.0, 2.0], 0.5, [np.nan] * 3, False),
    # residual 5e-9: within the absolute 1e-8, not within 1e-6 of the
    # scale |A x| + |lam| |M x| = 2e-3
    ([1e-3, 1.0, 2.0], 1e-3, [1.0, 5e-9, 0.0], False),
    # residual 1e-7: within 1e-6 of the scale 2e3, not within 1e-8
    ([1e3, 2e3, 3e3], 1e3, [1.0, 1e-10, 0.0], False),
], ids=["exact", "nan-vector", "small-eigenvalue", "large-eigenvalue"])
def test_lobpcg_pairs_must_meet_both_residual_bounds(diag, lam, vec,
                                                     accepted, monkeypatch):
    diag, vec = np.array(diag), np.array(vec)
    vec /= np.linalg.norm(vec)
    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg",
                        lambda *args, **kwargs: (np.array([lam]),
                                                 vec[:, None]))
    smallest = nlsbump.analysis._smallest_eigs
    args = (lambda x: diag * x, lambda x: x, lambda x: x, vec[:, None])
    if accepted:
        assert smallest(*args)[0][0] == lam
    else:
        with pytest.raises(SpectralError, match="LOBPCG did not converge"):
            smallest(*args)


# --- uniqueness probe ---

def test_identical_initializations_reproduce_bitwise(well_case, get_profile,
                                                     monkeypatch):
    # With no amplitude perturbation both runs start from the ansatz.
    monkeypatch.setattr(nlsbump.analysis, "_PROBE_AMP", 0.0)
    spec = well_case[0]
    ansatz = (BumpSpec(get_profile(1.0, 4.0, 2), np.zeros(2)),)
    rep = uniqueness_probe(spec, ansatz, "amplitude")
    assert rep.sup_diff == 0.0
    assert rep.xi_field is None


def test_probe_starts_are_the_named_pair(well_case, get_profile,
                                         monkeypatch):
    # amplitude: 0.9 and 1.1 times the ansatz; shift: every bump moved by
    # +-0.3 eps along axis 0 (here from the origin) before the reduced
    # solve.  Newton is stubbed out: only the starts are under test.
    spec = well_case[0]
    ansatz = (BumpSpec(get_profile(1.0, 4.0, 2), np.zeros(2)),)
    ansatz_calls = count_calls(monkeypatch, nlsbump.analysis, "build_ansatz")
    reduced_calls = count_calls(monkeypatch, nlsbump.analysis,
                                "_reduced_centers")

    def accept_start(spec, u0):
        return u0, SolveReport(converged=True, iterations=0,
                               residual_history=[], final_residual=0.0,
                               positivity=True, trivial=False)

    monkeypatch.setattr(nlsbump.analysis, "newton_solve", accept_start)
    uniqueness_probe(spec, ansatz, "amplitude")
    assert [(c[2], c[3]) for c in ansatz_calls] == [(0.9, None), (1.1, None)]
    assert reduced_calls == []
    uniqueness_probe(spec, ansatz, "shift")
    assert [c[2] for c in ansatz_calls[2:]] == [1.0, 1.0]
    step = np.array([[0.3 * spec.eps, 0.0]])
    assert len(reduced_calls) == 2
    assert np.array_equal(reduced_calls[0][2], step)
    assert np.array_equal(reduced_calls[1][2], -step)


def test_probe_rejects_an_unknown_pair(well_case, get_profile):
    spec = well_case[0]
    ansatz = (BumpSpec(get_profile(1.0, 4.0, 2), np.zeros(2)),)
    with pytest.raises(DomainError, match="unknown probe pair 'scale'"):
        uniqueness_probe(spec, ansatz, "scale")


def test_amplitude_perturbations_reach_one_solution(get_profile):
    spec = single_well_problem(n=101)
    prof = get_profile(1.0, 4.0, 2)
    ansatz = (BumpSpec(prof, np.zeros(2)),)
    u, _ = newton_solve(spec, build_ansatz(spec, ansatz))
    rep = uniqueness_probe(spec, ansatz, "amplitude")
    # measured: 9.8e-13 relative
    assert rep.sup_diff <= 1e-8 * np.abs(u).max()


def test_center_perturbations_reach_one_solution(get_profile, monkeypatch):
    spec = double_well_problem(counts=(205, 157))
    ansatz = (
        BumpSpec(get_profile(1.0, 4.0, 2), CENTERS[0]),
        BumpSpec(get_profile(1.21, 4.0, 2), CENTERS[1]))
    u, _ = newton_solve(spec, build_ansatz(spec, ansatz))
    samples = count_calls(monkeypatch, nlsbump.solver, "sample_bump")
    rep = uniqueness_probe(spec, ansatz, "shift")
    # measured: 9.1e-14 relative
    assert rep.sup_diff <= 1e-8 * np.abs(u).max()
    # each run samples every bump once, at the root of its reduced solve
    assert len(samples) == 2 * len(ansatz)


def test_probe_normalizes_the_difference_field(get_profile, monkeypatch):
    # loose solver tolerance leaves the two runs visibly apart, which
    # must produce the normalized difference field
    monkeypatch.setattr(nlsbump.solver, "_TOL_RESIDUAL", 1e-4)
    spec = single_well_problem(n=101)
    ansatz = (BumpSpec(get_profile(1.0, 4.0, 2), np.zeros(2)),)
    rep = uniqueness_probe(spec, ansatz, "amplitude")
    assert rep.sup_diff > 0.0
    assert np.abs(rep.xi_field).max() == 1.0


def test_probe_rel_diff_is_relative_to_the_first_solution(get_profile,
                                                          monkeypatch):
    solutions = []

    def recording_solve(*args, **kwargs):
        u, report = newton_solve(*args, **kwargs)
        solutions.append(u)
        return u, report

    monkeypatch.setattr(nlsbump.analysis, "newton_solve", recording_solve)
    monkeypatch.setattr(nlsbump.solver, "_TOL_RESIDUAL", 1e-4)
    spec = single_well_problem(n=101)
    ansatz = (BumpSpec(get_profile(1.0, 4.0, 2), np.zeros(2)),)
    rep = uniqueness_probe(spec, ansatz, "amplitude")
    assert len(solutions) == 2
    assert rep.sup_diff > 0.0
    assert rep.rel_diff == rep.sup_diff / np.abs(solutions[0]).max()


def test_probe_rejects_a_profile_solved_at_another_depth(get_profile):
    spec = single_well_problem(n=101)
    ansatz = (BumpSpec(get_profile(1.21, 4.0, 2), np.zeros(2)),)
    with pytest.raises(ConsistencyError, match="v_a=1.21"):
        uniqueness_probe(spec, ansatz, "amplitude")


def test_probe_rejects_a_center_of_the_wrong_dimension(well_case,
                                                       get_profile):
    spec = well_case[0]
    ansatz = (BumpSpec(get_profile(1.0, 4.0, 2), np.zeros(3)),)
    with pytest.raises(GeometryError, match="wrong dimension"):
        uniqueness_probe(spec, ansatz, "shift")


@pytest.mark.parametrize("pair", ["amplitude", "shift"])
def test_every_bump_is_checked_before_either_pair_starts(get_profile,
                                                         monkeypatch, pair):
    # The second of two bumps has a 3-D center on the 2-D grid: both pairs
    # name it before any reduced solve or Newton run.
    spec = double_well_problem(counts=(86, 66))
    ansatz = (
        BumpSpec(get_profile(1.0, 4.0, 2), CENTERS[0]),
        BumpSpec(get_profile(1.21, 4.0, 2), np.array([1.0, 0.0, 0.0])))
    reduced = count_calls(monkeypatch, nlsbump.analysis, "_reduced_centers")
    with pytest.raises(GeometryError, match="bump 1 center has wrong dim"):
        uniqueness_probe(spec, ansatz, pair)
    assert reduced == []


# --- the shift pair's reduced solve (centre equations before Newton) ---

# The 1-D two-well sweep of the benchmark: production grid h = eps/6.
TWO_WELL_1D = """
problem.dim = 1
problem.p = 4
problem.exponent = 2
problem.patch_radius = 0.4
problem.well.0.center = -1
problem.well.0.depth = 1
problem.well.1.center = 1
problem.well.1.depth = 1.21
grid.lo = -4.25
grid.hi = 4.25
grid.spacing_divisor = 6
schedule.eps = 0.4 0.1
"""


def two_well_1d(get_profile, eps):
    cfg = parse_config(TWO_WELL_1D)
    ansatz = tuple(
        BumpSpec(get_profile(w.depth, 4.0, 1), np.array(w.center))
        for w in cfg.potential.wells)
    return problem_at(cfg, eps), ansatz


def pencil_eigenvalues(spec, u):
    """Eigenvalues of the dense 1-D pencil (J(u), M) on the interior."""
    inner = (slice(1, -1),)
    eye = np.eye(spec.grid.counts[0] - 2)
    j_mat, m_mat = (interior_operator(diag, spec.grid.spacing,
                                      spec.eps ** 2)(eye)
                    for diag in (jacobian_diagonal(spec, u[inner]),
                                 spec.potential_values[inner]))
    return scipy.linalg.eigh(j_mat, m_mat, eigvals_only=True)


@pytest.mark.parametrize("coeffs, index, drift", [
    ((1.0, 1.0), 2, (1.0, -1.0)),
    ((1.0, -1.0), 3, (1.0, 1.0)),
    ((-1.0, -1.0), 4, (-1.0, 1.0)),
], ids=["min-min", "min-max", "max-max"])
def test_solutions_at_maxima_of_v_follow_the_morse_index_rule(
        get_profile, coeffs, index, drift):
    # The 1-D benchmark geometry with background 1.21, so a coeff -1 well
    # is a maximum of V.  The Morse index (negative eigenvalues of the
    # dense pencil (J(u), M) at Newton's solution) is k plus the number of
    # maxima at every eps; each decomposed amplitude has the sign of its
    # well's coeff.  The centres move toward each other at two minima,
    # apart at two maxima, and both in +x for a minimum at -1 and a
    # maximum at +1 (measured offset/eps at eps 0.2: +2.9e-3, +3.0e-3);
    # at eps 0.1 the offsets are ~1e-7 eps, so their signs are not pinned.
    cfg = parse_config(TWO_WELL_1D + "problem.background = 1.21\n" + "".join(
        f"problem.well.{j}.coeff = {c}\n" for j, c in enumerate(coeffs)))
    wells = cfg.potential.wells
    centers = np.array([w.center for w in wells])
    profs = [get_profile(w.depth, 4.0, 1) for w in wells]
    ansatz = tuple(BumpSpec(prof, c) for prof, c in zip(profs, centers))
    for eps in (0.3, 0.2, 0.15, 0.1):
        spec = problem_at(cfg, eps)
        u, rep = newton_solve(spec, build_ansatz(spec, ansatz))
        assert rep.converged and rep.positivity
        lam = pencil_eigenvalues(spec, u)
        assert np.sum(lam < 0.0) == index
        dec = decompose(spec, u, centers, profs)
        assert np.array_equal(np.sign(dec.amplitudes), np.sign(coeffs))
        if eps >= 0.15:
            assert np.array_equal(np.sign(dec.centers - centers)[:, 0],
                                  drift)


@pytest.mark.parametrize("exponent", [2, 4])
def test_smallest_pencil_eigenvalue_falls_like_eps_to_the_exponent(
        get_profile, exponent):
    # The two eigenvalues of (J(u), M) nearest zero, one per well, are the
    # translation modes.  With V - V(x_j) ~ |x - x_j|^m at both minima they
    # fall like eps^m, so a flatter well is nearer to degenerate.  Measured
    # smallest |lambda| at eps 0.1, 0.07, 0.05: m = 2: 8.02e-3, 4.03e-3,
    # 2.08e-3 (slopes 1.93, 1.97); m = 4: 3.37e-4, 8.17e-5, 2.13e-5
    # (slopes 3.97, 4.00).  The Morse index stays k = 2.
    cfg = parse_config(TWO_WELL_1D.replace(
        "problem.exponent = 2", f"problem.exponent = {exponent}"))
    ansatz = tuple(BumpSpec(get_profile(w.depth, 4.0, 1), np.array(w.center))
                   for w in cfg.potential.wells)
    schedule = (0.1, 0.07, 0.05)
    smallest = []
    for eps in schedule:
        spec = problem_at(cfg, eps)
        u, rep = newton_solve(spec, build_ansatz(spec, ansatz))
        assert rep.converged
        lam = pencil_eigenvalues(spec, u)
        assert np.sum(lam < 0.0) == 2
        smallest.append(np.abs(lam).min())
    slopes = np.diff(np.log(smallest)) / np.diff(np.log(schedule))
    assert np.all(np.abs(slopes - exponent) <= 0.1)


@pytest.mark.parametrize("dim", [1, 2])
def test_reduced_jacobian_matches_differenced_centre_equations(get_profile,
                                                               dim):
    # dg/dxi from -<J T, T> - <F, d d U> against central differences of g
    # at a start shifted off both wells; measured 5.6e-9 (1-D, eps 0.1)
    # and 1.1e-8 (2-D, 86 x 66 nodes) relative.
    if dim == 1:
        spec, ansatz = two_well_1d(get_profile, 0.1)
        profs = [b.profile for b in ansatz]
    else:
        spec = double_well_problem(counts=(86, 66))
        profs = [get_profile(1.0, 4.0, 2), get_profile(1.21, 4.0, 2)]
    xi = CENTERS[:, :dim] + 0.3 * spec.eps * np.array([1.0, 0.5])[:dim]
    jac, g = _reduced_system(spec, profs, xi)
    assert np.abs(g).max() > 1e-3  # the shifted start is not a root
    h = 1e-4 * spec.eps
    want = np.empty_like(jac)
    for col in range(xi.size):
        step = h * np.eye(xi.size)[col].reshape(xi.shape)
        want[:, col] = (_reduced_system(spec, profs, xi + step)[1]
                        - _reduced_system(spec, profs, xi - step)[1]) / (2 * h)
    assert np.abs(jac - want).max() <= 1e-6 * np.abs(want).max()


def test_reduced_start_cuts_newton_steps_on_the_benchmark_geometry(
        get_profile):
    # 1-D eps 0.1: Newton from the +-0.3 eps shifted starts took 15 steps
    # each; from the reduced solve's roots it takes 3.
    spec, ansatz = two_well_1d(get_profile, 0.1)
    rep = uniqueness_probe(spec, ansatz, "shift")
    assert rep.rel_diff <= 1e-8
    assert [r.reduced_outcome for r in rep.runs] == ["converged"] * 2
    assert all(r.newton_iterations <= 5 for r in rep.runs)


def test_reduced_solve_leaving_its_patch_keeps_the_shifted_start(
        get_profile, monkeypatch):
    # 1-D eps 0.4 is past the fold of the two-bump branch: the reduced
    # solve leaves the patch, and Newton runs from the shifted bumps
    # themselves and fails as it did before there was a reduced solve.
    spec, ansatz = two_well_1d(get_profile, 0.4)
    starts = []

    def recording_solve(spec, u0):
        starts.append(u0)
        return newton_solve(spec, u0)

    monkeypatch.setattr(nlsbump.analysis, "newton_solve", recording_solve)
    with pytest.raises(ConvergenceError) as err:
        uniqueness_probe(spec, ansatz, "shift")
    assert str(err.value) == ("no residual decrease along any damped or "
                              "regularized step; iterate is at a stationary "
                              "point of |F|")
    (run,) = err.value.runs
    assert run.reduced_outcome == "left its patch"
    assert run.reduced_iterations >= 1
    shifted = build_ansatz(spec, ansatz, 1.0,
                           bump_centers(spec, ansatz) + 0.3 * spec.eps)
    assert np.array_equal(starts[0], shifted)
