"""Tests for grids, fields, operators, inner products, and quadrature."""

import itertools

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.interpolate import RegularGridInterpolator

from nlsbump.errors import DomainError, GeometryError
from nlsbump.grid import (
    ball_coverage,
    box_integral,
    eps_gram,
    eps_inner,
    eps_norm,
    field_values_on,
    make_grid,
    make_problem,
    make_sphere_quadrature,
    power_map,
    same_grid,
)
from nlsbump.potential import WellSpec, make_multiwell
from nlsbump.radial import eval_profile
from nlsbump.solver import interior_operator
from support import constant_potential, radial_integral


def node_points(grid):
    """The grid nodes as a (node_count, dim) row array, row-major."""
    return np.stack(np.meshgrid(*grid.axes, indexing="ij"),
                    axis=-1).reshape(-1, grid.dim)


def ball_volume_integral(spec, f, center, radius):
    """Integral of f over the ball, weighted by the ball's coverage."""
    cov = ball_coverage(spec.grid, center, radius)
    return float(np.sum(f * cov) * spec.grid.cell_volume)


def unit_problem(grid, p=4.0, eps=1.0):
    return make_problem(eps, p, constant_potential(1.0, grid.dim), grid)


def interior(values):
    """The interior nodes of a grid array."""
    return values[tuple(slice(1, -1) for _ in values.shape)]


def linear_operator(spec):
    """-eps^2 lap_h + V on the flattened interior unknowns: Newton's
    stencil."""
    return interior_operator(interior(spec.potential_values),
                             spec.grid.spacing, spec.eps ** 2)


def pde_residual(spec, u):
    """Newton's residual at the interior nodes of a sampled field."""
    u_int = interior(u).ravel()
    return linear_operator(spec)(u_int) - power_map(spec.p)(u_int)


def boundary_zero(rng, grid):
    vals = rng.normal(size=grid.counts)
    for a in range(grid.dim):
        first = tuple(0 if b == a else slice(None) for b in range(grid.dim))
        last = tuple(-1 if b == a else slice(None) for b in range(grid.dim))
        vals[first] = 0.0
        vals[last] = 0.0
    return vals


def test_make_grid_and_field_validation():
    g = make_grid([-1.0, 0.0], [1.0, 2.0], [9, 11])
    assert g.spacing == (0.25, 0.2)
    assert g.counts == (9, 11)
    with pytest.raises(DomainError):
        make_grid([0.0], [1.0], [7])
    with pytest.raises(GeometryError):
        make_grid([0.0, 0.0], [1.0, 0.0], [9, 9])
    with pytest.raises(DomainError):
        make_grid([0.0] * 4, [1.0] * 4, [9] * 4)
    with pytest.raises(GeometryError):
        make_grid([0.0, 0.0], [1.0, 1.0], [9, 9, 9])


def test_make_problem_validation():
    g = make_grid([-2.0, -2.0], [2.0, 2.0], [33, 33])
    pot = constant_potential(1.0, 2)
    with pytest.raises(DomainError):
        make_problem(-0.1, 4.0, pot, g)
    with pytest.raises(DomainError):
        make_problem(0.3, 2.0, pot, g)
    g3 = make_grid([-2.0] * 3, [2.0] * 3, [9] * 3)
    with pytest.raises(DomainError):
        make_problem(0.3, 6.0, constant_potential(1.0, 3), g3)
    with pytest.raises(GeometryError):
        make_problem(0.3, 4.0, constant_potential(1.0, 3), g)
    # A well patch whose margin does not fit in the box is rejected.
    wells = [WellSpec(np.array([-1.5, 0.0]), 1.0, 1.0)]
    pot2 = make_multiwell(wells, 2.0, 0.4)
    with pytest.raises(GeometryError):
        make_problem(0.3, 4.0, pot2, g)
    centered = make_multiwell([WellSpec(np.zeros(2), 1.0, 1.0)], 2.0, 0.4)
    make_problem(0.2, 4.0, centered, g)


def test_zero_field_maps_to_zero():
    g = make_grid([-1.0, -1.0], [1.0, 1.0], [12, 12])
    spec = unit_problem(g)
    z = np.zeros(g.counts)
    assert np.all(linear_operator(spec)(interior(z).ravel()) == 0.0)
    assert np.all(pde_residual(spec, z) == 0.0)


def test_eigen_relation_interior():
    # sin(pi x / L) with exact boundary zeros: the stencil reproduces the
    # continuum eigenvalue at interior nodes to second order.
    L = 3.0
    lam = np.pi ** 2 / L ** 2 + 1.0
    errs = {}
    for n in (101, 201):
        g = make_grid([0.0], [L], [n])
        spec = unit_problem(g)
        x = g.axes[0]
        u = np.sin(np.pi * x / L)
        out = linear_operator(spec)(interior(u).ravel())
        errs[n] = np.abs(out - lam * u[1:-1]).max()
    assert errs[101] < 1e-4
    assert 3.4 < errs[101] / errs[201] < 4.6


def test_sampled_soliton_residual_second_order():
    errs = {}
    for n in (2001, 4001):
        g = make_grid([-25.0], [25.0], [n])
        spec = unit_problem(g)
        u = np.sqrt(2.0) / np.cosh(g.axes[0])
        errs[n] = np.abs(pde_residual(spec, u)).max()
    assert errs[2001] < 5e-4
    assert 3.4 < errs[2001] / errs[4001] < 4.6


@pytest.mark.parametrize("p", [3.0, 4.0, 5.5])
def test_power_map_scalar_and_array_paths_agree_bitwise(p):
    # The shooting loop maps Python floats, the grid residuals arrays.  On
    # arrays, the p = 3 and p = 4 shortcuts equal |u|**(p-2) * u exactly.
    f = power_map(p)
    x = 3.0 * np.random.default_rng(11).standard_normal(20000)
    x[:3] = (0.0, -0.0, 1.0)
    scalars = [f(float(v)) for v in x]
    assert all(type(s) is float for s in scalars)
    arr = f(x)
    assert np.array_equal(arr, np.abs(x) ** (p - 2.0) * x)
    if p in (3.0, 4.0):
        assert np.array_equal(arr, np.array(scalars))
    else:
        # numpy's pow and the C library's differ in the last bit on some
        # inputs (measured: 949 of these 20000 at p = 5.5, at most 3.7e-16
        # relative)
        np.testing.assert_allclose(arr, scalars,
                                   rtol=2.0 * np.finfo(float).eps, atol=0.0)


def test_inner_product_adjoint_to_operator():
    # The identity the coercivity estimate relies on: for boundary-zero
    # fields, eps_inner(u, v) = cell * u_int . (M v_int) with M the metric
    # interior_operator(V_int, spacing, eps^2).
    g = make_grid([-1.0] * 3, [1.0] * 3, [12, 10, 11])
    spec = make_problem(0.7, 3.5, constant_potential(1.3, 3), g)
    rng = np.random.default_rng(0)
    u = boundary_zero(rng, g)
    v = boundary_zero(rng, g)
    metric = linear_operator(spec)
    u_int, v_int = interior(u).ravel(), interior(v).ravel()
    lhs = eps_inner(spec, u, v)
    rhs = float(u_int @ metric(v_int)) * g.cell_volume
    assert lhs == pytest.approx(rhs, rel=1e-13)
    sym_l = float(metric(u_int) @ v_int)
    sym_r = float(metric(v_int) @ u_int)
    assert sym_l == pytest.approx(sym_r, rel=1e-13)


def test_eps_inner_symmetry_and_bilinearity():
    g = make_grid([-1.0, -1.0], [1.0, 1.0], [9, 8])
    spec = make_problem(0.5, 3.0, constant_potential(2.0, 2), g)
    rng = np.random.default_rng(5)
    u, v, w = (rng.normal(size=g.counts) for _ in range(3))
    assert eps_inner(spec, u, v) == eps_inner(spec, v, u)
    a = 0.731
    lhs = eps_inner(spec, u, a * v + w)
    rhs = a * eps_inner(spec, u, v) + eps_inner(spec, u, w)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    l2_squared = box_integral(g, u ** 2)
    assert eps_inner(spec, u, u) >= 2.0 * l2_squared * (1 - 1e-12)


def pairwise_eps_inner(spec, u, v):
    """The energy pairing of one pair, term by term: forward differences
    on edges with trapezoid weights across the other axes, then V u v with
    trapezoid weights on every axis."""
    grid = spec.grid

    def trapezoid(shape, skip):
        w = np.ones(shape)
        for b in range(grid.dim):
            if b != skip:
                for end in (0, -1):
                    w[(slice(None),) * b + (end,)] *= 0.5
        return w

    total = 0.0
    for a, h in enumerate(grid.spacing):
        du, dv = np.diff(u, axis=a), np.diff(v, axis=a)
        total += spec.eps ** 2 / (h * h) * float(
            np.sum(du * dv * trapezoid(du.shape, a))) * grid.cell_volume
    w = trapezoid(u.shape, None)
    return total + float(np.sum(spec.potential_values * u * v * w)
                         ) * grid.cell_volume


@pytest.mark.parametrize("counts", [(9,), (11, 9), (9, 8, 10)])
def test_eps_gram_is_the_pairwise_loop_bit_for_bit(counts):
    dim = len(counts)
    well = WellSpec(center=np.zeros(dim), depth=1.0, coeff=1.0)
    pot = make_multiwell([well], exponent=2.0, patch_radius=0.2)
    g = make_grid([-1.0] * dim, [1.0, 1.2, 0.9][:dim], list(counts))
    spec = make_problem(0.1, 4.0, pot, g)
    rng = np.random.default_rng(len(counts))
    left = [rng.normal(size=g.counts) for _ in range(3)]
    right = left[1:] + [rng.normal(size=g.counts)]
    gram = eps_gram(spec, left, right)
    want = [[pairwise_eps_inner(spec, a, b) for b in right] for a in left]
    assert np.array_equal(gram, np.array(want))
    assert eps_inner(spec, left[0], right[2]) == want[0][2]


def test_eps_norm_of_sampled_bump_matches_radial_identity(get_profile):
    # For the constant-depth problem the energy norm squared of a sampled
    # bump equals eps^dim times the radial integral of U^p; the right side
    # comes from the 1-d radial quadrature, an independent oracle.
    prof = get_profile(1.0, 4.0, 2)
    eps = 0.3
    g = make_grid([-2.5, -2.5], [2.5, 2.5], [251, 251])
    spec = make_problem(eps, 4.0, constant_potential(1.0, 2), g)
    r = np.linalg.norm(node_points(g), axis=1) / eps
    u = eval_profile(prof, r)[0].reshape(g.counts)
    lhs = eps_norm(spec, u) ** 2
    rhs = eps ** 2 * radial_integral(prof, lambda t: t ** 4)
    assert lhs == pytest.approx(rhs, rel=1.5e-3)


def test_box_integral_of_one_is_volume():
    g = make_grid([-1.0, 2.0], [3.0, 5.0], [17, 13])
    assert box_integral(g, np.ones(g.counts)) == pytest.approx(12.0, rel=1e-14)


def test_ball_volume_worked_values():
    g = make_grid([-1.5] * 3, [1.5] * 3, [49] * 3)
    spec = unit_problem(g, eps=0.5)
    one = np.ones(g.counts)
    vol = ball_volume_integral(spec, one, [0.0, 0.0, 0.0], 1.0)
    assert vol == pytest.approx(4.0 * np.pi / 3.0, rel=0.01)
    odd = node_points(g)[:, 0].reshape(g.counts)
    assert abs(ball_volume_integral(spec, odd, [0.0] * 3, 1.0)) < 1e-12
    gauss = np.exp(-np.linalg.norm(node_points(g), axis=1) ** 2).reshape(
        g.counts)
    oracle = 4.0 * np.pi * quad(
        lambda rr: np.exp(-rr * rr) * rr * rr, 0.0, 1.0)[0]
    got = ball_volume_integral(spec, gauss, [0.0] * 3, 1.0)
    assert got == pytest.approx(oracle, rel=1e-3)


def test_ball_volume_convergence_order():
    c = np.array([0.2, -0.13])
    radius = 0.8
    oracle, _ = dblquad(
        lambda r, th: np.exp(-((c[0] + r * np.cos(th)) ** 2
                               + (c[1] + r * np.sin(th)) ** 2)) * r,
        0.0, 2.0 * np.pi, 0.0, radius, epsabs=1e-13, epsrel=1e-13)
    hs, errs = [], []
    for n in (41, 81, 161, 321):
        g = make_grid([-1.5, -1.5], [1.5, 1.5], [n, n])
        spec = unit_problem(g, eps=0.5)
        f = np.exp(-np.linalg.norm(node_points(g), axis=1) ** 2).reshape(
            g.counts)
        errs.append(abs(ball_volume_integral(spec, f, c, radius) - oracle))
        hs.append(g.spacing[0])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope > 1.5


def test_ball_volume_geometry_errors():
    g = make_grid([-1.0, -1.0], [1.0, 1.0], [33, 33])
    spec = unit_problem(g, eps=0.5)
    one = np.ones(g.counts)
    with pytest.raises(GeometryError):
        ball_volume_integral(spec, one, [0.5, 0.0], 0.8)
    with pytest.raises(GeometryError):
        ball_volume_integral(spec, one, [0.0, 0.0, 0.0], 0.5)
    with pytest.raises(GeometryError):
        ball_volume_integral(spec, one, [0.0, 0.0], -0.5)


@pytest.mark.parametrize("dim,area", [
    (1, 2.0),
    (2, 2.0 * np.pi * 0.7),
    (3, 4.0 * np.pi * 0.49),
])
def test_sphere_quadrature_invariants(dim, area):
    center = np.linspace(0.1, 0.3, dim)
    quad_ = make_sphere_quadrature(center, 0.7)
    assert quad_.weights.sum() == pytest.approx(area, rel=1e-10)
    assert np.all(quad_.weights > 0.0)
    norms = np.linalg.norm(quad_.normals, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-13)
    recon = (quad_.nodes - center) / 0.7
    assert np.allclose(recon, quad_.normals, atol=1e-13)
    for i in range(dim):
        flux = float(np.dot(quad_.weights, quad_.normals[:, i]))
        assert abs(flux) < 1e-12 * max(area, 1.0)


def test_sphere_surface_polynomial_exact():
    c3 = np.array([0.2, -0.1, 0.3])
    q3 = make_sphere_quadrature(c3, 0.7)
    got = float(np.dot(q3.weights, q3.nodes[:, 0] ** 2))
    exact = 4.0 * np.pi * 0.49 * (c3[0] ** 2 + 0.49 / 3.0)
    assert got == pytest.approx(exact, rel=1e-12)
    c2 = np.array([0.2, -0.1])
    q2 = make_sphere_quadrature(c2, 0.7)
    got2 = float(np.dot(q2.weights, q2.nodes[:, 0] ** 2))
    exact2 = 2.0 * np.pi * 0.7 * c2[0] ** 2 + np.pi * 0.7 ** 3
    assert got2 == pytest.approx(exact2, rel=1e-12)
    q1 = make_sphere_quadrature([0.5], 0.25)
    got1 = float(np.dot(q1.weights, q1.nodes[:, 0] * q1.normals[:, 0]))
    assert got1 == pytest.approx(0.5, abs=1e-15)


def test_sphere_integral_of_interpolated_field():
    g = make_grid([-1.5] * 3, [1.5] * 3, [97] * 3)
    f = (node_points(g)[:, 0] ** 2).reshape(g.counts)
    q = make_sphere_quadrature([0.2, -0.1, 0.3], 0.7)
    got = float(np.dot(q.weights, field_values_on(g, f, q.nodes)))
    exact = 4.0 * np.pi * 0.49 * (0.2 ** 2 + 0.49 / 3.0)
    assert got == pytest.approx(exact, rel=1e-3)
    grads = field_values_on(
        g, np.stack(np.gradient(f, *g.axes, edge_order=2)), q.nodes)
    assert np.allclose(grads[0], 2.0 * q.nodes[:, 0], atol=1e-10)
    assert np.allclose(grads[1:], 0.0, atol=1e-10)


@pytest.mark.parametrize("counts", [[37], [23, 19], [11, 9, 13]],
                         ids=["1d", "2d", "3d"])
def test_field_values_on_matches_regular_grid_interpolator(counts):
    rng = np.random.default_rng(len(counts))
    dim = len(counts)
    g = make_grid(rng.uniform(-2.0, -1.0, dim), rng.uniform(1.0, 3.0, dim),
                  counts)
    values = rng.standard_normal(g.counts)
    corners = np.array(list(itertools.product(*zip(g.lo, g.hi))))
    points = np.vstack([rng.uniform(g.lo, g.hi, (400, dim)), corners,
                        node_points(g)[::7]])
    reference = RegularGridInterpolator(g.axes, values, method="linear",
                                        bounds_error=True)(points)
    # measured: at most 5.1e-15
    assert np.abs(field_values_on(g, values, points)
                  - reference).max() <= 1e-13


def test_interpolation_outside_box_raises():
    g = make_grid([-1.0, -1.0], [1.0, 1.0], [17, 17])
    f = np.ones(g.counts)
    with pytest.raises(GeometryError):
        field_values_on(g, f, np.array([[1.5, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(GeometryError, match="not in the grid box"):
            field_values_on(g, f, np.array([[0.0, bad]]))


def test_grid_mismatch_rejected():
    # Fields carry no grid; a field file's grid is checked with same_grid.
    g1 = make_grid([-1.0], [1.0], [33])
    assert same_grid(g1, make_grid([-1.0], [1.0], [33]))
    assert not same_grid(g1, make_grid([-1.0], [1.0], [65]))
    assert not same_grid(g1, make_grid([-1.0], [1.5], [33]))
