"""Uniform tensor grids, sampled fields, and matrix-free operators.

The discrete pieces fit together so that the energy inner product and the
operator are exactly compatible: eps_inner uses forward differences on cell
edges, which makes it adjoint to the central second-difference stencil of
apply_linear under the plain node quadrature, up to roundoff, for fields
vanishing on the boundary ring.  Quadrature over balls uses a smooth
cell-coverage profile whose zeroth and first moments match the sharp
indicator, and sphere integrals use product rules that resolve smooth
surface data to spectral accuracy in angle.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import DomainError, GeometryError, GridMismatchError
from .potential import PotentialModel, eval_potential


@dataclass(eq=False)
class TensorGrid:
    dim: int
    counts: Tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    spacing: Tuple[float, ...]
    _axes: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False, compare=False)
    _points: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    def axes(self) -> Tuple[np.ndarray, ...]:
        if self._axes is None:
            self._axes = tuple(
                np.linspace(self.lo[a], self.hi[a], self.counts[a])
                for a in range(self.dim))
        return self._axes

    def points(self) -> np.ndarray:
        """All node coordinates, shape (node_count, dim), row-major order."""
        if self._points is None:
            mesh = np.meshgrid(*self.axes(), indexing="ij")
            self._points = np.stack(mesh, axis=-1).reshape(-1, self.dim)
        return self._points

    @property
    def node_count(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


def make_grid(lo, hi, counts) -> TensorGrid:
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    counts = tuple(int(n) for n in np.atleast_1d(counts))
    dim = lo.shape[0]
    if dim not in (1, 2, 3):
        raise DomainError(f"grid dimension must be 1, 2, or 3, got {dim}")
    if hi.shape != (dim,) or len(counts) != dim:
        raise GeometryError("lo, hi, and counts must share one dimension")
    if np.any(hi <= lo):
        raise GeometryError("need hi > lo on every axis")
    if any(n < 8 for n in counts):
        raise DomainError(f"need at least 8 nodes per axis, got {counts}")
    spacing = tuple((hi[a] - lo[a]) / (counts[a] - 1) for a in range(dim))
    return TensorGrid(dim=dim, counts=counts, lo=lo, hi=hi, spacing=spacing)


@dataclass(eq=False)
class ScalarField:
    grid: TensorGrid
    values: np.ndarray

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


def make_field(grid: TensorGrid, values) -> ScalarField:
    values = np.asarray(values, dtype=float)
    if values.shape == (grid.node_count,):
        values = values.reshape(grid.counts)
    if values.shape != tuple(grid.counts):
        raise GridMismatchError(
            f"field shape {values.shape} does not match grid {grid.counts}")
    if not np.all(np.isfinite(values)):
        raise DomainError("field values must be finite")
    return ScalarField(grid=grid, values=values)


def field_from_function(grid: TensorGrid,
                        fn: Callable[[np.ndarray], np.ndarray]) -> ScalarField:
    """Sample fn (taking points of shape (M, dim)) at every grid node."""
    vals = np.asarray(fn(grid.points()), dtype=float).reshape(grid.counts)
    return make_field(grid, vals)


@dataclass(eq=False)
class ProblemSpec:
    eps: float
    p: float
    potential: PotentialModel
    grid: TensorGrid
    _vgrid: Optional[np.ndarray] = field(default=None, repr=False,
                                         compare=False)

    def potential_values(self) -> np.ndarray:
        if self._vgrid is None:
            self._vgrid = eval_potential(
                self.potential, self.grid.points()).reshape(self.grid.counts)
        return self._vgrid

    @property
    def min_depth(self) -> float:
        if self.potential.wells:
            return min(w.depth for w in self.potential.wells)
        return self.potential.background


def make_problem(eps: float, p: float, potential: PotentialModel,
                 grid: TensorGrid) -> ProblemSpec:
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    if not p > 2.0:
        raise DomainError(f"need p > 2, got {p}")
    if grid.dim == 3 and p >= 6.0:
        raise DomainError(f"need p < 6 in dimension 3, got {p}")
    if grid.dim != potential.dim:
        raise GeometryError(
            f"grid is {grid.dim}-d but potential is {potential.dim}-d")
    spec = ProblemSpec(eps=float(eps), p=float(p), potential=potential,
                       grid=grid)
    margin = 5.0 * eps / math.sqrt(spec.min_depth)
    reach = 2.0 * potential.patch_radius + margin
    for k, w in enumerate(potential.wells):
        if np.any(w.center - reach < grid.lo) or \
                np.any(w.center + reach > grid.hi):
            raise GeometryError(
                f"well {k} needs its patch inside the box with margin "
                f"{margin:.4g}; enlarge the grid")
    return spec


def _check_same_grid(a: ScalarField, b) -> None:
    grid = b.grid if isinstance(b, ScalarField) else b
    if a.grid is not grid and (tuple(a.grid.counts) != tuple(grid.counts)
                               or np.any(a.grid.lo != grid.lo)
                               or np.any(a.grid.hi != grid.hi)):
        raise GridMismatchError("fields live on different grids")


def neg_weighted_laplacian(values: np.ndarray, spacing,
                           weight: float) -> np.ndarray:
    """-weight * (central second-difference Laplacian), zero outside box."""
    nd = values.ndim
    out = np.zeros_like(values)
    for a, h in enumerate(spacing):
        c = weight / (h * h)
        out += (2.0 * c) * values
        up = tuple(slice(1, None) if b == a else slice(None)
                   for b in range(nd))
        dn = tuple(slice(None, -1) if b == a else slice(None)
                   for b in range(nd))
        out[up] -= c * values[dn]
        out[dn] -= c * values[up]
    return out


def apply_linear(spec: ProblemSpec, u: ScalarField) -> ScalarField:
    """-eps^2 (discrete Laplacian) u + V u, homogeneous Dirichlet outside."""
    _check_same_grid(u, spec.grid)
    out = neg_weighted_laplacian(u.values, spec.grid.spacing,
                                 spec.eps ** 2)
    out += spec.potential_values() * u.values
    return ScalarField(grid=u.grid, values=out)


def power_map(p: float) -> Callable:
    """Return u -> |u|^(p-2) u, for a float or elementwise on an array.

    Safe for sign changes and non-integer p.  The builtin abs keeps a
    Python float a Python float, which matters in the radial shooting
    loop; on arrays it is np.abs.  On arrays the p = 4 and p = 3 forms are
    bitwise equal to the general one, by numpy's fast paths for x**2.0
    and x**1.0.
    """
    em = p - 2.0
    if em == 2.0:
        return lambda u: u * u * u
    if em == 1.0:
        return lambda u: abs(u) * u
    return lambda u: abs(u) ** em * u


def pde_residual(spec: ProblemSpec, u: ScalarField) -> ScalarField:
    out = apply_linear(spec, u)
    out.values -= power_map(spec.p)(u.values)
    return out


def _trap_vector(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _weight_array(counts, trap_axes) -> np.ndarray:
    w = np.ones([1] * len(counts))
    for a, n in enumerate(counts):
        vec = _trap_vector(n) if a in trap_axes else np.ones(n)
        shape = [1] * len(counts)
        shape[a] = n
        w = w * vec.reshape(shape)
    return w


def box_integral(grid: TensorGrid, values: np.ndarray) -> float:
    """Trapezoidal integral of node samples over the grid box."""
    w = _weight_array(grid.counts, trap_axes=set(range(grid.dim)))
    return float(np.sum(values * w) * grid.cell_volume)


def l2_norm(grid: TensorGrid, u: ScalarField) -> float:
    _check_same_grid(u, grid)
    return math.sqrt(box_integral(grid, u.values ** 2))


def eps_inner(spec: ProblemSpec, u: ScalarField, v: ScalarField) -> float:
    """Energy inner product: integral of eps^2 grad u . grad v + V u v.

    The gradient term is assembled from forward differences on cell edges
    (one midpoint sample per edge, trapezoid weights across the transverse
    axes).  With that choice the form is exactly the adjoint pairing of
    apply_linear for boundary-zero fields, not just up to O(h^2).
    """
    _check_same_grid(u, spec.grid)
    _check_same_grid(v, spec.grid)
    grid = spec.grid
    cell = grid.cell_volume
    total = 0.0
    e2 = spec.eps ** 2
    for a, h in enumerate(grid.spacing):
        du = np.diff(u.values, axis=a)
        dv = np.diff(v.values, axis=a)
        edge_counts = list(grid.counts)
        edge_counts[a] -= 1
        trans = set(range(grid.dim)) - {a}
        w = _weight_array(tuple(edge_counts), trap_axes=trans)
        total += e2 / (h * h) * float(np.sum(du * dv * w)) * cell
    w = _weight_array(grid.counts, trap_axes=set(range(grid.dim)))
    total += float(np.sum(spec.potential_values() * u.values * v.values * w)
                   ) * cell
    return total


def eps_norm(spec: ProblemSpec, u: ScalarField) -> float:
    return math.sqrt(eps_inner(spec, u, u))


_COVER_C1 = 45.0 / 32.0
_COVER_C3 = 25.0 / 16.0
_COVER_C5 = 21.0 / 32.0


def _coverage(s: np.ndarray) -> np.ndarray:
    """C^1 monotone profile, 1 below s=-1 and 0 above s=1.

    The quintic is chosen so the difference from the sharp step has zero
    zeroth and first moments, which keeps ball quadrature second order.
    """
    sc = np.clip(s, -1.0, 1.0)
    return 0.5 - _COVER_C1 * sc + _COVER_C3 * sc ** 3 - _COVER_C5 * sc ** 5


def ball_volume_integral(spec: ProblemSpec, f: ScalarField, center,
                         radius: float) -> float:
    """Integral of f over the ball, via smoothed cell coverage."""
    _check_same_grid(f, spec.grid)
    grid = spec.grid
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.dim,):
        raise GeometryError("ball center has wrong dimension")
    if not radius > 0.0:
        raise GeometryError(f"ball radius must be positive, got {radius}")
    width = 2.0 * max(grid.spacing)
    if np.any(center - radius - width < grid.lo) or \
            np.any(center + radius + width > grid.hi):
        raise GeometryError(
            "ball (plus its smoothing skirt) exits the grid box")
    dist = np.linalg.norm(grid.points() - center, axis=1)
    cov = _coverage((dist - radius) / width).reshape(grid.counts)
    return float(np.sum(f.values * cov) * grid.cell_volume)


@dataclass(eq=False)
class SphereQuadrature:
    center: np.ndarray
    radius: float
    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray


def make_sphere_quadrature(center, radius: float,
                           resolution: int = 32) -> SphereQuadrature:
    """Quadrature for integrals over the sphere |x - center| = radius.

    dim 1: the two endpoints with unit weights.  dim 2: `4*resolution`
    equispaced angles (trapezoid rule, spectrally accurate on smooth
    periodic data).  dim 3: Gauss-Legendre in the polar cosine times a
    uniform azimuthal rule.  Weights sum to the exact surface measure.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2, or 3, got {dim}")
    if not radius > 0.0:
        raise GeometryError(f"radius must be positive, got {radius}")
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    if dim == 1:
        normals = np.array([[-1.0], [1.0]])
        nodes = center + radius * normals
        weights = np.array([1.0, 1.0])
    elif dim == 2:
        n = 4 * resolution
        theta = 2.0 * np.pi * np.arange(n) / n
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        nodes = center + radius * normals
        weights = np.full(n, 2.0 * np.pi * radius / n)
    else:
        n_pol = resolution
        n_az = 2 * resolution
        x, w_pol = np.polynomial.legendre.leggauss(n_pol)
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        sin_t = np.sqrt(1.0 - x ** 2)
        nx = np.outer(sin_t, np.cos(phi)).ravel()
        ny = np.outer(sin_t, np.sin(phi)).ravel()
        nz = np.outer(x, np.ones(n_az)).ravel()
        normals = np.stack([nx, ny, nz], axis=1)
        nodes = center + radius * normals
        weights = (radius ** 2 * 2.0 * np.pi / n_az) * np.outer(
            w_pol, np.ones(n_az)).ravel()
    return SphereQuadrature(center=center, radius=float(radius), nodes=nodes,
                            weights=weights, normals=normals)


def sphere_surface_integral(quad: SphereQuadrature,
                            g: Callable[[np.ndarray, np.ndarray],
                                        np.ndarray]) -> float:
    """Sum of weights * g(nodes, normals); g maps (M,dim),(M,dim) -> (M,)."""
    vals = np.asarray(g(quad.nodes, quad.normals), dtype=float)
    vals = np.broadcast_to(vals, quad.weights.shape)
    return float(np.dot(quad.weights, vals))


def field_values_on(f: ScalarField, points) -> np.ndarray:
    """Multilinear interpolation of a field at arbitrary points in the box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    interp = RegularGridInterpolator(f.grid.axes(), f.values,
                                     method="linear", bounds_error=True)
    try:
        return interp(pts)
    except ValueError as exc:
        raise GeometryError(f"interpolation point outside grid box: {exc}")


def field_gradient_on(f: ScalarField, points) -> np.ndarray:
    """Central-difference gradient of a field, interpolated at points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    grads = np.gradient(f.values, *f.grid.axes(), edge_order=2)
    if f.grid.dim == 1:
        grads = [grads]
    out = np.empty((pts.shape[0], f.grid.dim))
    for a, gcomp in enumerate(grads):
        interp = RegularGridInterpolator(f.grid.axes(), gcomp,
                                         method="linear", bounds_error=True)
        try:
            out[:, a] = interp(pts)
        except ValueError as exc:
            raise GeometryError(f"interpolation point outside grid box: {exc}")
    return out
