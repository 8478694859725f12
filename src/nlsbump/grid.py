"""Uniform tensor grids, sampled fields, and matrix-free operators.

A field is a float array of shape spec.grid.counts, row-major over the
nodes; the functions here take the grid (or the spec holding it) beside
the array.  Only the field file format (fieldio) stores a grid with its
values.  A point set is its coordinates: grid.mesh()[a] is axis a's
coordinate vector shaped to broadcast against the others, so per-node
quantities (V, distances, bumps) are computed in the grid's shape with no
node list.  V at the nodes is computed once, by make_problem.

eps_gram (and its 1 x 1 case eps_inner) assembles the energy inner
product from forward differences on cell edges, which makes it the exact
adjoint pairing of the central second-difference stencil under the plain
node quadrature: for fields vanishing on the boundary ring, eps_inner(u,
v) = cell_volume * u_int . (M v_int) up to roundoff, M =
solver.interior_operator(V_int, spacing, eps^2).  Quadrature over balls
uses a smooth cell-coverage profile whose zeroth and first moments match
the sharp indicator, and sphere integrals use product rules of one fixed
resolution that resolve smooth surface data to spectral accuracy in
angle.  field_values_on interpolates one field, or a stack of fields with
one set of corner weights, at any points.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, GeometryError
from .potential import PotentialModel, displacement, eval_potential


@dataclass(frozen=True, eq=False)
class TensorGrid:
    dim: int
    counts: Tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    spacing: Tuple[float, ...]
    axes: Tuple[np.ndarray, ...] = field(repr=False)

    def mesh(self) -> Tuple[np.ndarray, ...]:
        """The node coordinates as views that broadcast to counts: entry a
        holds axes[a] along axis a and has length 1 on every other axis."""
        return tuple(x.reshape([-1 if b == a else 1 for b in range(self.dim)])
                     for a, x in enumerate(self.axes))

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
    axes = tuple(np.linspace(lo[a], hi[a], counts[a]) for a in range(dim))
    return TensorGrid(dim=dim, counts=counts, lo=lo, hi=hi, spacing=spacing,
                      axes=axes)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    eps: float
    p: float
    potential: PotentialModel
    grid: TensorGrid
    potential_values: np.ndarray = field(repr=False)  # V at the nodes


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
                       grid=grid,
                       potential_values=eval_potential(potential,
                                                       grid.mesh()))
    for k, w in enumerate(potential.wells):
        margin = 5.0 * eps / math.sqrt(min(v.depth for v in potential.wells))
        reach = 2.0 * potential.patch_radius + margin
        if np.any(w.center - reach < grid.lo) or \
                np.any(w.center + reach > grid.hi):
            raise GeometryError(
                f"well {k} needs its patch inside the box with margin "
                f"{margin:.4g}; enlarge the grid")
    return spec


def same_grid(a: TensorGrid, b: TensorGrid) -> bool:
    """Equal node counts and exactly equal box corners."""
    return a is b or (tuple(a.counts) == tuple(b.counts)
                      and np.array_equal(a.lo, b.lo)
                      and np.array_equal(a.hi, b.hi))


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


def power_source(p: float) -> str:
    """|u|^(p-2) u as an expression in u and em = p - 2 (see power_map)."""
    em = p - 2.0
    return ("u * u * u" if em == 2.0 else "abs(u) * u" if em == 1.0
            else "abs(u) ** em * u")


@functools.lru_cache(maxsize=None)
def power_map(p: float) -> Callable:
    """Return u -> |u|^(p-2) u, for a float or elementwise on an array.

    Safe for sign changes and non-integer p.  The builtin abs keeps a
    Python float a Python float, which matters in the radial shooting
    loop; on arrays it is np.abs.  On arrays the p = 4 and p = 3 forms are
    bitwise equal to the general one, by numpy's fast paths for x**2.0
    and x**1.0.
    """
    return eval("lambda u: " + power_source(p), {"em": p - 2.0})


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


def eps_gram(spec: ProblemSpec, left, right) -> np.ndarray:
    """Energy inner products, the integrals of eps^2 grad a . grad b
    + V a b, as the matrix [[eps_inner(a, b) for b in right] for a in
    left]; each field's edge differences and V a, and the weights, are
    formed once.

    The gradient term is assembled from forward differences on cell edges
    (one midpoint sample per edge, trapezoid weights across the transverse
    axes).  With that choice it pairs exactly with the stencil for
    boundary-zero fields (module docstring), not just up to O(h^2).
    """
    grid = spec.grid
    cell = grid.cell_volume
    e2 = spec.eps ** 2
    every = set(range(grid.dim))
    edge_weights = [_weight_array(
        tuple(n - (b == a) for b, n in enumerate(grid.counts)),
        trap_axes=every - {a}) for a in range(grid.dim)]
    w = _weight_array(grid.counts, trap_axes=every)

    def diffs(f):
        return [np.diff(f, axis=a) for a in range(grid.dim)]

    right_diffs = [diffs(f) for f in right]
    out = np.empty((len(left), len(right)))
    for i, a_field in enumerate(left):
        da, va = diffs(a_field), spec.potential_values * a_field
        for j, (b_field, db) in enumerate(zip(right, right_diffs)):
            total = 0.0
            for a, h in enumerate(grid.spacing):
                total += e2 / (h * h) * float(
                    np.sum(da[a] * db[a] * edge_weights[a])) * cell
            total += float(np.sum(va * b_field * w)) * cell
            out[i, j] = total
    return out


def eps_inner(spec: ProblemSpec, u: np.ndarray, v: np.ndarray) -> float:
    """Energy inner product of u and v: eps_gram's 1 x 1 case."""
    return float(eps_gram(spec, [u], [v])[0, 0])


def eps_norm(spec: ProblemSpec, u: np.ndarray) -> float:
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


def ball_coverage(grid: TensorGrid, center, radius: float) -> np.ndarray:
    """Smoothed cell coverage of the ball at the nodes: a field f
    integrates over the ball to sum(f * coverage) * cell_volume."""
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
    dist = displacement(grid.mesh(), center)[1]
    return _coverage((dist - radius) / width)


@dataclass(eq=False)
class SphereQuadrature:
    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray


_SPHERE_RESOLUTION = 48  # the sphere quadrature's one resolution


def make_sphere_quadrature(center, radius: float) -> SphereQuadrature:
    """Quadrature for integrals over the sphere |x - center| = radius.

    dim 1: the two endpoints with unit weights.  dim 2: 4 * 48 equispaced
    angles (trapezoid rule, spectrally accurate on smooth periodic data).
    dim 3: 48-point Gauss-Legendre in the polar cosine times a uniform
    96-point azimuthal rule.  Weights sum to the exact surface measure.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    dim = center.shape[0]
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2, or 3, got {dim}")
    if not radius > 0.0:
        raise GeometryError(f"radius must be positive, got {radius}")
    if dim == 1:
        normals = np.array([[-1.0], [1.0]])
        nodes = center + radius * normals
        weights = np.array([1.0, 1.0])
    elif dim == 2:
        n = 4 * _SPHERE_RESOLUTION
        theta = 2.0 * np.pi * np.arange(n) / n
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        nodes = center + radius * normals
        weights = np.full(n, 2.0 * np.pi * radius / n)
    else:
        n_pol = _SPHERE_RESOLUTION
        n_az = 2 * _SPHERE_RESOLUTION
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
    return SphereQuadrature(nodes=nodes, weights=weights, normals=normals)


def field_values_on(grid: TensorGrid, values: np.ndarray,
                    points) -> np.ndarray:
    """Multilinear interpolation of node values at points in the box: the
    cell index from (x - lo)/h, then a sum over the 2^dim cell corners.
    A stack of fields, shape (..., *counts), gives shape (..., points):
    every field gets the same weights in the same corner order, so each
    is bitwise what interpolating it alone gives."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1:] != (grid.dim,):
        raise GeometryError(f"interpolation points must be {grid.dim}-d")
    if not np.all((pts >= grid.lo) & (pts <= grid.hi)):  # NaN: never in it
        raise GeometryError("interpolation point not in the grid box")
    s = (pts - grid.lo) / np.array(grid.spacing)
    cell = np.minimum(s.astype(int), np.array(grid.counts) - 2)
    t = s - cell
    return sum(np.prod(np.where(corner, t, 1.0 - t), axis=1)
               * values[(..., *(cell + corner).T)]
               for corner in itertools.product((0, 1), repeat=grid.dim))
