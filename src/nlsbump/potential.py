"""Multi-well trapping potentials.

Each well contributes depth_j + coeff_j |x - a_j|^m inside its patch ball of
radius delta; a fixed C^1 cubic cutoff chi (identically 1 on [0, 1], 0 from 2
on) blends that local shape into a constant background between patches:

    V(x) = chi(d/delta) (depth_j + coeff_j d^m) + (1 - chi(d/delta)) bg

with d = |x - a_j| on the patch owning x, and V = bg outside every patch.
Wells must be separated by more than 4 delta, so the 2 delta support balls
never overlap and each point is owned by at most one well.

eval_potential and grad_potential take points as coordinates: coords[a]
holds the a-th coordinate, as arrays that broadcast against each other.
Pass grid.mesh() for the grid nodes (the result has the grid's shape),
nodes.T for a row array of points, or one point's (dim,) vector for a
0-d result.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, GeometryError, PositivityError


@dataclass(frozen=True)
class WellSpec:
    """One well: location, value of V there, and leading coefficient."""
    center: np.ndarray
    depth: float
    coeff: float


@dataclass(frozen=True)
class PotentialModel:
    wells: Tuple[WellSpec, ...]
    exponent: float
    patch_radius: float
    background: float
    dim: int


def make_multiwell(wells: Sequence[WellSpec], exponent: float,
                   patch_radius: float,
                   background: Optional[float] = None) -> PotentialModel:
    """Validate geometry and positivity, then assemble the model.

    background defaults to the largest value V takes on any patch boundary
    (depth + coeff * patch_radius^m for a minimum, the center depth for a
    maximum), so every coeff > 0 well is a genuine dip.  Pass it explicitly
    for local-maximum experiments.
    """
    if len(wells) == 0:
        raise GeometryError("need at least one well")
    if not exponent > 1.0:
        raise DomainError(
            f"flatness exponent must exceed 1 (got {exponent}); the gradient "
            "expressions degenerate at m = 1")
    if not patch_radius > 0.0:
        raise GeometryError(f"patch_radius must be positive, got {patch_radius}")
    dim = None
    norm_wells = []
    for w in wells:
        c = np.atleast_1d(np.asarray(w.center, dtype=float))
        if dim is None:
            dim = c.shape[0]
        if c.shape != (dim,):
            raise GeometryError("well centers must share one dimension")
        if not w.depth > 0.0:
            raise PositivityError(f"well depth must be positive, got {w.depth}")
        if w.coeff == 0.0:
            raise DomainError("well coeff must be nonzero")
        norm_wells.append(WellSpec(center=c, depth=float(w.depth),
                                   coeff=float(w.coeff)))
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2, or 3, got {dim}")
    for i in range(len(norm_wells)):
        for j in range(i + 1, len(norm_wells)):
            sep = float(np.linalg.norm(norm_wells[i].center
                                       - norm_wells[j].center))
            if sep <= 4.0 * patch_radius:
                raise GeometryError(
                    f"wells {i} and {j} are {sep:.4g} apart; need more than "
                    f"4 * patch_radius = {4 * patch_radius:.4g}")
    # Worst case of depth + coeff d^m over the support ball d <= 2 delta is
    # at its edge for coeff < 0; the blend only interpolates toward bg.
    edge = 2.0 * patch_radius
    for k, w in enumerate(norm_wells):
        if w.coeff < 0.0 and w.depth + w.coeff * edge ** exponent <= 0.0:
            raise PositivityError(
                f"well {k} drives V nonpositive inside its support ball")
    if background is None:
        background = max(
            w.depth + max(0.0, w.coeff) * patch_radius ** exponent
            for w in norm_wells)
    if not background > 0.0:
        raise PositivityError(f"background must be positive, got {background}")
    return PotentialModel(wells=tuple(norm_wells), exponent=float(exponent),
                          patch_radius=float(patch_radius),
                          background=float(background), dim=dim)


def _cutoff(t: np.ndarray) -> np.ndarray:
    """C^1 cubic cutoff: 1 on [0,1], 0 on [2,inf), smoothstep between."""
    s = np.clip(t - 1.0, 0.0, 1.0)
    return (1.0 - s) ** 2 * (1.0 + 2.0 * s)


def _cutoff_deriv(t: np.ndarray) -> np.ndarray:
    s = np.clip(t - 1.0, 0.0, 1.0)
    return -6.0 * s * (1.0 - s)


def displacement(coords, center) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """(x - center per axis, |x - center|) at coords (module docstring);
    the norm adds the squares in axis order, as np.linalg.norm does on a
    row of coordinates."""
    rel = tuple(x - c for x, c in zip(coords, center))
    return rel, np.sqrt(sum(r * r for r in rel))


def _coords(model: PotentialModel, coords):
    """coords as float arrays, and their broadcast shape."""
    if len(coords) != model.dim:
        raise GeometryError(
            f"points have dimension {len(coords)}, model is {model.dim}-d")
    coords = tuple(np.asarray(x, dtype=float) for x in coords)
    return coords, np.broadcast_shapes(*(x.shape for x in coords))


def eval_potential(model: PotentialModel, coords) -> np.ndarray:
    """V at coords (module docstring), in their broadcast shape."""
    coords, shape = _coords(model, coords)
    v = np.full(shape, model.background)
    delta = model.patch_radius
    for w in model.wells:
        d = displacement(coords, w.center)[1]
        mask = d < 2.0 * delta
        if not np.any(mask):
            continue
        dm = d[mask]
        chi = _cutoff(dm / delta)
        local = w.depth + w.coeff * dm ** model.exponent
        v[mask] = chi * local + (1.0 - chi) * model.background
    return v


def grad_potential(model: PotentialModel, coords) -> np.ndarray:
    """Analytic gradient of V at coords (as eval_potential), component a
    at index a of the leading axis; exactly zero outside all support
    balls.

    At a well center the gradient is the continuous extension 0 (for
    1 < m < 2 the radial factor d^(m-2) alone blows up, but the full vector
    m coeff d^(m-2) (x - a) still vanishes).
    """
    coords, shape = _coords(model, coords)
    g = np.zeros((model.dim, *shape))
    delta = model.patch_radius
    m = model.exponent
    for w in model.wells:
        rel, d = displacement(coords, w.center)
        mask = (d < 2.0 * delta) & (d > 0.0)
        if not np.any(mask):
            continue
        dm = d[mask]
        t = dm / delta
        chi = _cutoff(t)
        dchi = _cutoff_deriv(t) / delta
        local = w.depth + w.coeff * dm ** m
        radial = chi * w.coeff * m * dm ** (m - 2.0) \
            + dchi * (local - model.background) / dm
        for a, ra in enumerate(rel):
            g[a, mask] = radial * np.broadcast_to(ra, shape)[mask]
    return g
