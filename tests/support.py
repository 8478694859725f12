"""Helpers the tests share that the package itself has no use for: a
well-free potential and a radial quadrature oracle."""

import math

import numpy as np

from nlsbump.errors import DomainError, PositivityError
from nlsbump.potential import PotentialModel
from nlsbump.radial import RadialProfile


def constant_potential(value: float, dim: int) -> PotentialModel:
    """A well-free model: V identically equal to `value`."""
    if not value > 0.0:
        raise PositivityError(
            f"constant potential must be positive, got {value}")
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2, or 3, got {dim}")
    return PotentialModel(wells=(), exponent=2.0, patch_radius=1.0,
                          background=value, dim=dim)


def radial_integral(profile: RadialProfile, transform=None) -> float:
    """Integral over R^dim of transform(U(|y|)) for a radial integrand.

    transform maps the table values elementwise (default: identity).  Uses
    the full-resolution table with trapezoid weights; the neglected tail
    beyond r_max is below 1e-15 relative for any monomial transform.
    """
    f = profile.values if transform is None else transform(profile.values)
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[profile.dim]
    w = profile.r_nodes ** (profile.dim - 1)
    return area * float(np.trapezoid(f * w, profile.r_nodes))
