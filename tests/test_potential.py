"""Tests for multi-well potential construction, evaluation, and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsbump.errors import DomainError, GeometryError, PositivityError
from nlsbump.potential import (
    PotentialModel,
    WellSpec,
    eval_potential,
    grad_potential,
    make_multiwell,
)
from support import constant_potential


def single_well(m, depth=1.0, coeff=1.0, delta=1.0, dim=2, background=None):
    center = np.zeros(dim)
    return make_multiwell([WellSpec(center, depth, coeff)], m, delta,
                          background=background)


def test_quadratic_well_value():
    pot = single_well(2.0, dim=3)
    x = np.array([0.5, 0.0, 0.0])
    assert eval_potential(pot, x) == pytest.approx(1.25, abs=1e-15)


def test_cubic_well_values():
    pot = single_well(3.0, dim=2)
    assert eval_potential(pot, np.zeros(2)) == pytest.approx(1.0, abs=1e-15)
    assert eval_potential(pot, np.array([0.3, 0.0])) == pytest.approx(
        1.027, abs=1e-15)
    far = np.array([10.0 * pot.patch_radius, 0.0])
    assert eval_potential(pot, far) == pot.background


def test_gradient_worked_values():
    pot = single_well(2.0, dim=3)
    g = grad_potential(pot, np.array([0.5, 0.0, 0.0]))
    assert np.allclose(g, [1.0, 0.0, 0.0], atol=1e-15)
    assert np.all(grad_potential(pot, np.zeros(3)) == 0.0)

    pot_flat = single_well(1.5, dim=2)
    for t in (1e-2, 1e-4, 1e-6):
        g = grad_potential(pot_flat, np.array([t, 0.0]))
        assert g[0] == pytest.approx(1.5 * np.sqrt(t), rel=1e-12)
        assert g[1] == 0.0
    assert np.all(grad_potential(pot_flat, np.zeros(2)) == 0.0)


def test_midpoint_between_wells_is_background():
    wells = [WellSpec(np.array([-1.5, 0.0]), 1.0, 1.0),
             WellSpec(np.array([1.5, 0.0]), 1.21, 1.0)]
    pot = make_multiwell(wells, 1.5, 0.4)
    mid = np.zeros(2)
    assert eval_potential(pot, mid) == pot.background
    assert np.all(grad_potential(pot, mid) == 0.0)


def test_default_background_is_largest_boundary_value():
    wells = [WellSpec(np.array([-1.5, 0.0]), 1.0, 1.0),
             WellSpec(np.array([1.5, 0.0]), 1.21, 1.0)]
    pot = make_multiwell(wells, 2.0, 0.4)
    assert pot.background == pytest.approx(1.21 + 0.4 ** 2, abs=1e-15)


def test_local_shape_exact_inside_patch():
    # Where the cutoff is identically 1 the constructed V must equal the
    # local power shape with no blending error at all.
    for m in (1.5, 2.0, 3.0):
        pot = single_well(m, depth=1.3, coeff=0.7, delta=0.6, dim=2)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.6, 0.6, size=(200, 2))
        pts = pts[np.linalg.norm(pts, axis=1) < 0.6]
        v = eval_potential(pot, pts.T)
        r = np.linalg.norm(pts, axis=1)
        assert np.allclose(v, 1.3 + 0.7 * r ** m, rtol=1e-14, atol=1e-14)


def test_positive_and_bounded_on_dense_sample():
    wells = [WellSpec(np.array([-1.0, 0.0]), 1.0, 1.0),
             WellSpec(np.array([1.0, 0.0]), 1.21, -0.3)]
    pot = make_multiwell(wells, 2.0, 0.4, background=1.3)
    xs = np.linspace(-3.0, 3.0, 151)
    v = eval_potential(pot, np.meshgrid(xs, xs, indexing="ij"))
    assert v.shape == (151, 151)
    assert np.all(np.isfinite(v))
    assert v.min() > 0.0
    # Crude upper bound: background, or any local shape at its support edge.
    assert v.max() <= max(pot.background, 1.0 + (2 * 0.4) ** 2) + 1e-12


def test_continuity_across_blend_shells():
    pot = single_well(2.0, depth=1.0, coeff=1.0, delta=0.5, dim=2)
    for radius in (0.5, 1.0):
        for direction in (np.array([1.0, 0.0]),
                          np.array([0.6, 0.8])):
            lo = (radius - 1e-8) * direction
            hi = (radius + 1e-8) * direction
            dv = eval_potential(pot, hi) - eval_potential(pot, lo)
            dg = grad_potential(pot, hi) - grad_potential(pot, lo)
            assert abs(dv) < 1e-6
            assert np.linalg.norm(dg) < 1e-5


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_gradient_matches_central_differences(m):
    pot = single_well(m, depth=1.0, coeff=1.0, delta=0.5, dim=2,
                      background=1.4)
    rng = np.random.default_rng(42)
    pts = rng.uniform(-1.5, 1.5, size=(1000, 2))
    r = np.linalg.norm(pts, axis=1)
    # Exclude the well center (the analytic order drops to m - 1 there for
    # m < 3) and thin shells where the blend's curvature jumps, which costs
    # the difference quotient an order without reflecting on the gradient.
    keep = r > 0.05
    for shell in (0.5, 1.0):
        keep &= np.abs(r - shell) > 5e-3
    pts = pts[keep]
    assert pts.shape[0] > 800

    def max_fd_error(h):
        err = 0.0
        exact = grad_potential(pot, pts.T)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (eval_potential(pot, (pts + e).T)
                  - eval_potential(pot, (pts - e).T)) / (2.0 * h)
            err = max(err, np.abs(fd - exact[axis]).max())
        return err

    e1 = max_fd_error(1e-3)
    e2 = max_fd_error(5e-4)
    order = np.log2(e1 / e2)
    assert e1 < 1e-4
    assert order > 1.9


def test_gradient_zero_outside_patches():
    pot = single_well(2.0, delta=0.5, dim=3)
    rng = np.random.default_rng(3)
    pts = rng.uniform(1.2, 4.0, size=(50, 3))
    assert np.all(grad_potential(pot, pts.T) == 0.0)
    assert np.all(eval_potential(pot, pts.T) == pot.background)


@settings(max_examples=30, deadline=None)
@given(
    depth=st.floats(0.5, 3.0),
    coeff=st.floats(0.1, 2.0),
    m=st.floats(1.1, 4.0),
    delta=st.floats(0.3, 1.5),
    frac=st.floats(0.0, 0.99),
    angle=st.floats(0.0, 2.0 * np.pi),
)
def test_patch_interior_shape_property(depth, coeff, m, delta, frac, angle):
    pot = make_multiwell([WellSpec(np.zeros(2), depth, coeff)], m, delta)
    r = frac * delta
    x = r * np.array([np.cos(angle), np.sin(angle)])
    v = eval_potential(pot, x)
    assert v == pytest.approx(depth + coeff * r ** m, rel=1e-13, abs=1e-13)
    far = (2.0 * delta + 0.5) * np.array([np.cos(angle), np.sin(angle)])
    assert eval_potential(pot, far) == pot.background


def test_negative_coeff_well():
    pot = single_well(2.0, depth=1.0, coeff=-0.05, delta=1.0, dim=2)
    assert pot.background == pytest.approx(1.0)
    assert eval_potential(pot, np.zeros(2)) == pytest.approx(1.0)
    v_edge = eval_potential(pot, np.array([1.0, 0.0]))
    assert v_edge == pytest.approx(0.95, abs=1e-15)
    xs = np.linspace(-3, 3, 301)
    assert eval_potential(pot, np.meshgrid(xs, xs,
                                           indexing="ij")).min() > 0.0


def test_constant_potential():
    pot = constant_potential(1.5, 3)
    assert pot.wells == ()
    pts = np.random.default_rng(1).normal(size=(20, 3))
    assert np.all(eval_potential(pot, pts.T) == 1.5)
    assert np.all(grad_potential(pot, pts.T) == 0.0)
    with pytest.raises(PositivityError):
        constant_potential(0.0, 2)
    with pytest.raises(DomainError):
        constant_potential(1.0, 4)


def test_validation_errors():
    w0 = WellSpec(np.zeros(2), 1.0, 1.0)
    with pytest.raises(GeometryError):
        make_multiwell([], 2.0, 0.4)
    with pytest.raises(DomainError):
        make_multiwell([w0], 1.0, 0.4)
    with pytest.raises(DomainError):
        make_multiwell([w0], 0.5, 0.4)
    with pytest.raises(GeometryError):
        make_multiwell([w0], 2.0, -0.1)
    # Unchecked, either makes V non-finite: d^inf is inf past d = 1, and an
    # infinite patch blends nothing, 0 * inf background being NaN.
    with pytest.raises(DomainError):
        make_multiwell([w0], np.inf, 0.8)
    with pytest.raises(GeometryError):
        make_multiwell([w0], 2.0, np.inf)
    with pytest.raises(PositivityError):
        make_multiwell([WellSpec(np.zeros(2), -1.0, 1.0)], 2.0, 0.4)
    with pytest.raises(DomainError):
        make_multiwell([WellSpec(np.zeros(2), 1.0, 0.0)], 2.0, 0.4)
    close = [w0, WellSpec(np.array([1.0, 0.0]), 1.0, 1.0)]
    with pytest.raises(GeometryError):
        make_multiwell(close, 2.0, 0.3)
    mixed = [w0, WellSpec(np.zeros(3), 1.0, 1.0)]
    with pytest.raises(GeometryError):
        make_multiwell(mixed, 2.0, 0.1)
    with pytest.raises(PositivityError):
        make_multiwell([WellSpec(np.zeros(2), 1.0, -1.0)], 2.0, 1.0)
    with pytest.raises(PositivityError):
        make_multiwell([w0], 2.0, 0.4, background=-2.0)
    with pytest.raises(PositivityError):  # V would be inf, NaN where chi = 1
        make_multiwell([w0], 2.0, 0.4, background=np.inf)
    pot = make_multiwell([w0], 2.0, 0.4)
    with pytest.raises(GeometryError):
        eval_potential(pot, np.zeros(3))


@pytest.mark.parametrize("center,depth,coeff,error", [
    ([np.nan, 0.0], 1.21, 1.0, GeometryError),
    ([1.0, np.nan], 1.21, 1.0, GeometryError),
    ([1.0, 0.0], 1.21, np.inf, DomainError),
    ([1.0, 0.0], 1.21, -np.inf, DomainError),
    ([1.0, 0.0], 1.21, np.nan, DomainError),
    ([1.0, 0.0], np.inf, 1.0, DomainError),
], ids=["nan-x", "nan-y", "inf-coeff", "-inf-coeff", "nan-coeff",
        "inf-depth"])
def test_non_finite_well_parameters_are_rejected(center, depth, coeff,
                                                 error):
    # Unchecked, a NaN center coordinate drops that well out of V (every
    # distance comparison with it is false), and an infinite or NaN
    # coefficient or depth makes V, or its default background, non-finite.
    wells = [WellSpec(np.array([-1.0, 0.0]), 1.0, 1.0),
             WellSpec(np.array(center), depth, coeff)]
    with pytest.raises(error, match="finite"):
        make_multiwell(wells, 2.0, 0.4)


def test_separation_just_above_threshold_accepted():
    wells = [WellSpec(np.array([0.0]), 1.0, 1.0),
             WellSpec(np.array([1.61]), 1.0, 1.0)]
    pot = make_multiwell(wells, 2.0, 0.4)
    assert len(pot.wells) == 2
    with pytest.raises(GeometryError):
        make_multiwell([WellSpec(np.array([0.0]), 1.0, 1.0),
                        WellSpec(np.array([1.6]), 1.0, 1.0)], 2.0, 0.4)
