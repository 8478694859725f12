"""Shooting solver tests.

The 1-D problem has the closed form

    u(x) = (p/2)^(1/(p-2)) sech^(2/(p-2))((p-2)/2 x)        (v_a = 1)

with the scaling rule u_{lam^2 v}(r) = lam^(2/(p-2)) u_v(lam r).  The first
test re-derives that formula numerically by substitution, so everything
downstream leans on a verified oracle rather than on trust.
"""

import collections
import math
import re
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import kv, kvp

import nlsbump.radial
from nlsbump.errors import BracketError, ConvergenceError, DomainError
from nlsbump.grid import power_map, power_source
from nlsbump.radial import (_CLASSIFY_RATIO, _OVERSHOOT, _TAIL_RATIO,
                            TABLE_BLOCK, _classify, _linear_tail, _march,
                            _series_start, eval_profile, ode_residual,
                            profile_ode_residual, solve_ground_state)
from support import radial_integral


def soliton_1d(r, p, v_a=1.0):
    lam = math.sqrt(v_a)
    core = (p / 2.0) ** (1.0 / (p - 2.0)) / np.cosh(
        (p - 2.0) / 2.0 * lam * np.asarray(r)) ** (2.0 / (p - 2.0))
    return lam ** (2.0 / (p - 2.0)) * core


@pytest.mark.parametrize("p,v_a", [(4.0, 1.0), (3.0, 1.0), (4.0, 2.25)])
def test_closed_form_satisfies_ode(p, v_a):
    # Substitute the sech formula into u'' = v_a u - u^(p-1) with a
    # fourth-order finite difference; the defect must be at truncation level.
    x = np.linspace(0.3, 6.0, 2001)
    h = 1e-3
    u = soliton_1d(x, p, v_a)
    upp = (-soliton_1d(x + 2 * h, p, v_a) + 16 * soliton_1d(x + h, p, v_a)
           - 30 * u + 16 * soliton_1d(x - h, p, v_a)
           - soliton_1d(x - 2 * h, p, v_a)) / (12 * h * h)
    defect = upp - (v_a * u - u ** (p - 1.0))
    assert np.max(np.abs(defect)) < 1e-8


def test_dim1_profile_matches_closed_form(get_profile):
    prof = get_profile(1.0, 4.0, 1)
    exact = soliton_1d(prof.r_nodes, 4.0)
    assert np.max(np.abs(prof.values - exact)) < 1e-6
    assert abs(prof.values[0] - math.sqrt(2.0)) < 1e-9
    # derivative table against the analytic derivative
    dex = -math.sqrt(2.0) * np.tanh(prof.r_nodes) / np.cosh(prof.r_nodes)
    assert np.max(np.abs(prof.dvalues - dex)) < 1e-6


def test_dim1_center_values_exact(get_profile):
    # (p v_a / 2)^(1/(p-2)) in one dimension
    assert abs(get_profile(1.0, 3.0, 1).values[0] - 1.5) < 1e-9
    assert abs(get_profile(4.0, 4.0, 1).values[0] - 2 * math.sqrt(2)) < 1e-8


def test_dim3_center_value_pinned(get_profile):
    # The frozen value was stable to well below 1e-6 under step halving.
    assert abs(get_profile(1.0, 4.0, 3).values[0] - 4.33738767998) < 1e-6


def test_dim2_center_value_pinned(get_profile):
    assert abs(get_profile(1.0, 4.0, 2).values[0] - 2.20620086465) < 1e-6


@pytest.mark.parametrize("v_a,p,dim,center,rate", [
    (1.0, 4.0, 1, "0x1.6a09e667f3badp+0", "0x1.ffe9bf6f014d7p-1"),
    (1.21, 4.0, 1, "0x1.8e3e170bf280ap+0", "0x1.198dadbf647f2p+0"),
    (1.0, 4.0, 2, "0x1.1a64ca390a828p+1", "0x1.00002e002ab92p+0"),
    (1.21, 4.0, 2, "0x1.36a211a525189p+1", "0x1.1999792f2a07bp+0")])
def test_benchmark_profiles_keep_their_bits(get_profile, v_a, p, dim,
                                            center, rate):
    # u(0) and the matched tail rate of the profiles the benchmark
    # tabulates and its sweeps build on, bit for bit: a change to the
    # shooting or the tail that moves them shows here.
    prof = get_profile(v_a, p, dim)
    assert (prof.values[0].hex(), prof.decay_rate.hex()) == (center, rate)


def test_power_map_is_built_once_per_p_and_inlined_in_the_loop():
    assert power_map(5.5) is power_map(5.5)
    for p in (3.0, 4.0, 5.5):
        # The compiled RK4 loop calls no function but range and abs.
        for table in (False, True):
            names = nlsbump.radial._loop(power_source(p), table).__code__
            assert set(names.co_names) <= {"range", "abs"}


def test_scaling_covariance_dim1(get_profile):
    base = get_profile(1.0, 4.0, 1)
    scaled = get_profile(4.0, 4.0, 1)
    r = np.linspace(0.0, 6.0, 301)
    lhs = eval_profile(scaled, r)[0]
    rhs = 2.0 * eval_profile(base, 2.0 * r)[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-6


@settings(max_examples=4, deadline=None)
@given(lam=st.floats(1.2, 1.9), v_a=st.floats(0.7, 1.4))
def test_scaling_covariance_property(lam, v_a):
    p = 4.0
    base = solve_ground_state(v_a, p, 1)
    scaled = solve_ground_state(lam * lam * v_a, p, 1)
    r = np.linspace(0.0, 4.0, 41)
    lhs = eval_profile(scaled, r)[0]
    rhs = lam ** (2.0 / (p - 2.0)) * eval_profile(base, lam * r)[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-5 * scaled.values[0]


@pytest.mark.parametrize("v_a,p,dim", [(1.0, 4.0, 1), (1.0, 4.0, 2),
                                       (1.0, 3.0, 3), (2.25, 4.0, 3)])
def test_profile_invariants(get_profile, v_a, p, dim):
    prof = get_profile(v_a, p, dim)
    assert prof.values[0] == np.max(prof.values)
    assert np.all(prof.values > 0.0)
    assert np.all(np.diff(prof.values) < 0.0)
    assert prof.dvalues[0] == 0.0
    assert prof.r_nodes[0] == 0.0
    res = ode_residual(prof)
    assert res <= 1e-6 * prof.values[0]
    # The blockwise sup is the whole-table one, bit for bit; (1, 4, 2) and
    # (2.25, 4, 3) span more than one block.
    assert res == np.max(np.abs(reference_residual(
        prof.r_nodes, prof.values, v_a, p, dim)))
    kappa = math.sqrt(v_a)
    assert abs(prof.decay_rate - kappa) <= 0.02 * kappa


def test_residual_second_order_in_step():
    # The residual check is a second-order stencil: on the exact sech
    # profile it falls by 4 per halving of the table step.
    res = []
    for h in (2e-3, 1e-3, 5e-4):
        r = np.arange(int(round(20.0 / h)) + 1) * h
        res.append(profile_ode_residual(r, soliton_1d(r, 4.0), 1.0, 4.0, 1))
    assert 3.3 < res[0] / res[1] < 4.7
    assert 3.3 < res[1] / res[2] < 4.7


def test_decay_rate_windows(get_profile):
    # decay_rate is kappa_t of the K_nu tail the table ends on; each
    # dimension's window around sqrt(v_a).  In 2-D it is within 2.8e-6
    # (measured).  In 1-D the hand-off slope carries the table's
    # growing-mode error: measured 0.99983 at (1, 4, 1).
    for v_a in (1.0, 1.21):
        prof = get_profile(v_a, 4.0, 2)
        assert abs(prof.decay_rate - math.sqrt(v_a)) <= 1e-5
    assert abs(get_profile(1.0, 4.0, 1).decay_rate - 1.0) < 1e-3
    assert abs(get_profile(1.0, 4.0, 3).decay_rate - 1.0) < 0.02


def test_eval_tail_beyond_table(get_profile):
    prof = get_profile(1.0, 4.0, 1)
    r_m = prof.r_max
    inner = eval_profile(prof, r_m - 1e-9)[0]
    outer = eval_profile(prof, r_m + 1e-9)[0]
    assert abs(inner - outer) < 1e-12 + 1e-9 * prof.values[0]
    far = eval_profile(prof, np.array([r_m + 1.0, r_m + 3.0, r_m + 6.0]))[0]
    assert np.all(far > 0.0)
    assert np.all(np.diff(far) < 0.0)
    # tail slope consistent with the matched rate
    got = math.log(far[0] / far[1]) / 2.0
    assert abs(got - prof.decay_rate) < 1e-6


def test_eval_profile_deriv_consistent(get_profile):
    prof = get_profile(1.0, 4.0, 2)
    r = np.linspace(0.1, 12.0, 400)
    h = 1e-5
    fd = (eval_profile(prof, r + h)[0]
          - eval_profile(prof, r - h)[0]) / (2 * h)
    an = eval_profile(prof, r)[1]
    assert np.max(np.abs(fd - an)) < 1e-6 * prof.values[0]


@pytest.mark.parametrize("v_a,p,dim", [(1.0, 4.0, 1), (1.0, 4.0, 2)])
def test_eval_matches_the_hermite_spline_of_the_table(get_profile, v_a, p,
                                                      dim):
    # scipy's CubicHermiteSpline on the same nodes, values and slopes is the
    # reference: random radii, every node and r_max agree to roundoff, and
    # beyond r_max both functions return the table's K_nu tail.
    prof = get_profile(v_a, p, dim)
    reference = CubicHermiteSpline(prof.r_nodes, prof.values, prof.dvalues)
    h = prof.r_nodes[1] - prof.r_nodes[0]
    u0 = prof.values[0]
    r = np.concatenate([
        np.random.default_rng(7).uniform(0.0, prof.r_max, 20000),
        prof.r_nodes, [prof.r_max]])
    u, du = eval_profile(prof, r)
    assert np.max(np.abs(u - reference(r))) <= 1e-15 * u0
    assert np.max(np.abs(du - reference.derivative()(r))) <= 1e-15 * u0 / h
    assert np.max(np.abs(eval_profile(prof, prof.r_nodes)[0]
                         - prof.values)) <= 1e-15 * u0
    beyond = prof.r_max + np.array([1e-9, 0.5, 3.0, 40.0])
    shape, logderiv = _linear_tail(dim, prof.decay_rate,
                                   np.append(beyond, prof.r_max))
    tail = prof.values[-1] / shape[-1] * shape[:-1]
    u, du = eval_profile(prof, beyond)
    np.testing.assert_array_equal(u, tail)
    np.testing.assert_array_equal(du, tail * logderiv[:-1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_past_the_table_continues_its_tail(get_profile, dim):
    # The table ends on C r^(-nu) K_nu(decay_rate r) (scipy's kv here);
    # past r_max U and U' are that function and its slope, and they meet
    # the last node's value and slope, all to roundoff.
    prof = get_profile(1.0, 4.0, dim)
    nu, kappa, r_m = (dim - 2) / 2.0, prof.decay_rate, prof.r_max

    def tail(r):
        return r ** (-nu) * kv(nu, kappa * r)

    def slope(r):
        return tail(r) * (-nu / r + kappa * kvp(nu, kappa * r)
                          / kv(nu, kappa * r))

    scale = prof.values[-1] / tail(r_m)
    last = prof.r_nodes > r_m - 1.0  # deep in the attached tail
    np.testing.assert_allclose(prof.values[last],
                               scale * tail(prof.r_nodes[last]), rtol=1e-12)
    beyond = r_m + np.array([1e-12, 1e-9, 0.5, 3.0, 10.0, 40.0])
    u, du = eval_profile(prof, beyond)
    np.testing.assert_allclose(u, scale * tail(beyond), rtol=1e-12)
    np.testing.assert_allclose(du, scale * slope(beyond), rtol=1e-12)
    u, du = eval_profile(prof, np.nextafter(r_m, np.inf))
    assert abs(u / prof.values[-1] - 1.0) <= 1e-13
    assert abs(du / prof.dvalues[-1] - 1.0) <= 1e-13


def test_one_evaluation_gives_u_and_du_in_the_shape_of_r(get_profile):
    # An array mixing radii inside r_max, r_max itself and past it gives
    # two float arrays of its shape; a scalar gives two numpy floats, the
    # same numbers.  At r_max U and U' are the table's last node, and just
    # past it U' is the tail's slope, which continues it.
    prof = get_profile(1.0, 4.0, 2)
    r_m = prof.r_max
    r = np.array([[0.0, 0.5 * r_m, r_m], [np.nextafter(r_m, np.inf),
                                          r_m + 2.0, r_m + 40.0]])
    u, du = eval_profile(prof, r)
    assert u.shape == du.shape == r.shape
    assert u.dtype == du.dtype == np.float64
    for x, want_u, want_du in zip(r.ravel(), u.ravel(), du.ravel()):
        got_u, got_du = eval_profile(prof, x)
        assert type(got_u) is type(got_du) is np.float64
        np.testing.assert_allclose([got_u, got_du], [want_u, want_du],
                                   rtol=1e-15)
    assert u[0, 0] == prof.values[0] and du[0, 0] == 0.0
    assert abs(u[0, 2] / prof.values[-1] - 1.0) <= 1e-13
    assert abs(du[0, 2] / prof.dvalues[-1] - 1.0) <= 1e-13
    assert abs(du[1, 0] / du[0, 2] - 1.0) <= 1e-13
    assert np.all(u[1] > 0.0) and np.all(np.diff(u[1]) < 0.0)
    assert np.all(du[1] < 0.0)


def tail_table(kappa, dim, n=2001, r_max=20.0):
    """The exact decaying linear tail r^(-nu) K_nu(kappa r) as a table."""
    r = np.arange(n, dtype=float) * (r_max / (n - 1))
    values = np.ones(n)
    dvalues = np.zeros(n)
    values[1:], logderiv = nlsbump.radial._linear_tail(dim, kappa, r[1:])
    dvalues[1:] = values[1:] * logderiv
    return r, values, dvalues


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_rate_is_bisected_to_adjacent_floats(dim):
    # A table that is already the linear tail of rate 1.1 hands off at node
    # 1000 (r = 10) with v_a = 1; the rate found must bracket the root of
    # the log-derivative defect between itself and the next float.
    r, values, dvalues = tail_table(1.1, dim)
    r_s, target = r[1000], dvalues[1000] / values[1000]

    def defect(k):
        return float(nlsbump.radial._linear_tail(dim, k, r_s)[1]) - target

    kappa_t = nlsbump.radial._attach_tail(r, values, dvalues, 1001, 1.0, dim)
    assert defect(kappa_t) * defect(np.nextafter(kappa_t, np.inf)) <= 0.0
    assert abs(kappa_t - brentq(defect, 0.5, 1.5, xtol=1e-15)) <= 1e-13
    assert abs(kappa_t - 1.1) <= 1e-12


@pytest.mark.parametrize("rate", [5.0, 0.1])
def test_incompatible_hand_off_slope_is_a_convergence_error(rate):
    # u'/u = -rate at the switch node: no decaying tail with a rate in
    # [sqrt(v_a)/2, 3 sqrt(v_a)/2] matches it, too steep or too shallow.
    r = np.arange(2001, dtype=float) * 0.01
    values = np.exp(-rate * r)
    with pytest.raises(ConvergenceError,
                       match="tail hand-off slope is incompatible"):
        nlsbump.radial._attach_tail(r, values, -rate * values, 1001, 1.0, 1)


def test_radial_integral_against_closed_form(get_profile):
    # 1-D: integral of u^2 = 2 sech^2 over the line is 2 * 2 = 4 (v_a = 1,
    # p = 4), and integral of u^4 = 4 sech^4 is 4 * 4/3 = 16/3.
    prof = get_profile(1.0, 4.0, 1)
    m2 = radial_integral(prof, lambda u: u * u)
    m4 = radial_integral(prof, lambda u: u ** 4)
    assert abs(m2 - 4.0) < 1e-7
    assert abs(m4 - 16.0 / 3.0) < 1e-7


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_ground_state(1.0, 7.0, 3)  # supercritical
    with pytest.raises(DomainError):
        solve_ground_state(1.0, 6.0, 3)  # critical, still no ground state
    with pytest.raises(DomainError):
        solve_ground_state(1.0, 4.0, 4)
    with pytest.raises(DomainError):
        solve_ground_state(-1.0, 4.0, 1)
    with pytest.raises(DomainError):
        solve_ground_state(1.0, 2.0, 1)


@pytest.mark.parametrize("field,value", [
    ("v_a", math.nan), ("v_a", math.inf), ("p", math.nan), ("p", math.inf)])
def test_non_finite_shooting_numbers_are_domain_errors(field, value):
    args = {"v_a": 1.0, "p": 4.0, "dim": 1, field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        solve_ground_state(**args)


def test_default_step_falls_back_to_a_fine_coarse_pass(monkeypatch):
    # At (1, 6, 1) the bracket top reads as an undershoot at 8h = 8e-3, so
    # the coarse pass gives up after its 2 endpoint trials and bisects at
    # h (13 trials); u(0) still meets the closed form 3^(1/4).  Seeded
    # with that pass's tightest trials, the fine pass at h marches no
    # bracket end and runs 4 trials, not 8.
    counts = count_trials(monkeypatch)
    prof = solve_ground_state(1.0, 6.0, 1)
    assert dict(counts) == {8e-3: 2, 1e-3: 17, 2.5e-4: 4}
    assert abs(prof.values[0] - 3.0 ** 0.25) < 1e-12


@pytest.mark.xfail(strict=True, raises=BracketError)
def test_large_p_center_value_meets_the_closed_form():
    # RK4 is unstable at the bracket top 12 g for p = 8, at 8h and at h
    # alike, so both endpoints read as undershoots; the closed form is
    # u(0) = 4^(1/6).
    prof = solve_ground_state(1.0, 8.0, 1)
    assert abs(prof.values[0] - 4.0 ** (1.0 / 6.0)) < 1e-9


def test_negative_radius_is_a_domain_error(get_profile):
    with pytest.raises(DomainError):
        eval_profile(get_profile(1.0, 4.0, 1), -0.5)


def count_trials(monkeypatch):
    """Count _classify calls (bisection trials) per step size."""
    counts = collections.Counter()
    classify = nlsbump.radial._classify

    def counted(c, v_a, p, dim, h, r_max):
        counts[h] += 1
        return classify(c, v_a, p, dim, h, r_max)

    monkeypatch.setattr(nlsbump.radial, "_classify", counted)
    return counts


def test_refinement_bisects_only_at_the_kept_step(monkeypatch):
    # (1,5,3) fails its residual target at every step down to h_min; the
    # refined steps are judged with the u(0) carried from h = 1e-3, so no
    # trial runs at 6.25e-5 or 1.5625e-5 and the message is unchanged.
    counts = count_trials(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        solve_ground_state(1.0, 5.0, 3)
    assert str(info.value) == (
        "table residual 1.2e-05 still over target 5.22e-06 at ode_step "
        "1.56e-05; auto refinement exhausted")
    assert dict(counts) == {8e-3: 9, 1e-3: 8}


def test_refinement_pins_the_kept_step_once(monkeypatch):
    # (1,4,2) refines once; u(0) is bisected at the kept step 2.5e-4 from
    # the same bracket around the carried value as when every step was
    # bisected, seeded with the carried value's trial and one secant trial,
    # which straddle the flip: no bracket end is marched.
    counts = count_trials(monkeypatch)
    prof = solve_ground_state(1.0, 4.0, 2)
    assert dict(counts) == {8e-3: 14, 1e-3: 8, 2.5e-4: 4}
    assert prof.r_nodes[1] == 2.5e-4


def test_carried_table_breakdown_pins_and_rebuilds(get_profile, monkeypatch):
    # A carried u(0) whose table breaks down before the tail hand-off is
    # bisected at that step and the table rebuilt: the result is the
    # table of an undisturbed solve, bit for bit.
    ref = get_profile(1.0, 4.0, 2)
    attach = nlsbump.radial._attach_tail
    steps = []

    def breaks_once(r_nodes, *args):
        steps.append(r_nodes[1])
        if steps == [1e-3, 2.5e-4]:
            raise ConvergenceError("broke down")
        return attach(r_nodes, *args)

    monkeypatch.setattr(nlsbump.radial, "_attach_tail", breaks_once)
    counts = count_trials(monkeypatch)
    prof = solve_ground_state(1.0, 4.0, 2)
    assert steps == [1e-3, 2.5e-4, 2.5e-4]
    assert dict(counts) == {8e-3: 14, 1e-3: 8, 2.5e-4: 4}
    assert prof.values.tobytes() == ref.values.tobytes()
    assert prof.dvalues.tobytes() == ref.dvalues.tobytes()


def plain_bisect(lo, hi, v_a, p, dim, h, r_max, tol):
    """Bisection that marches every midpoint, the reference for _bisect."""
    f_lo = _classify(lo, v_a, p, dim, h, r_max)[0]
    f_hi = _classify(hi, v_a, p, dim, h, r_max)[0]
    if f_lo == f_hi:
        kind = "overshoot" if f_lo == _OVERSHOOT else "undershoot"
        raise BracketError(
            f"bracket ({lo:.6g}, {hi:.6g}) does not straddle: both "
            f"endpoints {kind}")
    if f_lo == _OVERSHOOT:
        lo, hi = hi, lo
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _classify(mid, v_a, p, dim, h, r_max)[0] == _OVERSHOOT:
            hi = mid
        else:
            lo = mid
    return lo, hi


def plain_march(c, v_a, p, dim, h, n_steps, floor, values=None,
                dvalues=None):
    """The RK4 stepper with one power-map call per stage, the reference for
    _march."""
    nl = power_map(p)
    nm1 = dim - 1.0
    r, i = h, 1
    half = 0.5 * h
    sixth = h / 6.0
    try:
        u, d = _series_start(c, v_a, p, dim, nl, h)
        if values is not None:
            values[0], dvalues[0] = c, 0.0
            values[1], dvalues[1] = u, d
        for i in range(2, n_steps + 2):
            k1u = d
            k1d = v_a * u - nl(u) - nm1 / r * d
            rm = r + half
            u2 = u + half * k1u
            d2 = d + half * k1d
            k2u = d2
            k2d = v_a * u2 - nl(u2) - nm1 / rm * d2
            u3 = u + half * k2u
            d3 = d + half * k2d
            k3u = d3
            k3d = v_a * u3 - nl(u3) - nm1 / rm * d3
            r4 = r + h
            u4 = u + h * k3u
            d4 = d + h * k3d
            k4u = d4
            k4d = v_a * u4 - nl(u4) - nm1 / r4 * d4
            u = u + sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
            d = d + sixth * (k1d + 2.0 * (k2d + k3d) + k4d)
            r = r4
            if values is not None:
                values[i] = u
                dvalues[i] = d
            if u < floor or d > 0.0:
                break
    except OverflowError:
        raise ConvergenceError(
            f"shooting trial from u(0) = {c:.6g} overflowed at ode_step "
            f"{h:.3g}") from None
    return u, d, r, i


def hexes(state):
    return [float(x).hex() for x in state]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [3.0, 4.0, 5.5])
def test_march_is_the_plain_stepper_bit_for_bit(dim, p):
    # Trials (no arrays, trial floor) and tables (arrays, tail floor) from
    # u(0) below, near and above the 1-D orbit g, at two steps; a table
    # march halted at the trial floor and resumed is the same march.
    g = (p / 2.0) ** (1.0 / (p - 2.0))
    for c in (0.9 * g, g, 1.7 * g, 3.0 * g):
        for h in (1e-2, 2.5e-3):
            n = int(round(20.0 / h)) - 1
            args = (c, 1.0, p, dim, h, n, _CLASSIFY_RATIO * c)
            assert hexes(_march(*args)) == hexes(plain_march(*args))
            want = np.full((2, n + 2), np.nan)
            state = plain_march(*args[:6], _TAIL_RATIO * c, *want)
            got = np.full((2, n + 2), np.nan)
            assert hexes(_march(*args[:6], _TAIL_RATIO * c, *got)) == hexes(
                state)
            assert got.tobytes() == want.tobytes()
            got[:] = np.nan
            end = _march(*args, *got)
            if not (end[0] < _TAIL_RATIO * c or end[1] > 0.0):
                end = _march(*args[:6], _TAIL_RATIO * c, *got, end)
            assert hexes(end) == hexes(state)
            assert got.tobytes() == want.tobytes()


def test_march_overflow_is_the_plain_steppers_error():
    args = (1000.0, 1.0, 5.5, 1, 0.2, 400, -math.inf)
    with pytest.raises(ConvergenceError) as plain:
        plain_march(*args)
    with pytest.raises(ConvergenceError, match=re.escape(str(plain.value))):
        _march(*args)
    assert "overflowed at ode_step 0.2" in str(plain.value)


def test_table_march_writes_nodes_in_place():
    # 1M+ nodes of the 1-D orbit into preallocated arrays: collecting them
    # in lists would allocate tens of MB; in place, the march needs a few
    # KB beyond its first (compiling) call.
    n = (1 << 20) + 5
    values, dvalues = np.empty(n + 2), np.empty(n + 2)
    _march(math.sqrt(2.0), 1.0, 4.0, 1, 1e-5, 4, 0.0, values, dvalues)
    (u, d, r, i), peak = traced_peak(_march, math.sqrt(2.0), 1.0, 4.0, 1,
                                     1e-5, n, 0.0, values, dvalues)
    assert i == n + 1 and u > 0.0 and d < 0.0
    assert peak <= 1 << 16
    assert abs(values[i] - soliton_1d(i * 1e-5, 4.0)) < 1e-9


def mp_linear_tail(dim, kappa, r):
    """_linear_tail at 40 digits, at the argument z = kappa r rounded to a
    float as _linear_tail rounds it: the exponential's sensitivity to that
    rounding, up to z ulps, is the argument's, not the formula's."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(dim - 2) / 2
        x, z = mpmath.mpf(float(r)), mpmath.mpf(float(kappa * r))
        k = mpmath.besselk(nu, z)
        dk = -(mpmath.besselk(nu - 1, z) + mpmath.besselk(nu + 1, z)) / 2
        return x ** -nu * k, -nu / x + mpmath.mpf(kappa) * dk / k


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linear_tail_matches_mpmath_and_scipy(dim):
    # Shape and log-derivative to a few ulps of 40-digit Bessel functions,
    # on scalars and on a block past a block edge whose z = kappa r spans
    # the K_0, K_1 series (z <= 1) and the trapezoid rule; scipy's kv/kvp
    # formula, whose numbers on the block are all normal, agrees to its
    # own accuracy.
    nu = (dim - 2) / 2.0
    kappa = 1.1
    rng = np.random.default_rng(dim)
    r = rng.uniform(0.4, 40.0, TABLE_BLOCK + 3)
    shape, logderiv = _linear_tail(dim, kappa, r)
    sample = np.concatenate([rng.choice(len(r), 48), [TABLE_BLOCK - 1,
                             TABLE_BLOCK, TABLE_BLOCK + 2],
                             np.flatnonzero(kappa * r <= 1.0)[:16]])
    scalars = [float(r[0]), 0.5, 1.0 / kappa, 0.95, 5.0, 600.0]
    pairs = [(x, shape[i], logderiv[i]) for i, x in zip(sample, r[sample])]
    pairs += [(x, *_linear_tail(dim, kappa, x)) for x in scalars]
    for x, got_shape, got_logderiv in pairs:
        want_shape, want_logderiv = mp_linear_tail(dim, kappa, x)
        assert abs(got_shape - want_shape) <= 2e-15 * want_shape, x
        assert abs(got_logderiv - want_logderiv) <= 2e-15 * abs(
            want_logderiv), x
    z = kappa * r
    want_shape = r ** (-nu) * kv(nu, z)
    want_logderiv = -nu / r + kappa * kvp(nu, z) / kv(nu, z)
    np.testing.assert_allclose(shape, want_shape, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(logderiv, want_logderiv, rtol=1e-13, atol=0.0)


def assert_bisections_match_plain(monkeypatch, v_a, p, dim):
    """Solve once, recording every _bisect call and every trial; each call
    must return plain bisection's bracket bit for bit (or raise the same
    error), and each trial's amplitude must have its kind's sign."""
    calls, trials = [], []
    bisect = nlsbump.radial._bisect

    def recorded_bisect(*args):
        try:
            calls.append((args, bisect(*args)))
        except (BracketError, ConvergenceError) as exc:
            calls.append((args, exc))
            raise
        return calls[-1][1]

    def recorded_classify(*args):
        trials.append(_classify(*args))
        return trials[-1]

    monkeypatch.setattr(nlsbump.radial, "_bisect", recorded_bisect)
    monkeypatch.setattr(nlsbump.radial, "_classify", recorded_classify)
    try:
        solve_ground_state(v_a, p, dim)
    except (BracketError, ConvergenceError):
        pass
    monkeypatch.undo()
    assert calls
    for args, out in calls:
        # Every seed is the trial _classify runs from its u(0), bit for bit:
        # the first is read off the table march, not marched again.
        for x, kind, amp in (args[8] if len(args) > 8 else ()):
            want_kind, want_amp = _classify(x, *args[2:7])
            assert (kind, amp.hex()) == (want_kind, want_amp.hex())
        if isinstance(out, Exception):
            with pytest.raises(type(out), match=re.escape(str(out))):
                plain_bisect(*args[:8])
        else:
            assert [x.hex() for x in plain_bisect(*args[:8])] == [
                x.hex() for x in out[:2]]
    for kind, amp in trials:
        assert math.copysign(1.0, amp) == -kind, (kind, amp)


@pytest.mark.parametrize("v_a,p,dim", [(1.0, 4.0, 1), (1.0, 4.0, 2),
                                       (1.21, 4.0, 2), (1.0, 6.0, 1),
                                       (4.0, 6.0, 1)])
def test_remembered_trials_bisect_bitwise_like_plain_bisection(
        v_a, p, dim, monkeypatch):
    assert_bisections_match_plain(monkeypatch, v_a, p, dim)


@settings(max_examples=4, deadline=None)
@given(v_a=st.floats(0.25, 4.0), p=st.floats(2.5, 6.5))
def test_remembered_trials_match_plain_bisection_in_dim1(v_a, p):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_bisections_match_plain(monkeypatch, v_a, p, 1)


# A synthetic table longer than 1M nodes: the decaying linear tail of
# kappa = 1, exp(-r)/r in dim 3 and K_0(r) in dim 2, which _attach_tail
# reproduces with kappa_t = 1.
LONG_NODES = 16 * TABLE_BLOCK + 5


def long_table(dim=3):
    r = np.arange(LONG_NODES, dtype=float) * (20.0 / (LONG_NODES - 1))
    values = np.empty(LONG_NODES)
    values[0] = 1.0
    dvalues = np.empty(LONG_NODES)
    dvalues[0] = 0.0
    if dim == 2:
        values[1:], dvalues[1:] = kv(0, r[1:]), -kv(1, r[1:])
    else:
        values[1:] = np.exp(-r[1:]) / r[1:]
        dvalues[1:] = -(1.0 + 1.0 / r[1:]) * values[1:]
    return r, values, dvalues


def reference_residual(r_nodes, values, v_a, p, dim):
    """The residual on the whole table at once, which the blockwise sup
    must match bit for bit."""
    h = r_nodes[1] - r_nodes[0]
    u = values
    lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    first = (u[2:] - u[:-2]) / (2.0 * h)
    r = r_nodes[1:-1]
    um = u[1:-1]
    return lap + (dim - 1.0) / r * first - v_a * um + power_map(p)(um)


def traced_peak(fn, *args):
    """(result, peak bytes allocated above the entry level) of fn(*args)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_residual_sup_streams_in_blocks():
    # The whole-table residual allocated 4-5 table lengths (49 MB at the
    # finest auto step); the blockwise sup needs a few blocks.
    r, values, _ = long_table()
    sup, peak = traced_peak(profile_ode_residual, r, values, 1.0, 4.0, 3)
    assert peak <= 8 * 8 * TABLE_BLOCK
    assert sup == np.max(np.abs(reference_residual(r, values, 1.0, 4.0, 3)))


def test_attach_tail_streams_in_blocks():
    # The switch node is 1000; the tail covers the other 16 blocks, which
    # took about 5 table lengths of temporaries as whole arrays.  In dim 2
    # the tail is K_0(r), whose trapezoid rule runs node by node in place.
    for dim in (3, 2):
        r, values, dvalues = long_table(dim)
        exact, dexact = values[1000:].copy(), dvalues[1000:].copy()
        kappa_t, peak = traced_peak(nlsbump.radial._attach_tail, r, values,
                                    dvalues, 1001, 1.0, dim)
        assert peak <= 8 * 8 * TABLE_BLOCK
        assert abs(kappa_t - 1.0) < 1e-9
        assert np.max(np.abs(values[1000:] - exact)) <= 1e-12 * exact[0]
        assert np.max(np.abs(dvalues[1000:] - dexact)) <= 1e-12 * abs(
            dexact[0])


@pytest.mark.parametrize("n", [3, TABLE_BLOCK + 1, TABLE_BLOCK + 2,
                               TABLE_BLOCK + 3])
def test_residual_sup_covers_every_interior_node(n):
    # Block edges: the largest defect sits on the last interior node, the
    # one a block boundary or a missing halo would drop; a NaN anywhere
    # propagates.
    r = np.arange(n, dtype=float)
    values = np.zeros(n)
    values[-2] = 1.0
    assert profile_ode_residual(r, values, 1.0, 4.0, 1) == np.max(np.abs(
        reference_residual(r, values, 1.0, 4.0, 1)))
    values[n // 2] = math.nan
    assert math.isnan(profile_ode_residual(r, values, 1.0, 4.0, 1))
