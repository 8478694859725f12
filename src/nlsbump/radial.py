"""Positive radial ground-state profiles by shooting.

Solves  u'' + (dim-1)/r u' = v_a u - u^(p-1)  on [0, r_max] with u'(0) = 0,
looking for the positive decreasing solution that decays like
exp(-sqrt(v_a) r) r^(-(dim-1)/2).  The shooting parameter is u(0): too large
and the trajectory crosses zero (overshoot), too small and it turns back up
(undershoot).  Bisection on u(0) pins the connecting orbit.

One fixed-step RK4 stepper, _march, integrates every trajectory outward
from a series start at r = h.  It stops after the first step that ends
with u below a floor or u' > 0, and records the nodes only when it is
handed arrays.  A bisection trial marches without arrays to a low floor
and is classified from the state it ends in; the final table marches with
arrays to a higher floor, where the analytic tail takes over.

Because the connecting orbit is exponentially unstable, the final table is
genuine integration out to a switch radius and an analytic exponential tail
beyond it, joined with matching value and derivative.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import math
import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import kv, kvp

from .errors import BracketError, ConvergenceError, DomainError
from .grid import power_map

# Trial classification constants. A trial is abandoned early once u drops to
# _CLASSIFY_RATIO * u(0): by then the trajectory is deep in the linear tail
# and the sign of the growing-mode amplitude tells over- from undershoot.
_CLASSIFY_RATIO = 1e-4
# A trial that turns upward while u is still above _TURN_RATIO * u(0) is an
# undershoot outright; below that, the tail comparison decides.
_TURN_RATIO = 1e-6
# The genuine table is kept until u falls to _TAIL_RATIO * u(0); past that the
# accumulated amplification of the bisection error would pollute the values.
_TAIL_RATIO = 1e-5
_RESIDUAL_TARGET = 1e-6  # relative to max(values), drives auto step refinement
_OVERSHOOT, _UNDERSHOOT = 1, -1


@dataclass
class ShootingConfig:
    """Knobs for the shooting solve.

    r_max and ode_step default to None, which means: pick r_max as
    10/sqrt(v_a) + 10 and start from step 1e-3/max(1, sqrt(v_a)), halving it
    until the finite-difference residual of the table meets the target.  An
    explicit ode_step is honored exactly (no refinement), which is what the
    step-halving convergence tests rely on.
    """

    r_max: Optional[float] = None
    ode_step: Optional[float] = None
    bracket_lo: Optional[float] = None
    bracket_hi: Optional[float] = None
    bisect_tol: float = 1e-13


@dataclass
class RadialProfile:
    """Tabulated ground-state profile on a uniform radial mesh.

    values[i] = U(r_nodes[i]), dvalues[i] = U'(r_nodes[i]); decay_rate is the
    fitted exponential rate (close to sqrt(v_a)).  Treat instances as
    read-only once returned by solve_ground_state.
    """

    v_a: float
    p: float
    dim: int
    r_nodes: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    decay_rate: float

    def __post_init__(self):
        self._spline = None
        self._dspline = None

    @property
    def r_max(self) -> float:
        return float(self.r_nodes[-1])

    def _interpolants(self):
        if self._spline is None:
            self._spline = CubicHermiteSpline(self.r_nodes, self.values,
                                              self.dvalues)
            self._dspline = self._spline.derivative()
        return self._spline, self._dspline


def _linear_tail_logderiv(dim: int, kappa: float, r) -> np.ndarray:
    """u'/u of the decaying solution of u'' + (dim-1)/r u' = kappa^2 u.

    That solution is r^(-nu) K_nu(kappa r) with nu = (dim-2)/2, exact in any
    dimension, so using it avoids the O(1/r^2) error a plain
    -kappa - (dim-1)/(2 r) ansatz would commit (which matters for dim = 2).
    """
    nu = (dim - 2) / 2.0
    z = kappa * np.asarray(r, dtype=float)
    return -nu / np.asarray(r, dtype=float) + kappa * kvp(nu, z) / kv(nu, z)


def _linear_tail_values(dim: int, kappa: float, r) -> np.ndarray:
    """r^(-nu) K_nu(kappa r), the decaying linear-tail shape (unnormalized)."""
    nu = (dim - 2) / 2.0
    r = np.asarray(r, dtype=float)
    return r ** (-nu) * kv(nu, kappa * r)


def _series_start(c: float, v_a: float, p: float, dim: int,
                  nl, r0: float) -> Tuple[float, float]:
    """Fourth-order series for (u, u') at small r0 > 0."""
    f0 = v_a * c - nl(c)
    fp0 = v_a - (p - 1.0) * abs(c) ** (p - 2.0)
    a2 = f0 / (2.0 * dim)
    a4 = a2 * fp0 / (4.0 * (dim + 2.0))
    u = c + a2 * r0 * r0 + a4 * r0 ** 4
    d = 2.0 * a2 * r0 + 4.0 * a4 * r0 ** 3
    return u, d


def _march(c: float, v_a: float, p: float, dim: int, h: float,
           n_steps: int, floor: float, values: Optional[np.ndarray] = None,
           dvalues: Optional[np.ndarray] = None
           ) -> Tuple[float, float, float, int]:
    """RK4 from the series start at r = h, for at most n_steps steps of h.

    Stops after the first step that ends with u < floor or u' > 0.  Given
    arrays, writes node i (r = i h) of the trajectory into values[i] and
    dvalues[i] for every node it reaches.  Returns (u, u', r, i) at the
    node it ends on.
    """
    nl = power_map(p)
    nm1 = dim - 1.0
    u, d = _series_start(c, v_a, p, dim, nl, h)
    if values is not None:
        values[0], dvalues[0] = c, 0.0
        values[1], dvalues[1] = u, d
    r = h
    i = 1
    half = 0.5 * h
    sixth = h / 6.0
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
    return u, d, r, i


def _classify(c: float, v_a: float, p: float, dim: int, h: float,
              r_max: float) -> int:
    """Integrate one trial and report overshoot (+1) or undershoot (-1)."""
    n_steps = int(math.ceil((r_max - h) / h))
    u, d, r, _ = _march(c, v_a, p, dim, h, n_steps, _CLASSIFY_RATIO * c)
    if u < 0.0:
        return _OVERSHOOT
    if d > 0.0 and u > _TURN_RATIO * c:
        return _UNDERSHOOT
    # Deep in the linear tail (or at r_max): compare u'/u against the exact
    # decaying branch; a positive defect means the trajectory decays too
    # slowly, i.e. carries a positive growing-mode amplitude (undershoot).
    s = d - u * float(_linear_tail_logderiv(dim, math.sqrt(v_a), r))
    return _UNDERSHOOT if s >= 0.0 else _OVERSHOOT


def _attach_tail(r_nodes: np.ndarray, values: np.ndarray,
                 dvalues: np.ndarray, i_stop: int, v_a: float,
                 dim: int) -> float:
    """Replace entries from a switch index on by the matched analytic tail.

    The switch point is i_stop itself when the integration simply reached the
    hand-off ratio, or a safe distance before i_stop if it actually broke
    down (sign change of u or u').  The tail is the exact decaying solution
    of the linearized equation, r^(-nu) K_nu(kappa_t r), with kappa_t chosen
    so value and derivative both match at the switch node; it therefore
    introduces no kink and only an O((kappa_t^2 - v_a) u) residual.  Returns
    kappa_t.
    """
    kappa = math.sqrt(v_a)
    h = r_nodes[1] - r_nodes[0]
    i_sw = i_stop - 1
    broke = i_stop < len(values) and (values[i_stop] <= 0.0
                                      or dvalues[i_stop] >= 0.0)
    if broke:
        i_sw = max(2, i_stop - int(math.ceil(5.0 / (kappa * h))))
    if i_sw < 2 or values[i_sw] <= 0.0 or dvalues[i_sw] >= 0.0:
        raise ConvergenceError(
            "shooting trajectory broke down before a clean tail hand-off; "
            "tighten bisect_tol or shrink r_max")
    r_s = r_nodes[i_sw]
    u_s = values[i_sw]
    target = dvalues[i_sw] / u_s

    def defect(k):
        return float(_linear_tail_logderiv(dim, k, r_s)) - target

    try:
        kappa_t = brentq(defect, 0.5 * kappa, 1.5 * kappa, xtol=1e-13)
    except ValueError as exc:
        raise ConvergenceError(
            "tail hand-off slope is incompatible with exponential decay "
            f"near rate sqrt(v_a) = {kappa:.4g}") from exc
    tail_r = r_nodes[i_sw:]
    shape = _linear_tail_values(dim, kappa_t, tail_r)
    scale = u_s / shape[0]
    values[i_sw:] = scale * shape
    dvalues[i_sw:] = values[i_sw:] * _linear_tail_logderiv(dim, kappa_t,
                                                           tail_r)
    return kappa_t


def _default_bracket(v_a: float, p: float) -> Tuple[float, float]:
    # The 1-D center value (p v_a / 2)^(1/(p-2)) is a strict lower bound for
    # the higher-dimensional ones, which stay within a modest factor of it.
    g = (p * v_a / 2.0) ** (1.0 / (p - 2.0))
    return 0.3 * g, 12.0 * g


def solve_ground_state(v_a: float, p: float, dim: int,
                       config: Optional[ShootingConfig] = None
                       ) -> RadialProfile:
    """Shoot for the positive decreasing radial ground state.

    Raises DomainError for unsupported (v_a, p, dim), BracketError when the
    bracket fails to straddle, and ConvergenceError when bisection or the
    table construction cannot meet tolerance.
    """
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2, or 3, got {dim}")
    if not v_a > 0.0:
        raise DomainError(f"v_a must be positive, got {v_a}")
    if not p > 2.0:
        raise DomainError(f"p must exceed 2, got {p}")
    if dim == 3 and p >= 6.0:
        raise DomainError(
            f"p = {p} is supercritical in dim 3 (needs p < 6); no ground "
            "state exists")
    cfg = config if config is not None else ShootingConfig()
    kappa = math.sqrt(v_a)
    r_max = cfg.r_max if cfg.r_max is not None else 10.0 / kappa + 10.0
    if r_max <= 0.0:
        raise DomainError(f"r_max must be positive, got {r_max}")
    lo, hi = cfg.bracket_lo, cfg.bracket_hi
    d_lo, d_hi = _default_bracket(v_a, p)
    if lo is None:
        lo = d_lo
    if hi is None:
        hi = d_hi
    if not 0.0 < lo < hi:
        raise BracketError(f"need 0 < bracket_lo < bracket_hi, got ({lo}, {hi})")
    if cfg.bisect_tol <= 0.0:
        raise DomainError("bisect_tol must be positive")

    auto_step = cfg.ode_step is None
    h = (1e-3 / max(1.0, kappa)) if auto_step else float(cfg.ode_step)
    if h <= 0.0 or h > r_max / 16.0:
        raise DomainError(f"ode_step {h} unusable for r_max {r_max}")

    def bisect(lo, hi, step, tol):
        f_lo = _classify(lo, v_a, p, dim, step, r_max)
        f_hi = _classify(hi, v_a, p, dim, step, r_max)
        if f_lo == f_hi:
            kind = "overshoot" if f_lo == _OVERSHOOT else "undershoot"
            raise BracketError(
                f"bracket ({lo:.6g}, {hi:.6g}) does not straddle: both "
                f"endpoints {kind}")
        if f_lo == _OVERSHOOT:
            # Conventional orientation: lo undershoots, hi overshoots.
            lo, hi = hi, lo
        while abs(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if _classify(mid, v_a, p, dim, step, r_max) == _OVERSHOOT:
                hi = mid
            else:
                lo = mid
        return lo, hi

    # Coarse pass narrows the bracket cheaply; the fine pass makes u(0)
    # consistent with the step the table is built with.
    coarse_tol = max(cfg.bisect_tol, 1e-3 * d_lo)
    try:
        lo, hi = bisect(lo, hi, 8.0 * h, coarse_tol)
    except BracketError:
        # A large explicit step makes 8h too coarse to classify the ends.
        lo, hi = bisect(lo, hi, h, coarse_tol)
    pad = 4.0 * max(abs(hi - lo), 1e-7 * max(abs(lo), abs(hi)))
    lo, hi = bisect(min(lo, hi) - pad, max(lo, hi) + pad, h, cfg.bisect_tol)
    c = 0.5 * (lo + hi)

    h_min = h / 64.0
    for round_ in range(5):
        n_nodes = int(round(r_max / h)) + 1
        r_nodes = np.arange(n_nodes) * h
        values, dvalues = np.empty(n_nodes), np.empty(n_nodes)
        floor = _TAIL_RATIO * c
        u, d, _, i = _march(c, v_a, p, dim, h, n_nodes - 2, floor, values,
                            dvalues)
        # i_stop: the first node no longer trusted (u fell below the floor,
        # crossed zero or turned upward), or n_nodes if none stopped it.
        i_stop = i if u < floor or d > 0.0 else n_nodes
        _attach_tail(r_nodes, values, dvalues, i_stop, v_a, dim)
        res = float(np.max(np.abs(profile_ode_residual(
            r_nodes, values, v_a, p, dim))))
        target = _RESIDUAL_TARGET * values[0]
        if not auto_step or res <= 0.8 * target:
            break
        if round_ == 4 or h <= h_min:
            raise ConvergenceError(
                f"table residual {res:.3g} still over target {target:.3g} "
                f"at ode_step {h:.3g}; auto refinement exhausted")
        shrink = 2 ** int(math.ceil(math.log2(math.sqrt(res / (0.5 * target)))))
        h /= min(16, max(2, shrink))
        h = max(h, h_min)
        # Re-pin u(0) against the finer step; the connecting value moves by
        # O(h^4) so a slim pad almost always straddles, but widen if not.
        for pad in (1e-7 * c, 1e-5 * c, 1e-3 * c):
            try:
                lo, hi = bisect(c - pad, c + pad, h, cfg.bisect_tol)
                break
            except BracketError:
                continue
        else:
            raise BracketError(
                "could not re-bracket the shooting value after step refinement")
        c = 0.5 * (lo + hi)

    if np.any(values <= 0.0) or np.any(np.diff(values) >= 0.0):
        raise ConvergenceError(
            "profile is not strictly positive and decreasing; shooting "
            "tolerance too loose for this (v_a, p, dim)")

    profile = RadialProfile(v_a=v_a, p=p, dim=dim, r_nodes=r_nodes,
                            values=values, dvalues=dvalues, decay_rate=0.0)
    decay_rate(profile, (0.3 * r_max, 0.5 * r_max))
    return profile


def profile_ode_residual(r_nodes: np.ndarray, values: np.ndarray,
                         v_a: float, p: float, dim: int) -> np.ndarray:
    """Central-difference residual of the radial ODE at interior nodes."""
    h = r_nodes[1] - r_nodes[0]
    u = values
    lap = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    first = (u[2:] - u[:-2]) / (2.0 * h)
    r = r_nodes[1:-1]
    um = u[1:-1]
    return lap + (dim - 1.0) / r * first - v_a * um + power_map(p)(um)


def ode_residual(profile: RadialProfile) -> np.ndarray:
    """Residual of a profile's own table (see profile_ode_residual)."""
    return profile_ode_residual(profile.r_nodes, profile.values,
                                profile.v_a, profile.p, profile.dim)


def decay_rate(profile: RadialProfile,
               window: Optional[Tuple[float, float]] = None) -> float:
    """Fit the exponential decay rate over a radial window and store it.

    Least squares on log(U(r) r^((dim-1)/2)) against r; the magnitude of the
    slope is the rate.  The window must lie inside the table and contain only
    positive samples.
    """
    r_hi = profile.r_max
    if window is None:
        window = (0.3 * r_hi, 0.5 * r_hi)
    w0, w1 = window
    if not 0.0 <= w0 < w1 <= r_hi:
        raise DomainError(
            f"fit window ({w0}, {w1}) must satisfy 0 <= w0 < w1 <= {r_hi}")
    mask = (profile.r_nodes >= w0) & (profile.r_nodes <= w1)
    if int(mask.sum()) < 4:
        raise DomainError("fit window contains fewer than 4 table nodes")
    r = profile.r_nodes[mask]
    u = profile.values[mask]
    if np.any(u <= 0.0):
        raise DomainError("fit window contains nonpositive profile values")
    beta = (profile.dim - 1) / 2.0
    y = np.log(u * r ** beta) if beta else np.log(u)
    slope = np.polyfit(r, y, 1)[0]
    rate = float(abs(slope))
    profile.decay_rate = rate
    return rate


def eval_profile(profile: RadialProfile, r) -> np.ndarray:
    """Evaluate U at radii r >= 0 (scalar or array).

    Cubic Hermite interpolation of the table inside [0, r_max]; beyond that,
    the exponential tail C exp(-decay_rate r) r^(-(dim-1)/2) matched
    continuously at r_max.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise DomainError("radii must be nonnegative")
    spline, _ = profile._interpolants()
    out = np.empty(r_arr.shape, dtype=float)
    inside = r_arr <= profile.r_max
    if np.any(inside):
        out[inside] = spline(r_arr[inside])
    if not np.all(inside):
        out[~inside] = _tail_values(profile, r_arr[~inside])
    return out if out.shape else out[()]


def eval_profile_deriv(profile: RadialProfile, r) -> np.ndarray:
    """Evaluate U' at radii r >= 0 (scalar or array)."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise DomainError("radii must be nonnegative")
    _, dspline = profile._interpolants()
    out = np.empty(r_arr.shape, dtype=float)
    inside = r_arr <= profile.r_max
    if np.any(inside):
        out[inside] = dspline(r_arr[inside])
    if not np.all(inside):
        ro = r_arr[~inside]
        beta = (profile.dim - 1) / 2.0
        out[~inside] = -(profile.decay_rate + beta / ro) * _tail_values(
            profile, ro)
    return out if out.shape else out[()]


def _tail_values(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    beta = (profile.dim - 1) / 2.0
    r_m = profile.r_max
    u_m = profile.values[-1]
    scale = (r / r_m) ** (-beta) if beta else 1.0
    return u_m * np.exp(-profile.decay_rate * (r - r_m)) * scale


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
