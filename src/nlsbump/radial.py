"""Positive radial ground-state profiles by shooting.

Solves  u'' + (dim-1)/r u' = v_a u - u^(p-1)  on [0, r_max] with u'(0) = 0,
looking for the positive decreasing solution that decays like
exp(-sqrt(v_a) r) r^(-(dim-1)/2).  The shooting parameter is u(0): too large
and the trajectory crosses zero (overshoot), too small and it turns back up
(undershoot).  Bisection on u(0) pins the connecting orbit.  It remembers
its trials (_bisect): a midpoint more than max(tol/8, 32 ulps) beyond the
tightest undershoot or overshoot so far takes that kind unmarched.  The kind
flips once (the ground state is unique) and RK4 roundoff blurs it only within
a few ulps, so the bracket and every table are bitwise plain bisection's.
Illinois regula falsi on the growing-mode amplitude (midpoints while the
bracket is wider than its centre), then a trial a quarter tolerance either
side of its root where that tightens them, first make the remembered trials
tight.

One fixed-step RK4 stepper, _march, integrates every trajectory outward
from a series start at r = h, in a loop compiled per power-map form.  It
stops after the first step that ends with u below a floor or u' > 0, and
records the nodes only when it is handed arrays.  A bisection trial marches
without arrays to a low floor and is classified from the state it ends in;
the final table marches with arrays to a higher floor, where the analytic
tail takes over.  A finer step reuses u(0); it is bisected again only at the
step whose table is kept, seeded with the carried u(0)'s trial, read off
that step's table march, and one secant trial past the flip.

Because the connecting orbit is exponentially unstable, the final table is
genuine integration out to a switch radius and an analytic exponential tail
beyond it, joined with matching value and derivative.  Its Bessel
functions are numpy's own (_linear_tail, DLMF 10.31, 10.32.9, 10.39.2).

The policy is fixed: the table spans [0, 10/sqrt(v_a) + 10], and the
step starts at 1e-3/max(1, sqrt(v_a)) and shrinks until the table's
finite-difference residual meets its target.

A table reaches about 1.3M nodes at the finest auto step, so every
full-length pass over it (the tail, the residual check, the CSV writer)
works on at most TABLE_BLOCK nodes at a time: the transient memory is a few
blocks instead of several table lengths, and every node gets the same
arithmetic.

eval_profile returns U and U' from the table's cubic Hermite interpolant
(the two nodes around each radius; nothing is cached) and, past r_max, from
the tail the table ends on, U(r_max) t(r)/t(r_max) with t = r^(-nu)
K_nu(decay_rate r), the one model of the tail.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import functools
import math
import re
import numpy as np

from .errors import BracketError, ConvergenceError, DomainError
from .grid import power_map, power_source

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
_BISECT_TOL = 1e-13  # bracket width at which bisection on u(0) stops
_OVERSHOOT, _UNDERSHOOT = 1, -1
TABLE_BLOCK = 1 << 16  # nodes per block of every full pass over a table


@dataclass(frozen=True)
class RadialProfile:
    """Tabulated ground-state profile on a uniform radial mesh.

    values[i] = U(r_nodes[i]), dvalues[i] = U'(r_nodes[i]); decay_rate is
    kappa_t, the rate of the linear tail r^(-nu) K_nu(kappa_t r) that the
    table ends on, matched in value and slope at the hand-off node (close
    to sqrt(v_a)); evaluation past r_max continues that tail.  It holds no
    cache: every evaluation reads the table.
    """

    v_a: float
    p: float
    dim: int
    r_nodes: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    decay_rate: float

    @property
    def r_max(self) -> float:
        return float(self.r_nodes[-1])


def _linear_tail(dim: int, kappa: float, r) -> Tuple[np.ndarray, np.ndarray]:
    """r^(-nu) K_nu(kappa r), nu = (dim-2)/2, and its log-derivative u'/u.

    That is the decaying solution of u'' + (dim-1)/r u' = kappa^2 u, exact
    in any dimension, so using it avoids the O(1/r^2) error a plain
    -kappa - (dim-1)/(2 r) ansatz would commit (which matters for dim = 2).
    In dims 1 and 3 that ansatz is exact (K_1/2, K_3/2: DLMF 10.39.2).
    """
    r = np.asarray(r, dtype=float)
    if dim == 2:
        shape, ratio = _bessel_k01(kappa * r)
        return shape, -kappa * ratio
    shape = np.exp(-kappa * r) * math.sqrt(0.5 * math.pi / kappa)
    if dim == 1:
        return shape, np.full(r.shape, -kappa)
    return shape / r, -kappa - 1.0 / r


# z > 1: K_n(z) = 2 e^(-z) int_0^inf e^(-w^2) T_n(1 + w^2/z) / sqrt(w^2 + 2z)
# dw (DLMF 10.32.9, cosh t = 1 + w^2/z), T_0 = 1, T_1(c) = c, whose step-0.2
# trapezoid rule on [0, 6.6) is exact to roundoff; smallest terms first.
_TRAP_W2 = (0.2 * np.arange(32, -1, -1)) ** 2
_TRAP_WEIGHTS = 0.4 * np.exp(-_TRAP_W2) / (1.0 + (_TRAP_W2 == 0.0))


def _bessel_k01(z) -> Tuple[np.ndarray, np.ndarray]:
    """K_0(z) and K_1(z)/K_0(z) for z > 0 (a float or an array)."""
    if z.ndim == 0:
        if z <= 1.0:
            return _series_k01(z)
        terms = _TRAP_WEIGHTS / np.sqrt(_TRAP_W2 + 2.0 * z)
        k0 = terms.sum()
        return k0 * math.exp(-z), 1.0 + (terms @ _TRAP_W2) / (z * k0)
    small = z <= 1.0  # series first: at most 7 arrays of z's size at once
    series = _series_k01(z[small]) if small.any() else None
    k0, s1, t = np.zeros_like(z), np.zeros_like(z), np.empty_like(z)
    for w2, weight in zip(_TRAP_W2, _TRAP_WEIGHTS):
        np.sqrt(np.add(w2, np.multiply(z, 2.0, out=t), out=t), out=t)
        k0 += np.divide(weight, t, out=t)
        s1 += np.multiply(t, w2, out=t)
    s1 /= np.multiply(z, k0, out=t)
    s1 += 1.0
    k0 *= np.exp(np.negative(z, out=t), out=t)
    if series is not None:
        k0[small], s1[small] = series
    return k0, s1


def _series_k01(z) -> Tuple[np.ndarray, np.ndarray]:
    """K_0(z) and K_1(z)/K_0(z) for 0 < z <= 1: the ascending series
    (DLMF 10.31.2, 10.31.1) to 12 terms, psi(k+1) = H_k - gamma."""
    log_half, psi = np.log(0.5 * z), -0.5772156649015329
    k0, k1, term = 0.0 * z, 0.0 * z, 1.0 + 0.0 * z
    for k in range(1, 13):
        k0 += term * (psi - log_half)  # q^(k-1) / (k-1)!^2, q = z^2/4
        term /= k
        k1 += term * (log_half - psi - 0.5 / k)
        psi += 1.0 / k
        term *= 0.25 * z * z / k
    return k0, (1.0 / z + 0.5 * z * k1) / k0


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


# The RK4 loop of _march: NL(x) becomes grid.power_source's expression and
# TABLE the node writes, so a step calls no function.  Each stage does the
# plain RK4 step's arithmetic in its order; g = (dim-1)/r is carried over.
_LOOP = """
def loop(u, d, r, i, stop, v_a, h, nm1, em, floor, values, dvalues):
    half, sixth, g = 0.5 * h, h / 6.0, nm1 / r
    for i in range(i + 1, stop):
        k1d = v_a * u - NL(u) - g * d
        gm = nm1 / (r + half)
        u2, d2 = u + half * d, d + half * k1d
        k2d = v_a * u2 - NL(u2) - gm * d2
        u3, d3 = u + half * d2, d + half * k2d
        k3d = v_a * u3 - NL(u3) - gm * d3
        r = r + h
        g = nm1 / r
        u4, d4 = u + h * d3, d + h * k3d
        k4d = v_a * u4 - NL(u4) - g * d4
        u = u + sixth * (d + 2.0 * (d2 + d3) + d4)
        d = d + sixth * (k1d + 2.0 * (k2d + k3d) + k4d)
        TABLE
        if u < floor or d > 0.0:
            break
    return u, d, r, i
"""


@functools.lru_cache(maxsize=None)
def _loop(nl: str, table: bool):
    """_LOOP with power-map expression nl, writing nodes if table is set."""
    src = re.sub(r"NL\((\w+)\)",
                 lambda m: "(%s)" % re.sub(r"\bu\b", m[1], nl), _LOOP)
    space = {}
    exec(src.replace("TABLE", "values[i], dvalues[i] = u, d" if table
                     else ""), space)
    return space["loop"]


def _march(c: float, v_a: float, p: float, dim: int, h: float,
           n_steps: int, floor: float, values: Optional[np.ndarray] = None,
           dvalues: Optional[np.ndarray] = None, state=None
           ) -> Tuple[float, float, float, int]:
    """RK4 from the series start at r = h, up to node n_steps + 1.

    Stops after the first step that ends with u < floor or u' > 0, and
    raises ConvergenceError if the state overflows.  Given arrays, writes
    node i (r = i h) of the trajectory into values[i] and dvalues[i] for
    every node it reaches.  Returns (u, u', r, i) at the node it ends on.
    state, the (u, u', r, i) an earlier march from c at step h ended on,
    resumes that march, with the same bits as one uninterrupted march.
    """
    # A trajectory far above the orbit can outgrow a float: abs(u) ** em
    # raises where a product would give inf.
    try:
        if state is None:
            u, d = _series_start(c, v_a, p, dim, power_map(p), h)
            state = (u, d, h, 1)
            if values is not None:
                values[0], dvalues[0] = c, 0.0
                values[1], dvalues[1] = u, d
        return _loop(power_source(p), values is not None)(
            *state, n_steps + 2, v_a, h, dim - 1.0, p - 2.0, floor, values,
            dvalues)
    except OverflowError:
        raise ConvergenceError(
            f"shooting trial from u(0) = {c:.6g} overflowed at ode_step "
            f"{h:.3g}") from None


def _classify(c: float, v_a: float, p: float, dim: int, h: float,
              r_max: float) -> Tuple[int, float]:
    """Integrate one trial; return overshoot (+1) or undershoot (-1) and the
    growing-mode amplitude at the stop radius, positive for an undershoot."""
    n_steps = int(math.ceil((r_max - h) / h))
    return _judge(c, *_march(c, v_a, p, dim, h, n_steps,
                             _CLASSIFY_RATIO * c)[:3], v_a, dim)


def _judge(c: float, u: float, d: float, r: float, v_a: float,
           dim: int) -> Tuple[int, float]:
    """_classify's verdict on a trial from c that stopped at (u, u', r)."""
    # In the linear tail the defect s of u'/u against the decaying branch
    # decides; s r^(dim-1) times that branch is the growing-mode amplitude.
    shape, logderiv = _linear_tail(dim, math.sqrt(v_a), r)
    s = d - u * float(logderiv)
    amp = s * r ** (dim - 1) * float(shape)
    kind = _UNDERSHOOT if s >= 0.0 else _OVERSHOOT
    if u < 0.0 or (d > 0.0 and u > _TURN_RATIO * c):
        kind = _OVERSHOOT if u < 0.0 else _UNDERSHOOT
    return kind, math.copysign(amp, -kind)


def _bisect(lo: float, hi: float, v_a: float, p: float, dim: int,
            h: float, r_max: float, tol: float, seeds=()
            ) -> Tuple[float, float, float, list]:
    """Bisect u(0) on (lo, hi) at step h to width tol, remembering trials;
    returns plain bisection's (lo, hi), lo an undershoot, bit for bit, the
    amplitude's slope in u(0) over the last pair of kinds 1024 margins
    apart and the tightest trial of each kind (as seeds).  seeds: (u(0),
    kind, amplitude) of trials already run at step h; if those more than
    the margin inside (lo, hi) show both kinds more than the margin apart,
    the ends take their sides' kinds (the kind flips once) unmarched."""
    margin = max(0.125 * tol, 32.0 * math.ulp(max(abs(lo), abs(hi))))
    inside = {k: x for x, k, _ in seeds
              if min(lo, hi) + margin < x < max(lo, hi) - margin}
    straddle = len(inside) == 2 and abs(
        inside[_UNDERSHOOT] - inside[_OVERSHOOT]) > margin
    ends = [] if straddle else [
        (x, *_classify(x, v_a, p, dim, h, r_max)) for x in (lo, hi)]
    if ends and ends[0][1] == ends[1][1]:
        kind = "overshoot" if ends[0][1] == _OVERSHOOT else "undershoot"
        raise BracketError(
            f"bracket ({lo:.6g}, {hi:.6g}) does not straddle: both "
            f"endpoints {kind}")
    if (ends[0][1] == _OVERSHOOT if ends else
            (inside[_UNDERSHOOT] < inside[_OVERSHOOT]) != (lo < hi)):
        # Conventional orientation: lo undershoots, hi overshoots.
        lo, hi = hi, lo
    sign = 1.0 if hi > lo else -1.0
    # tight[kind]: [u(0), Illinois amplitude, amplitude] nearest the flip.
    tight, slopes = {}, []

    def remember(x, kind, amp):
        if kind not in tight or kind * sign * (tight[kind][0] - x) > 0.0:
            tight[kind] = [x, amp, amp]
            other = tight.get(-kind)
            if other and (not slopes or abs(other[0] - x) > 1024.0 * margin):
                slopes.append((other[2] - amp) / (other[0] - x))
        return kind

    for seed in ends + list(seeds):
        remember(*seed)

    def trial(x):
        return remember(x, *_classify(x, v_a, p, dim, h, r_max))

    # At most 8 Illinois trials: a side kept twice has its amplitude halved.
    # While the bracket is wider than its midpoint, where the amplitude is
    # far from linear, a falsi point outside its middle half gives way to
    # the midpoint, a trial bisection makes anyway.
    kept, est, falsi = 0, lo, 0
    try:
        while falsi < 8:
            (u, a_u, _), (o, a_o, _) = tight[_UNDERSHOOT], tight[_OVERSHOOT]
            x = (a_u * o - a_o * u) / (a_u - a_o)
            t = (x - u) / (o - u)
            if abs(x - est) <= 0.25 * tol or not 0.0 < t < 1.0:
                break
            if abs(o - u) > abs(0.5 * (u + o)) and not 0.25 <= t <= 0.75:
                x = 0.5 * (u + o)
            else:
                falsi += 1
            est, kind = x, trial(x)
            tight[-kind][1] *= 0.5 if kind == kept else 1.0
            kept = kind
        for x in (est - 0.25 * tol, est + 0.25 * tol):
            # One outside the tightest pair could tighten neither side.
            if (x - tight[_UNDERSHOOT][0]) * (x - tight[_OVERSHOOT][0]) < 0.0:
                trial(x)
    except (ConvergenceError, ZeroDivisionError):
        pass  # a seed that overflows or stalls only loses its information
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        known = [k for k in tight if k * sign * (mid - tight[k][0]) > margin]
        if (known[0] if known else trial(mid)) == _OVERSHOOT:
            hi = mid
        else:
            lo = mid
    return lo, hi, slopes[-1], [(x, k, a) for k, (x, _, a) in tight.items()]


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
            "shooting trajectory broke down before a clean tail hand-off")
    r_s = r_nodes[i_sw]
    u_s = values[i_sw]
    target = dvalues[i_sw] / u_s

    def defect(k):
        return float(_linear_tail(dim, k, r_s)[1]) - target

    # Bisect the defect on [kappa/2, 3 kappa/2] down to adjacent floats.
    lo, hi = 0.5 * kappa, 1.5 * kappa
    f_lo = defect(lo)
    if not f_lo * defect(hi) <= 0.0:
        raise ConvergenceError(
            "tail hand-off slope is incompatible with exponential decay "
            f"near rate sqrt(v_a) = {kappa:.4g}")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if defect(mid) * f_lo > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    kappa_t = lo
    scale = u_s / _linear_tail(dim, kappa_t, r_nodes[i_sw:i_sw + 1])[0][0]
    for s in range(i_sw, len(values), TABLE_BLOCK):
        block = slice(s, s + TABLE_BLOCK)
        u, logderiv = _linear_tail(dim, kappa_t, r_nodes[block])
        values[block] = np.multiply(scale, u, out=u)
        np.multiply(u, logderiv, out=dvalues[block])
        del u, logderiv  # not alive while the next block is formed
    return kappa_t


def _default_bracket(v_a: float, p: float) -> Tuple[float, float]:
    # The 1-D center value (p v_a / 2)^(1/(p-2)) is a strict lower bound for
    # the higher-dimensional ones, which stay within a modest factor of it.
    g = (p * v_a / 2.0) ** (1.0 / (p - 2.0))
    return 0.3 * g, 12.0 * g


def solve_ground_state(v_a: float, p: float, dim: int) -> RadialProfile:
    """Shoot for the positive decreasing radial ground state.

    The table spans [0, r_max], r_max = 10/sqrt(v_a) + 10, and starts at
    step 1e-3/max(1, sqrt(v_a)).  While its finite-difference residual
    misses the target the step shrinks, by at most 64 in total; a finer
    step is tried with the carried u(0), which is bisected again (and the
    table rebuilt) once that step's table passes or breaks down.  Each
    bisection remembers its trials and replays them only where RK4 roundoff
    cannot flip a midpoint, so about 8 trials give plain bisection's bits;
    at the kept step, seeded, about 5, and the bracket ends are marched only
    when the seeds do not straddle the flip.

    Raises DomainError for unsupported or non-finite inputs, BracketError
    when the bracket fails to straddle, and ConvergenceError when a trial
    overflows or bisection or the table construction cannot meet tolerance.
    """
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2, or 3, got {dim}")
    for name, value in (("v_a", v_a), ("p", p)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not v_a > 0.0:
        raise DomainError(f"v_a must be positive, got {v_a}")
    if not p > 2.0:
        raise DomainError(f"p must exceed 2, got {p}")
    if dim == 3 and p >= 6.0:
        raise DomainError(
            f"p = {p} is supercritical in dim 3 (needs p < 6); no ground "
            "state exists")
    kappa = math.sqrt(v_a)
    r_max = 10.0 / kappa + 10.0
    h = 1e-3 / max(1.0, kappa)
    lo, hi = _default_bracket(v_a, p)

    # Coarse pass narrows the bracket cheaply; the fine pass makes u(0)
    # consistent with the step the table is built with.
    coarse_tol = max(_BISECT_TOL, 1e-3 * lo)
    seeds = []
    try:
        lo, hi = _bisect(lo, hi, v_a, p, dim, 8.0 * h, r_max, coarse_tol)[:2]
    except BracketError:
        # At 8h the RK4 trial from the bracket top can go unstable and read
        # as an undershoot where it overshoots at h, as at (1, 6, 1).  Its
        # tightest trials at h then seed the fine pass.
        lo, hi, _, seeds = _bisect(lo, hi, v_a, p, dim, h, r_max, coarse_tol)
    pad = 4.0 * max(abs(hi - lo), 1e-7 * max(abs(lo), abs(hi)))
    lo, hi, slope, _ = _bisect(min(lo, hi) - pad, max(lo, hi) + pad, v_a,
                               p, dim, h, r_max, _BISECT_TOL, seeds)
    c = 0.5 * (lo + hi)

    def pin(c, step, seeds):
        # seeds: the trial from c, read off the table march.  A trial a
        # quarter tolerance past the flip the last slope predicts from it
        # usually lands on the other side.
        x = c - seeds[0][2] / slope if seeds and slope else math.nan
        x += math.copysign(0.25 * _BISECT_TOL, x - c)
        if abs(x - c) <= 1e-3 * c:
            try:
                seeds.append((x, *_classify(x, v_a, p, dim, step, r_max)))
            except ConvergenceError:
                pass  # a seed that overflows only loses its information
        # u(0) moves by O(h^4), so a slim pad almost always straddles.
        for pad in (1e-7 * c, 1e-5 * c, 1e-3 * c):
            try:
                lo, hi = _bisect(c - pad, c + pad, v_a, p, dim, step,
                                 r_max, _BISECT_TOL, seeds)[:2]
                return 0.5 * (lo + hi)
            except BracketError:
                continue
        raise BracketError(
            "could not re-bracket the shooting value after step refinement")

    # pinned: c was bisected at the current step h.
    h_min, pinned, round_ = h / 64.0, True, 0
    while True:
        n_nodes = int(round(r_max / h)) + 1
        r_nodes = np.arange(n_nodes, dtype=float)
        r_nodes *= h
        values, dvalues = np.empty(n_nodes), np.empty(n_nodes)
        # The table march passes the node where a bisection trial from c
        # stops; it halts there first, and its state there is that trial's.
        floor, trial_floor = _TAIL_RATIO * c, _CLASSIFY_RATIO * c
        u, d, r, i = _march(c, v_a, p, dim, h, min(n_nodes - 2, int(
            math.ceil((r_max - h) / h))), trial_floor, values, dvalues)
        seeds = [(c, *_judge(c, u, d, r, v_a, dim))] if not pinned and (
            u < trial_floor or d > 0.0) else []
        if not (u < floor or d > 0.0):
            u, d, _, i = _march(c, v_a, p, dim, h, n_nodes - 2, floor,
                                values, dvalues, (u, d, r, i))
        # i_stop: the first node no longer trusted (u fell below the floor,
        # crossed zero or turned upward), or n_nodes if none stopped it.
        i_stop = i if u < floor or d > 0.0 else n_nodes
        try:
            kappa_t = _attach_tail(r_nodes, values, dvalues, i_stop, v_a, dim)
        except ConvergenceError:
            if pinned:
                raise
            c, pinned = pin(c, h, seeds), True
            continue
        res = profile_ode_residual(r_nodes, values, v_a, p, dim)
        target = _RESIDUAL_TARGET * values[0]
        if res <= 0.8 * target:
            if pinned:
                break
            c, pinned = pin(c, h, seeds), True
            continue
        if round_ == 4 or h <= h_min:
            raise ConvergenceError(
                f"table residual {res:.3g} still over target {target:.3g} "
                f"at ode_step {h:.3g}; auto refinement exhausted")
        shrink = 2 ** int(math.ceil(math.log2(math.sqrt(res / (0.5 * target)))))
        h = max(h / min(16, max(2, shrink)), h_min)
        pinned, round_ = False, round_ + 1

    if np.any(values <= 0.0) or np.any(values[1:] >= values[:-1]):
        raise ConvergenceError(
            "profile is not strictly positive and decreasing; shooting "
            "tolerance too loose for this (v_a, p, dim)")

    return RadialProfile(v_a=v_a, p=p, dim=dim, r_nodes=r_nodes,
                         values=values, dvalues=dvalues, decay_rate=kappa_t)


def profile_ode_residual(r_nodes: np.ndarray, values: np.ndarray,
                         v_a: float, p: float, dim: int) -> float:
    """Sup norm of the central-difference residual of the radial ODE.

    Taken over the interior nodes, TABLE_BLOCK nodes at a time with a
    one-node halo, so a long table needs no full-length temporaries; each
    node's residual is the same arithmetic as on the whole table, so the
    sup is too.  NaN propagates.
    """
    h = r_nodes[1] - r_nodes[0]
    sup = 0.0
    for s in range(1, len(values) - 1, TABLE_BLOCK):
        u = values[s - 1:s + TABLE_BLOCK + 1]
        um = u[1:-1]
        r = r_nodes[s:s + len(um)]
        lap = (u[2:] - 2.0 * um + u[:-2]) / (h * h)
        first = (u[2:] - u[:-2]) / (2.0 * h)
        res = lap + (dim - 1.0) / r * first - v_a * um + power_map(p)(um)
        sup = np.maximum(sup, np.max(np.abs(res)))
    return float(sup)


def ode_residual(profile: RadialProfile) -> float:
    """Residual sup norm of a profile's own table (profile_ode_residual)."""
    return profile_ode_residual(profile.r_nodes, profile.values,
                                profile.v_a, profile.p, profile.dim)


def eval_profile(profile: RadialProfile, r) -> Tuple[np.ndarray, np.ndarray]:
    """(U, U') at radii r >= 0 (a scalar or an array; each of r's shape).

    Inside [0, r_max] both come from one interval search and one set of
    cubic Hermite coefficients of the table; beyond it, from one tail,
    U(r_max) t(r)/t(r_max) with t(r) = r^(-nu) K_nu(decay_rate r)
    (_linear_tail), and that times t'/t.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise DomainError("radii must be nonnegative")
    u, du = np.empty(r_arr.shape), np.empty(r_arr.shape)
    inside = r_arr <= profile.r_max
    if np.any(inside):
        u[inside], du[inside] = _hermite(profile, r_arr[inside])
    if not np.all(inside):
        shape, logderiv = _linear_tail(
            profile.dim, profile.decay_rate,
            np.append(r_arr[~inside], profile.r_max))
        tail = profile.values[-1] / shape[-1] * shape[:-1]
        u[~inside], du[~inside] = tail, tail * logderiv[:-1]
    return (u, du) if u.shape else (u[()], du[()])


def _hermite(profile: RadialProfile, r: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Cubic Hermite interpolant U and U' on each r's node interval."""
    x, u, du = profile.r_nodes, profile.values, profile.dvalues
    # Uniform mesh: r / h is within one node of the i with x_i <= r < x_i+1.
    last = len(x) - 2
    i = np.minimum((r / (x[1] - x[0])).astype(np.intp), last)
    i -= x[i] > r
    i += (x[i + 1] <= r) & (i < last)
    dx = x[i + 1] - x[i]
    s = r - x[i]
    d0 = du[i]
    slope = (u[i + 1] - u[i]) / dx
    t = (d0 + du[i + 1] - 2.0 * slope) / dx
    c3, c2 = t / dx, (slope - d0) / dx - t
    return (((c3 * s + c2) * s + d0) * s + u[i],
            (3.0 * c3 * s + 2.0 * c2) * s + d0)

