"""Damped Newton-Krylov solver for the semilinear bound-state equation.

The unknown lives on the grid nodes with the boundary ring pinned to zero
(homogeneous Dirichlet on a box chosen large enough that the solution is
exponentially negligible there).  Each Newton step linearizes

    F(u) = -eps^2 lap(u) + V u - |u|^(p-2) u,
    J[u] v = -eps^2 lap(v) + V v - (p-1) |u|^(p-2) v,

and solves J dv = -F(u) matrix-free on the interior nodes with MINRES.
MINRES rather than conjugate gradients because J is indefinite near a bump
(one negative eigenvalue), which CG does not tolerate.  Steps are accepted
only on strict residual decrease, with geometric backtracking.

The preconditioner is the exact inverse of P = -eps^2 lap_h + V_inf, the
far-field operator, which the type-I sine transform diagonalizes (Buzbee,
Golub and Nielson 1970): two DST-I passes around a division.  V_inf is
the potential's background, the value V takes outside every well's
support ball, so P is J's linear part wherever V = V_inf and P^-1 J - I
lives on the patches and bumps alone.  The background is validated
positive, so P is SPD even where J is indefinite; that is all
preconditioned MINRES (Paige and Saunders 1975) needs, and it still
minimizes a residual, in the P^-1 norm, in steps that no longer grow in
number as the grid refines.

Each step's MINRES runs only as far as the outer iteration needs
(inexact Newton).  Its relative tolerance is the forcing term of
Eisenstat and Walker (1996), choice 2: eta_1 = _FORCING_MAX and
eta_k = min(_FORCING_MAX, 0.9 (m_k/m_{k-1})^2), m the merit the line
search accepts on, floored at _KRYLOV_TOL.  The cap 1e-3 is tight: at
0.1, Newton ran out of steps from the unscaled and amplitude-scaled
ansatz at eps 0.4 and 0.3 in 2-D.  There is no floor that stops a step
solving past the Newton tolerance (0.1 * 1e-10/|F_k|): with it the 2-D
sweep's drift fit moved by 2.5e-7 relative, probably because the last
step then leaves more residual along the near-kernel translation modes.
EW's safeguard (0.9 eta_{k-1}^2 when that exceeds 0.1) is left out,
since under this cap it cannot fire.

One stencil, interior_operator (-eps^2 lap_h + diag on the interior
unknowns), applies F (residual), J (on jacobian_diagonal) and the
coercivity estimate's Hessian and metric in analysis; dirichlet_inverse
also preconditions that estimate's LOBPCG eigensolve.

One sampler, sample_bump, puts a bump on the grid: U, its translation
fields and their Hessian pairings from one eval_profile call.  The ansatz
(build_ansatz, over a tuple of BumpSpec) and analysis sample through it.
Every field (the ansatz, Newton's iterate, a sampled bump) is a float
array of shape spec.grid.counts.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DomainError,
    GeometryError,
    KrylovError,
)
from .grid import (
    ProblemSpec,
    eps_inner,
    neg_weighted_laplacian,
    power_map,
)
from .potential import displacement, eval_potential
from .radial import RadialProfile, eval_profile


@dataclass(frozen=True)
class BumpSpec:
    profile: RadialProfile
    center: np.ndarray


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_history: List[float]
    final_residual: float
    positivity: bool
    trivial: bool
    # Per Newton step: sums over its shift attempts, and its last shift.
    krylov_iterations: List[int] = field(default_factory=list)
    backtracks: List[int] = field(default_factory=list)
    shifts: List[float] = field(default_factory=list)
    forcing: List[float] = field(default_factory=list)  # MINRES rtol
    krylov_short: int = 0  # MINRES calls that stopped short (info > 0)


# Newton stops at a residual sup norm of _TOL_RESIDUAL, within
# _MAX_NEWTON steps of at most _KRYLOV_MAX MINRES iterations each
# (perfbench/workloads.py's NEWTON_TOL and MAX_NEWTON mirror them).
_TOL_RESIDUAL = 1e-10
_MAX_NEWTON = 40
_KRYLOV_MAX = 1500
_TRIVIAL_RATIO = 1e-8
# Floor of the forcing term (MINRES rtol).  Translation modes of flat
# wells make the Jacobian nearly singular; pushing the inner solve further
# buys nothing but stagnation.
_KRYLOV_TOL = 1e-8
# Cap of the forcing term, and the first step's MINRES rtol
_FORCING_MAX = 1e-3
# Line search from the full step, then shift growth, per Newton step
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 12
_REGULARIZATION_GROWTH = 10.0
_MAX_REGULARIZATIONS = 10


def sample_bump(spec: ProblemSpec, profile: RadialProfile, center
                ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], Callable]:
    """(U, T, hessian): U((x - center)/eps) on the grid, T[a] = d_a U, and
    hessian(v, inner), the dim x dim pairings inner(spec, v, d_a d_b U)
    (default: <v, d_a d_b U>_eps), all from one evaluation of the
    profile's U and U' (no h-error).

    With r = |x - center|/eps, e the unit vector and q = U'/r, the Hessian
    is ((U'' - q) e_a e_b + q delta_ab) / eps^2.  U'' is read off the
    profile equation, U'' = v_a U - U^(p-1) - (dim-1) q, and at r = 0
    q = U''(0) = (v_a U(0) - U(0)^(p-1)) / dim, so no table is differenced.
    """
    grid = spec.grid
    rel, dist = displacement(grid.mesh(), center)
    r = dist / spec.eps
    u, du = eval_profile(profile, r)
    safe = np.where(dist > 0.0, dist, 1.0)
    trans = tuple(np.where(dist > 0.0, du * x / (spec.eps * safe), 0.0)
                  for x in rel)

    def hessian(v: np.ndarray, inner: Callable = eps_inner) -> np.ndarray:
        source = profile.v_a * u - power_map(profile.p)(u)
        q = np.where(dist > 0.0, du / np.where(dist > 0.0, r, 1.0),
                     source / grid.dim)
        curv = source - grid.dim * q  # U'' - q
        unit = [x / safe for x in rel]
        out = np.empty((grid.dim, grid.dim))
        for a in range(grid.dim):
            for b in range(a, grid.dim):
                hess = curv * unit[a] * unit[b] + q * (a == b)
                out[a, b] = out[b, a] = inner(spec, v, hess)
        return out / spec.eps ** 2

    return u, trans, hessian


def bump_centers(spec: ProblemSpec, bumps: Sequence[BumpSpec]) -> np.ndarray:
    """The bumps' centers, shape (k, dim), each checked to lie in the grid
    box with a profile solved for the spec's equation there (v_a = V at
    the center, p, dim); otherwise the pieces describe other equations."""
    grid = spec.grid
    centers = []
    for k, bump in enumerate(bumps):
        center = np.atleast_1d(np.asarray(bump.center, dtype=float))
        if center.shape != (grid.dim,):
            raise GeometryError(f"bump {k} center has wrong dimension")
        if np.any(center <= grid.lo) or np.any(center >= grid.hi):
            raise GeometryError(f"bump {k} center lies outside the grid box")
        prof = bump.profile
        v_here = float(eval_potential(spec.potential, center))
        if abs(prof.v_a - v_here) > 1e-12:
            raise ConsistencyError(
                f"bump {k} profile solved at v_a={prof.v_a!r} but the "
                f"potential at its center is {v_here!r}")
        if abs(prof.p - spec.p) > 1e-12:
            raise ConsistencyError(
                f"bump {k} profile solved at p={prof.p} but spec has "
                f"p={spec.p}")
        if prof.dim != grid.dim:
            raise ConsistencyError(
                f"bump {k} profile is {prof.dim}-d on a {grid.dim}-d grid")
        centers.append(center)
    return np.array(centers).reshape(-1, grid.dim)


def build_ansatz(spec: ProblemSpec, bumps: Sequence[BumpSpec],
                 amp_scale: float = 1.0,
                 centers: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum of rescaled radial bumps, sampled on the grid.

    A perturbed start scales every amplitude by amp_scale and samples bump
    k at centers[k]; the checks (bump_centers) see the unperturbed bumps,
    since a moved center is off the well floor.
    """
    checked = bump_centers(spec, bumps)
    total = np.zeros(spec.grid.counts)
    for bump, center in zip(bumps, checked if centers is None else centers):
        total += amp_scale * sample_bump(spec, bump.profile, center)[0]
    return total


def _interior(spec: ProblemSpec) -> Tuple[slice, ...]:
    return tuple(slice(1, -1) for _ in spec.grid.counts)


def _columnwise(coef: np.ndarray, x: np.ndarray):
    """x (a flat vector or a block of columns) over coef's grid shape, and
    coef shaped to scale each of its columns."""
    tail = x.shape[1:]
    return x.reshape(coef.shape + tail), coef.reshape(coef.shape
                                                      + (1,) * len(tail))


def dirichlet_inverse(spec: ProblemSpec):
    """Exact inverse of the far-field operator -eps^2 lap_h + V_inf on the
    interior unknowns, V_inf the potential's background (module
    docstring): two DST-I passes around a division by its eigenvalues, as
    a scipy LinearOperator."""
    from scipy.fft import dstn
    from scipy.sparse.linalg import LinearOperator
    shape = tuple(n - 2 for n in spec.grid.counts)
    axes = tuple(range(len(shape)))
    symbol = np.full(shape, spec.potential.background)
    for a, (n, h) in enumerate(zip(shape, spec.grid.spacing)):
        k = np.arange(1, n + 1).reshape([n if b == a else 1 for b in axes])
        symbol += spec.eps ** 2 * (2.0 * np.sin(0.5 * np.pi * k / (n + 1))
                                   / h) ** 2
    inv_symbol = 1.0 / symbol

    def apply(flat: np.ndarray) -> np.ndarray:
        v, scale = _columnwise(inv_symbol, flat)
        x = dstn(v, type=1, norm="ortho", axes=axes)
        return dstn(scale * x, type=1, norm="ortho",
                    axes=axes).reshape(flat.shape)

    return LinearOperator((symbol.size, symbol.size), matvec=apply,
                          matmat=apply, dtype=float)


def minres(*args, **kwargs):
    """scipy.sparse.linalg.minres, imported at the first call."""
    from scipy.sparse.linalg import minres
    return minres(*args, **kwargs)


def interior_operator(diag: np.ndarray, spacing,
                      e2: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (-e2 lap_h + diag) x on the interior unknowns.

    x is a flat vector or a block of columns over diag's grid shape; the
    stencil's "zero outside the box" is the Dirichlet ring.
    """
    def apply(x: np.ndarray) -> np.ndarray:
        # LOBPCG solves tiny problems densely, from an integer identity
        x = np.asarray(x, dtype=float)
        v, d = _columnwise(diag, x)
        out = neg_weighted_laplacian(v, spacing, e2)
        out += d * v
        return out.reshape(x.shape)

    return apply


def residual(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """F(u) on the grid nodes (u a raw array over them), zero on the ring."""
    inner = _interior(spec)
    v_int, u_int = spec.potential_values[inner], u[inner].ravel()
    r = np.zeros(spec.grid.counts)
    r[inner] = (interior_operator(v_int, spec.grid.spacing, spec.eps ** 2)(
        u_int) - power_map(spec.p)(u_int)).reshape(v_int.shape)
    return r


def jacobian_diagonal(spec: ProblemSpec, u_int: np.ndarray) -> np.ndarray:
    """V - (p-1)|u|^(p-2) on the interior unknowns: J[u] is
    interior_operator of it."""
    return (spec.potential_values[_interior(spec)]
            - (spec.p - 1.0) * np.abs(u_int) ** (spec.p - 2.0))


def newton_solve(spec: ProblemSpec,
                 u0: np.ndarray) -> Tuple[np.ndarray, SolveReport]:
    """Solve F(u) = 0 from the initial iterate u0, an array on spec.grid.

    Returns the solution and a report.  The positivity flag refers to
    interior nodes (the boundary ring is held at zero): none below -tau,
    some above tau, tau = _TOL_RESIDUAL / min V.  At the most negative node
    -lap_h u <= 0, so |F| >= |u| (V - |u|^(p-2)): a converged solve cannot
    resolve negativity within tau.  The trivial flag is set when the result
    collapsed to sup |u| < 1e-8 sup |u0|.

    The stopping test and final_residual use the sup norm of F; the line
    search accepts steps on the cell-weighted L2 norm (recorded in
    residual_history), which stays smooth where the sup norm is pinned to
    a single stubborn node, as happens on coarse three-dimensional grids.

    Raises DomainError when u0 is not on spec.grid or not finite (a NaN
    residual would pass the stopping test), ConvergenceError when Newton
    runs out of iterations or backtracking cannot find a descent step,
    KrylovError if MINRES breaks down; either of the last two carries the
    .report and the .field (the iterate) of the steps taken.
    """
    from scipy.sparse.linalg import LinearOperator
    grid = spec.grid
    if u0.shape != tuple(grid.counts):
        raise DomainError("initial iterate does not live on the spec's grid")
    if not np.all(np.isfinite(u0)):
        raise DomainError("initial iterate must be finite")

    inner = _interior(spec)
    u = np.zeros(grid.counts)
    u[inner] = u0[inner]
    sup_u0 = float(np.abs(u).max())
    tau = _TOL_RESIDUAL / float(spec.potential_values[inner].min())

    cell = grid.cell_volume

    def merit(r: np.ndarray) -> float:
        flat = r.ravel()
        return math.sqrt(cell * float(np.dot(flat, flat)))

    res = residual(spec, u)
    sup_res = float(np.abs(res).max())
    m_res = merit(res)
    history = [m_res]
    precond = dirichlet_inverse(spec)
    krylov_iterations, backtracks, shifts, forcing = [], [], [], []
    krylov_short = 0

    def make_report(converged: bool, iterations: int) -> SolveReport:
        sup_final = float(np.abs(u).max())
        trivial = sup_u0 == 0.0 or sup_final < _TRIVIAL_RATIO * sup_u0
        positive = bool(u[inner].min() > -tau and u[inner].max() > tau)
        return SolveReport(converged=converged, iterations=iterations,
                           residual_history=list(history),
                           final_residual=sup_res,
                           positivity=positive, trivial=trivial,
                           krylov_iterations=krylov_iterations,
                           backtracks=backtracks, shifts=shifts,
                           forcing=forcing, krylov_short=krylov_short)

    def fail(error, message: str):
        exc = error(message)
        exc.report = make_report(False, it)
        exc.field = u
        return exc

    # Seed for the adaptive shift when a pure Newton step cannot make
    # progress (nearly singular translation modes); same units as V.
    lam_seed = 1e-4 * float(np.abs(spec.potential_values).max())
    lam = 0.0

    it = 0
    while sup_res > _TOL_RESIDUAL:
        if it >= _MAX_NEWTON:
            raise fail(ConvergenceError, f"Newton did not reach "
                       f"{_TOL_RESIDUAL:g} in {_MAX_NEWTON} iterations "
                       f"(residual {sup_res:g})")
        it += 1
        base_diag = jacobian_diagonal(spec, u[inner])
        krylov_iterations.append(0)
        backtracks.append(0)
        eta = _FORCING_MAX if it == 1 else min(
            _FORCING_MAX, 0.9 * (history[-1] / history[-2]) ** 2)
        forcing.append(max(_KRYLOV_TOL, eta))

        accepted = False
        for _ in range(_MAX_REGULARIZATIONS):
            shift = lam
            apply_j = interior_operator(base_diag + shift, grid.spacing,
                                        spec.eps ** 2)

            def matvec(flat: np.ndarray) -> np.ndarray:
                krylov_iterations[-1] += 1
                return apply_j(flat)

            rhs = -res[inner].ravel()
            op = LinearOperator((rhs.size,) * 2, matvec=matvec, dtype=float)
            step_flat, info = minres(op, rhs, rtol=forcing[-1],
                                     maxiter=_KRYLOV_MAX, M=precond)
            if info < 0:
                raise fail(KrylovError, f"MINRES breakdown (info={info})")
            krylov_short += int(info > 0)
            dv = step_flat.reshape(base_diag.shape)

            step = 1.0
            backtracks_used = 0
            for _ in range(_MAX_BACKTRACKS):
                u_try = u.copy()
                u_try[inner] += step * dv
                res_try = residual(spec, u_try)
                m_try = merit(res_try)
                if m_try < m_res:
                    u, res, m_res = u_try, res_try, m_try
                    sup_res = float(np.abs(res).max())
                    accepted = True
                    break
                step *= _BACKTRACK
                backtracks_used += 1
            backtracks[-1] += backtracks_used
            if accepted:
                break
            lam = lam_seed if lam == 0.0 else _REGULARIZATION_GROWTH * lam
        shifts.append(shift)
        if not accepted:
            raise fail(ConvergenceError, "no residual decrease along any "
                       "damped or regularized step; iterate is at a "
                       "stationary point of |F|")
        # Trust-region-style shift control: a full step means the local
        # model is good, so relax toward pure Newton (the quadratic tail
        # needs shift zero); deep backtracking means the step direction
        # overshoots along nearly singular modes, so stiffen.
        if backtracks_used == 0:
            lam = 0.0 if lam < 4.0 * lam_seed else 0.25 * lam
        elif backtracks_used >= 3:
            lam = lam_seed if lam == 0.0 else _REGULARIZATION_GROWTH * lam
        history.append(m_res)

    return u, make_report(True, it)
