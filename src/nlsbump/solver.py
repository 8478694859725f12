"""Damped Newton-Krylov solver for the semilinear bound-state equation.

The unknown lives on the grid nodes with the boundary ring pinned to zero
(homogeneous Dirichlet on a box chosen large enough that the solution is
exponentially negligible there).  Each Newton step linearizes

    F(u) = -eps^2 lap(u) + V u - |u|^(p-2) u,
    J[u] v = -eps^2 lap(v) + V v - (p-1) |u|^(p-2) v,

and solves J dv = -F(u) matrix-free on the interior nodes with MINRES.
MINRES rather than conjugate gradients because J is indefinite near a bump
(one negative eigenvalue), which CG does not tolerate.  Steps are accepted
only on strict sup-norm residual decrease, with geometric backtracking.

The preconditioner is the exact inverse of P = -eps^2 lap_h + c, c = min V
on the interior, which the type-I sine transform diagonalizes (Buzbee,
Golub and Nielson 1970): two DST-I passes around a division.  V is
validated positive, so P is SPD even where J is indefinite; that is all
preconditioned MINRES (Paige and Saunders 1975) needs, and it still
minimizes a residual, in the P^-1 norm, in steps that no longer grow in
number as the grid refines.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.fft import dstn
from scipy.sparse.linalg import LinearOperator, minres

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DomainError,
    GeometryError,
    KrylovError,
)
from .grid import (
    ProblemSpec,
    ScalarField,
    make_field,
    neg_weighted_laplacian,
    pde_residual,
)
from .potential import eval_potential
from .radial import RadialProfile, eval_profile


@dataclass(frozen=True)
class BumpSpec:
    profile: RadialProfile
    center: np.ndarray
    amplitude: float = 1.0


@dataclass(frozen=True)
class AnsatzSpec:
    bumps: Tuple[BumpSpec, ...]


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-10
    max_newton: int = 40
    krylov_tol: float = 1e-8
    krylov_max: int = 1500
    damping: float = 1.0
    backtrack: float = 0.5
    max_backtracks: int = 12
    regularization_growth: float = 10.0
    max_regularizations: int = 10

    def validate(self) -> None:
        if not self.tol_residual > 0.0:
            raise DomainError("tol_residual must be positive")
        if self.max_newton < 1 or self.krylov_max < 1:
            raise DomainError("iteration limits must be at least 1")
        if not self.krylov_tol > 0.0:
            raise DomainError("krylov_tol must be positive")
        if not 0.0 < self.damping <= 1.0:
            raise DomainError("damping must lie in (0, 1]")
        if not 0.0 < self.backtrack < 1.0:
            raise DomainError("backtrack factor must lie in (0, 1)")
        if self.max_backtracks < 1:
            raise DomainError("max_backtracks must be at least 1")
        if not self.regularization_growth > 1.0:
            raise DomainError("regularization growth must exceed 1")
        if self.max_regularizations < 1:
            raise DomainError("max_regularizations must be at least 1")


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
    krylov_short: int = 0  # MINRES calls that stopped short (info > 0)


_TRIVIAL_RATIO = 1e-8
# Translation modes of flat wells make the Jacobian nearly singular; pushing
# the inner solve below this buys nothing but stagnation.
_KRYLOV_TOL_FLOOR = 1e-10


def bump_field(spec: ProblemSpec, profile: RadialProfile,
               center: np.ndarray) -> np.ndarray:
    """The rescaled bump U(|x - center|/eps) sampled on the grid (raw array)."""
    r = np.linalg.norm(spec.grid.points() - center, axis=1) / spec.eps
    return eval_profile(profile, r).reshape(spec.grid.counts)


def build_ansatz(spec: ProblemSpec, ansatz: AnsatzSpec,
                 amp_scale: float = 1.0,
                 shifts: Optional[np.ndarray] = None) -> ScalarField:
    """Sum of rescaled radial bumps, sampled on the grid.

    Each bump's profile must have been solved at the potential value of its
    own center (and at the problem's exponent), otherwise the pieces do not
    describe the same equation.  A perturbed start scales every amplitude
    by amp_scale and samples bump k at center + shifts[k]; the checks see
    the unperturbed bumps, since a shifted center is off the well floor.
    """
    grid = spec.grid
    total = np.zeros(grid.counts)
    for k, bump in enumerate(ansatz.bumps):
        center = np.atleast_1d(np.asarray(bump.center, dtype=float))
        if center.shape != (grid.dim,):
            raise GeometryError(f"bump {k} center has wrong dimension")
        if np.any(center <= grid.lo) or np.any(center >= grid.hi):
            raise GeometryError(f"bump {k} center lies outside the grid box")
        if not bump.amplitude > 0.0:
            raise DomainError(f"bump {k} amplitude must be positive")
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
        if shifts is not None:
            center = center + shifts[k]
        total += bump.amplitude * amp_scale * bump_field(spec, prof, center)
    return make_field(grid, total)


def dirichlet_symbol(shape, spacing, e2: float, c: float) -> np.ndarray:
    """DST-I eigenvalues of -e2 lap_h + c on interior nodes of this shape."""
    symbol = np.full(shape, float(c))
    for a, (n, h) in enumerate(zip(shape, spacing)):
        k = np.arange(1, n + 1).reshape(
            [n if b == a else 1 for b in range(len(shape))])
        symbol += e2 * (2.0 * np.sin(0.5 * np.pi * k / (n + 1)) / h) ** 2
    return symbol


def dirichlet_inverse(symbol: np.ndarray) -> LinearOperator:
    """Exact inverse of the operator dirichlet_symbol diagonalizes."""
    inv_symbol = 1.0 / symbol

    def apply(flat: np.ndarray) -> np.ndarray:
        x = dstn(flat.reshape(symbol.shape), type=1, norm="ortho")
        return dstn(inv_symbol * x, type=1, norm="ortho").ravel()

    return LinearOperator((symbol.size, symbol.size), matvec=apply,
                          dtype=float)


def newton_solve(spec: ProblemSpec, u0: ScalarField,
                 cfg: Optional[NewtonConfig] = None,
                 ) -> Tuple[ScalarField, SolveReport]:
    """Solve F(u) = 0 from the initial iterate u0.

    Returns the solution field and a report.  The positivity flag refers to
    interior nodes (the boundary ring is held at zero).  The trivial flag is
    set when the result collapsed to sup |u| < 1e-8 sup |u0|.

    The stopping test and final_residual use the sup norm of F; the line
    search accepts steps on the cell-weighted L2 norm (recorded in
    residual_history), which stays smooth where the sup norm is pinned to
    a single stubborn node, as happens on coarse three-dimensional grids.

    Raises ConvergenceError (with .report and .field attached) when Newton
    runs out of iterations or backtracking cannot find a descent step, and
    KrylovError if MINRES breaks down.
    """
    if cfg is None:
        cfg = NewtonConfig()
    cfg.validate()
    grid = spec.grid
    if u0.values.shape != tuple(grid.counts):
        raise DomainError("initial iterate does not live on the spec's grid")

    inner = tuple(slice(1, -1) for _ in grid.counts)
    ring = np.ones(grid.counts, dtype=bool)
    ring[inner] = False
    v_int = spec.potential_values()[inner]
    e2 = spec.eps ** 2

    def residual(u: np.ndarray) -> np.ndarray:
        r = pde_residual(spec, ScalarField(grid, u)).values
        r[ring] = 0.0
        return r

    u = u0.values.copy()
    u[ring] = 0.0
    sup_u0 = float(np.abs(u).max())

    cell = grid.cell_volume

    def merit(r: np.ndarray) -> float:
        flat = r.ravel()
        return math.sqrt(cell * float(np.dot(flat, flat)))

    res = residual(u)
    sup_res = float(np.abs(res).max())
    m_res = merit(res)
    history = [m_res]
    rtol = max(cfg.krylov_tol, _KRYLOV_TOL_FLOOR)
    precond = dirichlet_inverse(
        dirichlet_symbol(v_int.shape, grid.spacing, e2, float(v_int.min())))
    krylov_iterations, backtracks, shifts = [], [], []
    krylov_short = 0

    def make_report(converged: bool, iterations: int) -> SolveReport:
        sup_final = float(np.abs(u).max())
        trivial = sup_u0 == 0.0 or sup_final < _TRIVIAL_RATIO * sup_u0
        positive = bool(u[inner].min() > 0.0)
        return SolveReport(converged=converged, iterations=iterations,
                           residual_history=list(history),
                           final_residual=sup_res,
                           positivity=positive, trivial=trivial,
                           krylov_iterations=krylov_iterations,
                           backtracks=backtracks, shifts=shifts,
                           krylov_short=krylov_short)

    def fail(message: str):
        exc = ConvergenceError(message)
        exc.report = make_report(False, it)
        exc.field = make_field(grid, u)
        return exc

    # Seed for the adaptive shift when a pure Newton step cannot make
    # progress (nearly singular translation modes); same units as V.
    lam_seed = 1e-4 * float(np.abs(spec.potential_values()).max())
    lam = 0.0

    it = 0
    while sup_res > cfg.tol_residual:
        if it >= cfg.max_newton:
            raise fail(f"Newton did not reach {cfg.tol_residual:g} in "
                       f"{cfg.max_newton} iterations (residual {sup_res:g})")
        it += 1
        base_diag = v_int - (spec.p - 1.0) * np.abs(u[inner]) ** (spec.p - 2.0)
        krylov_iterations.append(0)
        backtracks.append(0)

        accepted = False
        for _ in range(cfg.max_regularizations):
            # The stencil's "zero outside the box" is the Dirichlet ring.
            shift = lam
            diag = base_diag + shift

            def matvec(flat: np.ndarray) -> np.ndarray:
                krylov_iterations[-1] += 1
                v = flat.reshape(v_int.shape)
                out = neg_weighted_laplacian(v, grid.spacing, e2)
                out += diag * v
                return out.ravel()

            op = LinearOperator((v_int.size,) * 2, matvec=matvec, dtype=float)
            rhs = -res[inner].ravel()
            step_flat, info = minres(op, rhs, rtol=rtol,
                                     maxiter=cfg.krylov_max, M=precond)
            if info < 0:
                raise KrylovError(f"MINRES breakdown (info={info})")
            krylov_short += int(info > 0)
            dv = step_flat.reshape(v_int.shape)

            step = cfg.damping
            backtracks_used = 0
            for _ in range(cfg.max_backtracks):
                u_try = u.copy()
                u_try[inner] += step * dv
                res_try = residual(u_try)
                m_try = merit(res_try)
                if m_try < m_res:
                    u, res, m_res = u_try, res_try, m_try
                    sup_res = float(np.abs(res).max())
                    accepted = True
                    break
                step *= cfg.backtrack
                backtracks_used += 1
            backtracks[-1] += backtracks_used
            if accepted:
                break
            lam = lam_seed if lam == 0.0 else cfg.regularization_growth * lam
        shifts.append(shift)
        if not accepted:
            raise fail("no residual decrease along any damped or regularized "
                       "step; iterate is at a stationary point of |F|")
        # Trust-region-style shift control: a full step means the local
        # model is good, so relax toward pure Newton (the quadratic tail
        # needs shift zero); deep backtracking means the step direction
        # overshoots along nearly singular modes, so stiffen.
        if backtracks_used == 0:
            lam = 0.0 if lam < 4.0 * lam_seed else 0.25 * lam
        elif backtracks_used >= 3:
            lam = lam_seed if lam == 0.0 \
                else cfg.regularization_growth * lam
        history.append(m_res)

    return make_field(grid, u), make_report(True, it)
