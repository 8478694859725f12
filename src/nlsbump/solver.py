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
from typing import Callable, List, Optional, Sequence, Tuple

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
    TensorGrid,
    field_values_on,
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


def make_ansatz(bumps: Sequence[BumpSpec]) -> AnsatzSpec:
    return AnsatzSpec(bumps=tuple(bumps))


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


def build_ansatz(spec: ProblemSpec, ansatz: AnsatzSpec) -> ScalarField:
    """Sum of rescaled radial bumps, sampled on the grid.

    Each bump's profile must have been solved at the potential value of its
    own center (and at the problem's exponent), otherwise the pieces do not
    describe the same equation.
    """
    grid = spec.grid
    total = np.zeros(grid.counts)
    pts = grid.points()
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
        r = np.linalg.norm(pts - center, axis=1) / spec.eps
        total += bump.amplitude * eval_profile(prof, r).reshape(grid.counts)
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
                 deflate_fields: Optional[Sequence[ScalarField]] = None,
                 ) -> Tuple[ScalarField, SolveReport]:
    """Solve F(u) = 0 from the initial iterate u0.

    Returns the solution field and a report.  The positivity flag refers to
    interior nodes (the boundary ring is held at zero).  The trivial flag is
    set when the result collapsed to sup |u| < 1e-8 sup |u0|.

    The stopping test and final_residual use the sup norm of F; the line
    search accepts steps on the cell-weighted L2 norm (recorded in
    residual_history), which stays smooth where the sup norm is pinned to
    a single stubborn node, as happens on coarse three-dimensional grids.

    deflate_fields, when given, are projected out of every Krylov space;
    useful when near-singular translation modes stall the inner solver.

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

    basis = None
    if deflate_fields:
        cols = [f.values[inner].ravel() for f in deflate_fields]
        basis = np.linalg.qr(np.stack(cols, axis=1))[0]

    def deflected(flat: np.ndarray) -> np.ndarray:
        if basis is None:
            return flat
        return flat - basis @ (basis.T @ flat)

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
                v = deflected(flat).reshape(v_int.shape)
                out = neg_weighted_laplacian(v, grid.spacing, e2)
                out += diag * v
                return deflected(out.ravel())

            op = LinearOperator((v_int.size,) * 2, matvec=matvec, dtype=float)
            rhs = deflected(-res[inner].ravel())
            step_flat, info = minres(op, rhs, rtol=rtol,
                                     maxiter=cfg.krylov_max, M=precond)
            if info < 0:
                raise KrylovError(f"MINRES breakdown (info={info})")
            krylov_short += int(info > 0)
            dv = deflected(step_flat).reshape(v_int.shape)

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


def _resample(prev: ScalarField, grid: TensorGrid) -> ScalarField:
    pts = grid.points()
    clipped = np.clip(pts, prev.grid.lo, prev.grid.hi)
    vals = field_values_on(prev, clipped)
    return make_field(grid, vals.reshape(grid.counts))


def continuation_solve(spec_factory: Callable[[float], ProblemSpec],
                       eps_schedule: Sequence[float],
                       ansatz: AnsatzSpec,
                       cfg: Optional[NewtonConfig] = None,
                       ) -> List[Tuple[float, ScalarField, SolveReport]]:
    """Solve along a decreasing eps schedule, warm-starting each solve.

    The first point starts from the assembled ansatz; each later point
    starts from the previous solution resampled onto the new grid by
    multilinear interpolation.  On a convergence failure the sequence is
    cut short; the failed point's best iterate and report are still
    appended, so the caller can see how far it got.
    """
    eps_list = [float(e) for e in eps_schedule]
    if not eps_list:
        raise DomainError("eps schedule must be nonempty")
    if any(e <= 0.0 for e in eps_list):
        raise DomainError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("eps schedule must be strictly decreasing")

    results: List[Tuple[float, ScalarField, SolveReport]] = []
    prev: Optional[ScalarField] = None
    for eps in eps_list:
        spec = spec_factory(eps)
        if abs(spec.eps - eps) > 1e-15:
            raise ConsistencyError(
                f"spec factory returned eps={spec.eps} for requested {eps}")
        u0 = build_ansatz(spec, ansatz) if prev is None \
            else _resample(prev, spec.grid)
        try:
            u, report = newton_solve(spec, u0, cfg)
        except ConvergenceError as exc:
            results.append((eps, exc.field, exc.report))
            break
        results.append((eps, u, report))
        prev = u
    return results
