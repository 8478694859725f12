"""Diagnostics on computed solutions: bump decomposition, flux identities,
rate fits, interaction integrals, coercivity, and the uniqueness probe.

The decomposition writes a field as a sum of amplitude-corrected rescaled
radial bumps plus a remainder that is energy-orthogonal to every bump and
to each bump's translation derivatives.  Bump centers and amplitude
corrections are the unknowns of that orthogonality system, solved by
Newton's method with its exact Jacobian (see decompose).  One sampler,
sample_bump, evaluates each bump's U and U' once per projection step; the
bumps and translation fields decompose converged on are the ones
coercivity_estimate and the CLI's overlap integrals read.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import lobpcg

from .errors import (
    ConvergenceError,
    DecompositionError,
    DomainError,
    GeometryError,
    SpectralError,
)
from .grid import (
    ProblemSpec,
    ScalarField,
    ball_volume_integral,
    eps_inner,
    eps_norm,
    field_gradient_on,
    field_values_on,
    make_field,
    make_sphere_quadrature,
    power_map,
)
from .potential import eval_potential, grad_potential
from .radial import RadialProfile, eval_profile, eval_profile_deriv
from .solver import (
    AnsatzSpec,
    build_ansatz,
    dirichlet_inverse,
    dirichlet_symbol,
    interior_operator,
    newton_solve,
)

_DECOMPOSE_MAX_ITER = 50
# LOBPCG's bound on the residual norm of each M-normalized eigenpair
_LOBPCG_TOL = 1e-8
_LOBPCG_MAX_ITER = 1000
# Sphere quadrature resolution of the flux identity's boundary terms
_POHOZAEV_RESOLUTION = 48


@dataclass
class BumpDecomposition:
    centers: np.ndarray
    amplitudes: np.ndarray
    remainder_w: ScalarField
    remainder_v: ScalarField
    w_norm: float
    v_norm: float
    projection_residuals: np.ndarray
    # U_j and T_j,a = d_a U_j on the grid, sampled at centers
    bumps: Tuple[np.ndarray, ...]
    translations: Tuple[Tuple[np.ndarray, ...], ...]
    iterations: int = 0  # projection-Newton steps taken


@dataclass
class PohozaevReport:
    direction: int
    center: np.ndarray
    radius: float
    lhs_volume: float
    i1: float
    i2: float
    i3: float
    residual: float


@dataclass(frozen=True)
class RateFit:
    samples: Tuple[Tuple[float, float], ...]
    slope: float
    intercept: float
    max_deviation: float


@dataclass
class UniquenessReport:
    sup_diff: float
    rel_diff: float  # sup_diff / sup |u| of the first solution
    xi_field: Optional[ScalarField]  # diff / sup_diff, unless negligible


@dataclass
class CoercivityReport:
    rho: float
    unprojected_min: float
    unprojected_second: float
    translation_quotients: np.ndarray
    # LOBPCG iterations of the unprojected and the projected eigensolve
    lobpcg_iterations: Tuple[int, int] = (0, 0)


def _owning_wells(spec: ProblemSpec, centers: np.ndarray) -> List[int]:
    wells = spec.potential.wells
    owners = []
    for j, c in enumerate(centers):
        dists = [float(np.linalg.norm(c - w.center)) for w in wells]
        best = int(np.argmin(dists))
        if dists[best] > spec.potential.patch_radius:
            raise GeometryError(
                f"initial center {j} is {dists[best]:.4g} from the nearest "
                f"well, beyond patch_radius {spec.potential.patch_radius}")
        owners.append(best)
    if len(set(owners)) != len(owners):
        raise GeometryError("two bump centers claim the same well")
    return owners


def sample_bump(spec: ProblemSpec, profile: RadialProfile, center
                ) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], Callable]:
    """(U, T, hessian): U((x - center)/eps) on the grid, T[a] = d_a U, and
    hessian(v), the dim x dim pairings <v, d_a d_b U>_eps, all from one
    evaluation each of the profile's U and U' tables (no h-error).

    With r = |x - center|/eps, e the unit vector and q = U'/r, the Hessian
    is ((U'' - q) e_a e_b + q delta_ab) / eps^2.  U'' is read off the
    profile equation, U'' = v_a U - U^(p-1) - (dim-1) q, and at r = 0
    q = U''(0) = (v_a U(0) - U(0)^(p-1)) / dim, so no table is differenced.
    """
    grid = spec.grid
    rel = grid.points() - center
    dist = np.linalg.norm(rel, axis=1)
    r = dist / spec.eps
    u = eval_profile(profile, r)
    du = eval_profile_deriv(profile, r)
    safe = np.where(dist > 0.0, dist, 1.0)
    trans = tuple(np.where(dist > 0.0, du * rel[:, a] / (spec.eps * safe),
                           0.0).reshape(grid.counts) for a in range(grid.dim))

    def hessian(v: ScalarField) -> np.ndarray:
        source = profile.v_a * u - power_map(profile.p)(u)
        q = np.where(dist > 0.0, du / np.where(dist > 0.0, r, 1.0),
                     source / grid.dim)
        curv = source - grid.dim * q  # U'' - q
        unit = rel / safe[:, None]
        out = np.empty((grid.dim, grid.dim))
        for a in range(grid.dim):
            for b in range(a, grid.dim):
                hess = make_field(grid, curv * unit[:, a] * unit[:, b]
                                  + q * (a == b))
                out[a, b] = out[b, a] = eps_inner(spec, v, hess)
        return out / spec.eps ** 2

    return u.reshape(grid.counts), trans, hessian


def decompose(spec: ProblemSpec, u: ScalarField, initial_centers,
              profiles: Sequence[RadialProfile]) -> BumpDecomposition:
    """Split u into amplitude-corrected bumps plus an orthogonal remainder.

    Finds centers x_j and corrections alpha_j so that

        v = u - sum_j (1 + alpha_j) U_j((x - x_j)/eps)

    is energy-orthogonal to every bump U_j and every translation derivative
    T_j,a = d_a U_j, where U_j is profiles[j], one per initial center.
    Newton's method solves that system for theta[j] = (alpha_j, x_j) with
    the exact Jacobian: the eps-Gram matrix of the basis
    [U_j, T_j,1..dim], its columns scaled by -1 and 1 + alpha_j
    (dv/dalpha_j = -U_j, dv/dx_j = (1 + alpha_j) T_j), plus the motion of
    the basis, dU_j/dx_j = -T_j and dT_j,a/dx_j,b = -d_a d_b U_j, from one
    sample_bump per bump per step.  The result keeps the U_j and T_j it
    converged on, sampled at its centers.
    Also returns w = u - sum_j U_j((x - x_j)/eps), the remainder against
    the uncorrected unit-amplitude sum.
    """
    grid = spec.grid
    centers = np.atleast_2d(np.asarray(initial_centers, dtype=float)).copy()
    k = centers.shape[0]
    if centers.shape != (k, grid.dim):
        raise GeometryError("initial_centers must be k points of grid dim")
    wells = spec.potential.wells
    if wells:
        anchor = np.stack([wells[o].center
                           for o in _owning_wells(spec, centers)])
        drift_limit = spec.potential.patch_radius
    else:
        anchor = centers.copy()
        drift_limit = float(np.min(spec.grid.hi - spec.grid.lo))
    profiles = tuple(profiles)
    if len(profiles) != k:
        raise DomainError("need one profile per bump")

    n_per = grid.dim + 1
    u_norm = eps_norm(spec, u)

    theta = np.column_stack([np.zeros(k), centers])
    iterations = 0
    while True:
        bumps, translations, hessians = zip(*(
            sample_bump(spec, profiles[j], theta[j, 1:]) for j in range(k)))
        basis = [make_field(grid, f) for bump, ts in zip(bumps, translations)
                 for f in (bump, *ts)]
        vvals = u.values - sum((1.0 + theta[j, 0]) * bumps[j] for j in range(k))
        vfield = make_field(grid, vvals)
        g = np.array([eps_inner(spec, vfield, b) for b in basis])
        gram = np.array([[eps_inner(spec, a, b) for b in basis]
                         for a in basis])
        v_norm = eps_norm(spec, vfield)
        basis_norms = np.sqrt(np.diag(gram))
        if np.all(np.abs(g) <= basis_norms * (1e-9 * v_norm
                                               + 5e-15 * u_norm)):
            break
        if iterations == _DECOMPOSE_MAX_ITER:
            raise DecompositionError(
                f"projection system not converged after {iterations} "
                f"iterations (max residual {np.abs(g).max():.3e})")
        iterations += 1
        scale = np.repeat(1.0 + theta[:, :1], n_per, axis=1)
        scale[:, 0] = -1.0
        jac = gram * scale.ravel()
        for j in range(k):
            trans = slice(j * n_per + 1, (j + 1) * n_per)
            jac[j * n_per, trans] -= g[trans]
            jac[trans, trans] -= hessians[j](vfield)
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise DecompositionError("projection Jacobian is singular")
        theta = theta + delta.reshape(k, n_per)
        drift = np.linalg.norm(theta[:, 1:] - anchor, axis=1)
        if np.any(drift > drift_limit):
            raise GeometryError(
                "decomposition centers drifted out of their well patches")

    wfield = make_field(grid, u.values - sum(bumps))
    return BumpDecomposition(
        centers=theta[:, 1:], amplitudes=theta[:, 0], remainder_w=wfield,
        remainder_v=vfield, w_norm=eps_norm(spec, wfield), v_norm=v_norm,
        projection_residuals=np.abs(g), bumps=bumps,
        translations=translations, iterations=iterations)


def default_ball_radius(spec: ProblemSpec) -> float:
    """Half the minimum well separation; sensible fallbacks otherwise."""
    wells = spec.potential.wells
    if len(wells) >= 2:
        seps = [np.linalg.norm(a.center - b.center)
                for i, a in enumerate(wells) for b in wells[i + 1:]]
        return 0.5 * float(min(seps))
    if len(wells) == 1:
        c = wells[0].center
        return 0.5 * float(min(np.min(c - spec.grid.lo),
                               np.min(spec.grid.hi - c)))
    return 0.25 * float(np.min(spec.grid.hi - spec.grid.lo))


def pohozaev_terms(spec: ProblemSpec, u: ScalarField, center,
                   radius: float, direction: int) -> PohozaevReport:
    """Volume and boundary terms of the flux identity on a ball.

    For a solution, the volume integral of (dV/dx_i) u^2 equals the sum of
    the three boundary groups; the reported residual is their mismatch.
    """
    grid = spec.grid
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not 0 <= direction < grid.dim:
        raise DomainError(f"direction must be an axis index < {grid.dim}")
    gradv = grad_potential(spec.potential, grid.points())[:, direction]
    integrand = make_field(grid, (gradv * u.values.ravel()
                                  ).reshape(grid.counts) * u.values)
    lhs = ball_volume_integral(spec, integrand, center, radius)

    quad = make_sphere_quadrature(center, radius, _POHOZAEV_RESOLUTION)
    uvals = field_values_on(u, quad.nodes)
    grads = field_gradient_on(u, quad.nodes)
    vvals = eval_potential(spec.potential, quad.nodes)
    nu_i = quad.normals[:, direction]
    u_nu = np.sum(grads * quad.normals, axis=1)
    u_i = grads[:, direction]
    e2 = spec.eps ** 2
    i1 = -2.0 * e2 * float(np.dot(quad.weights, u_nu * u_i))
    i2 = float(np.dot(quad.weights,
                      (e2 * np.sum(grads ** 2, axis=1)
                       + vvals * uvals ** 2) * nu_i))
    i3 = -(2.0 / spec.p) * float(
        np.dot(quad.weights, np.abs(uvals) ** spec.p * nu_i))
    residual = lhs - (i1 + i2 + i3)
    for name, val in (("lhs", lhs), ("i1", i1), ("i2", i2), ("i3", i3)):
        if not math.isfinite(val):
            raise DomainError(f"flux term {name} is not finite")
    return PohozaevReport(direction=direction, center=center, radius=radius,
                          lhs_volume=lhs, i1=i1, i2=i2, i3=i3,
                          residual=residual)


def fit_rate(samples: Sequence[Tuple[float, float]],
             abscissa: Callable = np.log) -> RateFit:
    """Least-squares line of log(value) against abscissa(eps).

    The default, log eps, fits a power law in eps; 1/eps fits an
    exponential rate.
    """
    pts = [(float(e), float(v)) for e, v in samples]
    if len(pts) < 3:
        raise DomainError("need at least 3 samples to fit a rate")
    eps = np.array([e for e, _ in pts])
    vals = np.array([v for _, v in pts])
    if len(np.unique(eps)) != len(eps):
        raise DomainError("samples must have distinct eps")
    if np.any(vals <= 0.0):
        raise DomainError(
            "nonpositive sample value; below-floor points must be filtered "
            "out by the caller before fitting")
    le, lv = abscissa(eps), np.log(vals)
    slope, intercept = np.polyfit(le, lv, 1)
    dev = float(np.abs(lv - (slope * le + intercept)).max())
    return RateFit(samples=tuple(pts), slope=float(slope),
                   intercept=float(intercept), max_deviation=dev)


def _smallest_eigs(a_op, m_op, precond, n_int, how_many, seed):
    """Smallest pencil eigenvalues by preconditioned LOBPCG.

    The seeded start block, one column per wanted eigenvalue, is the only
    source of randomness; fixing it keeps repeated runs bit-identical.
    Returns the eigenvalues and the iteration count (one preconditioner
    application per iteration; LOBPCG solves tiny problems densely, in
    none).
    """
    x0 = np.random.default_rng(seed).standard_normal((n_int, how_many))
    iterations = 0

    def counted(block):
        nonlocal iterations
        iterations += 1
        return precond @ block

    with warnings.catch_warnings():
        # Non-convergence is judged below, from the pairs themselves.
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = lobpcg(a_op, x0, B=m_op, M=counted, tol=_LOBPCG_TOL,
                            maxiter=_LOBPCG_MAX_ITER, largest=False)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for i in range(how_many):
        x = vecs[:, i]
        ax = a_op(x)
        mx = m_op(x)
        res = np.linalg.norm(ax - vals[i] * mx)
        if res > _LOBPCG_TOL:
            raise SpectralError(
                f"LOBPCG did not converge in {iterations} iterations: "
                f"eigenpair {i} residual {res:.2e} over {_LOBPCG_TOL:g}")
        scale = np.linalg.norm(ax) + abs(vals[i]) * np.linalg.norm(mx)
        if not np.isfinite(vals[i]) or res > 1e-6 * max(scale, 1e-30):
            raise SpectralError(
                f"eigenpair {i} did not converge (residual {res:.2e} "
                f"against scale {scale:.2e})")
    return vals, iterations


def _penalized_operator(h_op, m_op, constraints, shift):
    """H plus a rank-k penalty pushing span(constraints) up by shift.

    Eigenvectors M-orthogonal to the constraints keep their eigenvalues;
    constrained directions move near +shift, so the bottom of the spectrum
    becomes the constrained minimum.
    """
    my = m_op(constraints)
    gram_inv = np.linalg.inv(constraints.T @ my)
    return lambda x: h_op(x) + shift * (my @ (gram_inv @ (my.T @ x)))


def coercivity_estimate(spec: ProblemSpec, dec: BumpDecomposition,
                        seed: int = 12345) -> CoercivityReport:
    """Smallest Rayleigh quotients of the linearized energy Hessian.

    rho is the minimum of [energy form - (p-1) int (sum_j U_j^(p-2)) v^2]
    over the energy-norm sphere, restricted to the complement of the bumps
    and their translation derivatives.  The restriction is enforced by a
    rank-k(N+1) penalty that lifts the constrained directions above the
    spectrum of interest, after which a seeded LOBPCG iteration (Knyazev
    2001) reads off the bottom.  Also reports the two smallest
    unconstrained quotients and the quotients of the translation modes
    themselves.

    H = -eps^2 lap_h + V - weight and the metric M = -eps^2 lap_h + V act
    on the interior unknowns through Newton's stencil (interior_operator);
    the plain-node pairing of M is the energy inner product for
    boundary-zero fields, so M-orthogonality is eps-orthogonality.  LOBPCG
    needs only products with H and M, and is preconditioned by the exact
    DST-I inverse of -eps^2 lap_h + min V, so nothing is factorized.
    """
    grid = spec.grid
    inner = tuple(slice(1, -1) for _ in grid.counts)
    e2 = spec.eps ** 2
    weight = (spec.p - 1.0) * sum(b ** (spec.p - 2.0) for b in dec.bumps)
    v_int = spec.potential_values()[inner]
    h_op = interior_operator(v_int - weight[inner], grid.spacing, e2)
    m_op = interior_operator(v_int, grid.spacing, e2)
    precond = dirichlet_inverse(dirichlet_symbol(
        v_int.shape, grid.spacing, e2, float(v_int.min())))

    constraints = np.stack(
        [f[inner].ravel() for bump, trans in zip(dec.bumps, dec.translations)
         for f in (bump, *trans)], axis=1)
    tq = []
    for trans in dec.translations:
        for t in trans:
            col = t[inner].ravel()
            tq.append(float(col @ h_op(col)) / float(col @ m_op(col)))

    un_vals, un_iters = _smallest_eigs(h_op, m_op, precond, v_int.size, 2,
                                       seed)
    lift = 10.0 * (1.0 + abs(float(un_vals[0])))
    pen_op = _penalized_operator(h_op, m_op, constraints, lift)
    pr_vals, pr_iters = _smallest_eigs(pen_op, m_op, precond, v_int.size, 1,
                                       seed)
    return CoercivityReport(rho=float(pr_vals[0]),
                            unprojected_min=float(un_vals[0]),
                            unprojected_second=float(un_vals[1]),
                            translation_quotients=np.array(tq),
                            lobpcg_iterations=(un_iters, pr_iters))


@dataclass(frozen=True)
class AnsatzTweak:
    """Initializer perturbation: amplitude scaling and per-bump shifts."""
    amp_scale: float = 1.0
    center_shifts: Optional[np.ndarray] = None


def _tweak_shifts(spec: ProblemSpec, k: int,
                  tweak: AnsatzTweak) -> np.ndarray:
    if not 0.8 <= tweak.amp_scale <= 1.2:
        raise DomainError(
            f"amplitude scale {tweak.amp_scale} outside the basin [0.8, 1.2]")
    dim = spec.grid.dim
    if tweak.center_shifts is None:
        return np.zeros((k, dim))
    shifts = np.asarray(tweak.center_shifts, dtype=float)
    if shifts.shape == (dim,):
        shifts = np.tile(shifts, (k, 1))
    if shifts.shape != (k, dim):
        raise DomainError("center_shifts must be one vector per bump")
    if np.any(np.linalg.norm(shifts, axis=1) > 0.5 * spec.eps + 1e-15):
        raise DomainError(
            "center shift exceeds half of eps; outside the basin")
    return shifts


def uniqueness_probe(spec: ProblemSpec, ansatz: AnsatzSpec,
                     perturbations: Tuple[AnsatzTweak, AnsatzTweak]
                     ) -> UniquenessReport:
    """Solve twice from perturbed initializations and compare sup norms.

    Each run starts from the ansatz with the tweak's scaled amplitudes and
    shifted centers (build_ansatz validates the unshifted bumps).  The
    claim under test is that both runs land on the same positive solution;
    the caller compares rel_diff (sup difference over the first solution's
    sup) with its tolerance, the CLI with its fixed 1e-8.  A run that
    collapses to the trivial solution or is not positive on the interior
    raises ConvergenceError: two such runs agreeing says nothing about
    positive solutions.
    """
    if len(perturbations) != 2:
        raise DomainError("uniqueness probe compares exactly two runs")
    fields = []
    for run, tweak in enumerate(perturbations):
        shifts = _tweak_shifts(spec, len(ansatz.bumps), tweak)
        u0 = build_ansatz(spec, ansatz, tweak.amp_scale, shifts)
        u, report = newton_solve(spec, u0)
        if report.trivial:
            raise ConvergenceError(
                f"probe run {run} collapsed to the trivial solution")
        if not report.positivity:
            raise ConvergenceError(f"probe run {run} is not positive")
        fields.append(u)
    diff = fields[0].values - fields[1].values
    sup_diff = float(np.abs(diff).max())
    sup_u = float(np.abs(fields[0].values).max())  # > 0: the run is positive
    xi = None
    if sup_diff > 1e-12 * sup_u:
        xi = make_field(spec.grid, diff / sup_diff)
    return UniquenessReport(sup_diff=sup_diff, rel_diff=sup_diff / sup_u,
                            xi_field=xi)
