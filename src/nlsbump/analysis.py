"""Diagnostics on computed solutions: bump decomposition, flux identities,
rate fits, interaction integrals, coercivity, and the uniqueness probe.

The decomposition writes a field as a sum of amplitude-corrected rescaled
radial bumps plus a remainder that is energy-orthogonal to every bump and
to each bump's translation derivatives.  Bump centers and amplitude
corrections are the unknowns of that orthogonality system, solved by
Newton's method with its exact Jacobian (see decompose).  The one sampler,
solver.sample_bump, gives each bump's U and T from one profile evaluation
per projection or reduced-solve step; the bumps and translation fields
decompose converged on are the ones coercivity_estimate and the CLI's
overlap integrals read.  Every field, the solution, the bumps, the
remainders and the uniqueness probe's difference quotient, is a float
array on spec.grid.  pohozaev_terms takes every ball of an eps in one
call, so grad V and grad u are formed on the grid once per eps.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConvergenceError,
    DecompositionError,
    DomainError,
    GeometryError,
    KrylovError,
    NlsbumpError,
    SpectralError,
)
from .grid import (
    ProblemSpec,
    ball_coverage,
    eps_gram,
    eps_norm,
    field_values_on,
    make_sphere_quadrature,
)
from .potential import displacement, eval_potential, grad_potential
from .radial import RadialProfile
from .solver import (
    BumpSpec,
    build_ansatz,
    bump_centers,
    dirichlet_inverse,
    interior,
    interior_operator,
    jacobian_diagonal,
    newton_solve,
    residual,
    sample_bump,
)

# Step cap of decompose and of the reduced solve; the reduced solve stops
# at max |delta xi| <= _REDUCED_STEP_TOL * eps
_DECOMPOSE_MAX_ITER = 50
_REDUCED_STEP_TOL = 1e-6
# LOBPCG's bound on the residual norm of each M-normalized eigenpair
_LOBPCG_TOL = 1e-8
_LOBPCG_MAX_ITER = 1000
# The uniqueness probe's pairs start from 1 -/+ _PROBE_AMP times the ansatz
# ("amplitude") and from every bump moved +/- _PROBE_SHIFT eps on axis 0
_PROBE_AMP = 0.1
_PROBE_SHIFT = 0.3


@dataclass
class BumpDecomposition:
    centers: np.ndarray
    amplitudes: np.ndarray
    remainder_w: np.ndarray
    remainder_v: np.ndarray
    w_norm: float
    v_norm: float
    projection_residuals: np.ndarray
    # U_j and T_j,a = d_a U_j on the grid, sampled at centers
    bumps: Tuple[np.ndarray, ...]
    translations: Tuple[Tuple[np.ndarray, ...], ...]
    iterations: int = 0  # projection-Newton steps taken


@dataclass
class PohozaevReport:
    lhs_volume: float
    i1: float
    i2: float
    i3: float
    residual: float
    rel_residual: float  # |residual| / max |term|, 0 when all terms vanish


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    max_deviation: float


@dataclass(frozen=True)
class ProbeRun:
    """A probe run's Newton steps and, after a shifted start, its reduced
    solve's steps and outcome ("converged" moved the start, "" no solve)."""
    newton_iterations: int
    reduced_iterations: int = 0
    reduced_outcome: str = ""


@dataclass
class UniquenessReport:
    sup_diff: float
    rel_diff: float  # sup_diff / sup |u| of the first solution
    xi_field: Optional[np.ndarray]  # diff / sup_diff, unless negligible
    runs: Tuple[ProbeRun, ...] = ()


@dataclass
class CoercivityReport:
    rho: float
    unprojected_min: float
    unprojected_second: float
    translation_quotients: np.ndarray
    # LOBPCG iterations of the unprojected and the projected eigensolve
    lobpcg_iterations: Tuple[int, int] = (0, 0)


def _patch(spec: ProblemSpec, centers: np.ndarray
           ) -> Tuple[np.ndarray, float]:
    """(anchor, limit): each center may move at most limit from its anchor,
    the one well whose patch holds it, or without wells its start."""
    wells = spec.potential.wells
    if not wells:
        return centers.copy(), float(np.min(spec.grid.hi - spec.grid.lo))
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
    return (np.stack([wells[o].center for o in owners]),
            spec.potential.patch_radius)


def _newton_update(theta: np.ndarray, jac: np.ndarray, g: np.ndarray,
                   anchor: np.ndarray, limit: float) -> np.ndarray:
    """theta + delta, jac delta = -g; the centers, theta's last columns,
    must stay within limit of their anchors."""
    try:
        theta = theta + np.linalg.solve(jac, -g).reshape(theta.shape)
    except np.linalg.LinAlgError:
        raise DecompositionError("projection Jacobian is singular")
    drift = np.linalg.norm(theta[:, -anchor.shape[1]:] - anchor, axis=1)
    if np.any(drift > limit):
        raise GeometryError(
            "decomposition centers drifted out of their well patches")
    return theta


def decompose(spec: ProblemSpec, u: np.ndarray, initial_centers,
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
    anchor, drift_limit = _patch(spec, centers)
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
        basis = [f for bump, ts in zip(bumps, translations)
                 for f in (bump, *ts)]
        v = u - sum((1.0 + theta[j, 0]) * bumps[j] for j in range(k))
        pairings = eps_gram(spec, [v, *basis], basis)
        g, gram = pairings[0], pairings[1:]
        v_norm = eps_norm(spec, v)
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
            jac[trans, trans] -= hessians[j](v)
        theta = _newton_update(theta, jac, g, anchor, drift_limit)

    w = u - sum(bumps)
    return BumpDecomposition(
        centers=theta[:, 1:], amplitudes=theta[:, 0], remainder_w=w,
        remainder_v=v, w_norm=eps_norm(spec, w), v_norm=v_norm,
        projection_residuals=np.abs(g), bumps=bumps,
        translations=translations, iterations=iterations)


def default_ball_radius(spec: ProblemSpec) -> float:
    """Half the least well separation; one well: half its wall distance."""
    wells = spec.potential.wells
    if len(wells) >= 2:
        seps = [np.linalg.norm(a.center - b.center)
                for i, a in enumerate(wells) for b in wells[i + 1:]]
        return 0.5 * float(min(seps))
    c = wells[0].center
    return 0.5 * float(min(np.min(c - spec.grid.lo),
                           np.min(spec.grid.hi - c)))


def pohozaev_terms(spec: ProblemSpec, u: np.ndarray, centers,
                   radius: float) -> List[List[PohozaevReport]]:
    """Volume and boundary terms of the flux identity on the ball of the
    given radius about each centre: per ball, one report per direction i.

    For a solution, the volume integral of (dV/dx_i) u^2 equals the sum of
    the three boundary groups; the reported residual is their mismatch.
    grad V on the grid and the central-difference grad u are formed once
    for every ball; each ball takes one coverage, one sphere quadrature
    and one interpolation of the stack [u, grad u].
    """
    grid = spec.grid
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != grid.dim:
        raise GeometryError("ball centers must be k points of grid dim")
    grad_v = grad_potential(spec.potential, grid.mesh())
    # in 1-D np.gradient returns one array, not a list
    stack = np.concatenate([u[None], np.reshape(
        np.gradient(u, *grid.axes, edge_order=2), (grid.dim, *grid.counts))])
    e2 = spec.eps ** 2
    balls = []
    for center in centers:
        cov = ball_coverage(grid, center, radius)
        lhs = [float(np.sum(gradv * u * u * cov) * grid.cell_volume)
               for gradv in grad_v]
        quad = make_sphere_quadrature(center, radius)
        vals = field_values_on(grid, stack, quad.nodes)
        uvals, grads = vals[0], np.stack(vals[1:], axis=1)
        vvals = eval_potential(spec.potential, quad.nodes.T)
        u_nu = np.sum(grads * quad.normals, axis=1)
        energy = e2 * np.sum(grads ** 2, axis=1) + vvals * uvals ** 2
        power = np.abs(uvals) ** spec.p
        reports = []
        for i in range(grid.dim):
            nu_i = quad.normals[:, i]
            i1 = -2.0 * e2 * float(np.dot(quad.weights, u_nu * grads[:, i]))
            i2 = float(np.dot(quad.weights, energy * nu_i))
            i3 = -(2.0 / spec.p) * float(np.dot(quad.weights, power * nu_i))
            terms = {"lhs": lhs[i], "i1": i1, "i2": i2, "i3": i3}
            for name, val in terms.items():
                if not math.isfinite(val):
                    raise DomainError(f"flux term {name} is not finite")
            residual = lhs[i] - (i1 + i2 + i3)
            scale = max(abs(val) for val in terms.values())
            reports.append(PohozaevReport(
                lhs_volume=lhs[i], i1=i1, i2=i2, i3=i3, residual=residual,
                rel_residual=abs(residual) / scale if scale > 0.0 else 0.0))
        balls.append(reports)
    return balls


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
    return RateFit(slope=float(slope), intercept=float(intercept),
                   max_deviation=dev)


def _smallest_eigs(a_op, m_op, precond, x0):
    """Smallest pencil eigenvalues by preconditioned LOBPCG from the start
    block x0, one column per eigenvalue, all of which must converge.

    Returns the eigenvalues and the iteration count (one preconditioner
    application per iteration; LOBPCG solves tiny problems densely, in
    none).
    """
    from scipy.sparse.linalg import lobpcg
    iterations = 0

    def counted(block):
        nonlocal iterations
        iterations += 1
        return precond(block)

    with warnings.catch_warnings():
        # Non-convergence is judged below, from the pairs themselves.
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs = lobpcg(a_op, x0, B=m_op, M=counted, tol=_LOBPCG_TOL,
                            maxiter=_LOBPCG_MAX_ITER, largest=False)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for i in range(x0.shape[1]):
        x = vecs[:, i]
        ax = a_op(x)
        mx = m_op(x)
        res = np.linalg.norm(ax - vals[i] * mx)
        scale = np.linalg.norm(ax) + abs(vals[i]) * np.linalg.norm(mx)
        # "not <=": a NaN residual or eigenvalue fails too
        if not res <= min(_LOBPCG_TOL, 1e-6 * max(scale, 1e-30)):
            raise SpectralError(
                f"LOBPCG did not converge in {iterations} iterations: "
                f"eigenpair {i} residual {res:.2e} at scale {scale:.2e}")
    return vals, iterations


def _penalized_operator(h_op, precond, my, gram, shift):
    """H plus a rank-k penalty pushing span(Y) up by shift, and the
    inverse of P plus the same penalty, P^-1 = precond; my = MY and
    gram = G = Y^T MY for the constraint columns Y.

    Eigenvectors M-orthogonal to the constraints keep their eigenvalues;
    constrained directions move near +shift, so the bottom of the spectrum
    becomes the constrained minimum.  With W = P^-1 MY, Woodbury gives
    (P + shift MY G^-1 (MY)^T)^-1 = P^-1 - W S^-1 W^T,
    S = G/shift + (MY)^T W, k x k like G.
    """
    gram_inv = np.linalg.inv(gram)
    w = precond @ my
    s_inv = np.linalg.inv(gram / shift + my.T @ w)
    return (lambda x: h_op(x) + shift * (my @ (gram_inv @ (my.T @ x))),
            lambda x: precond @ x - w @ (s_inv @ (w.T @ x)))


def coercivity_estimate(spec: ProblemSpec, dec: BumpDecomposition,
                        seed: int = 12345) -> CoercivityReport:
    """Smallest Rayleigh quotients of the linearized energy Hessian.

    rho is the minimum of [energy form - (p-1) int (sum_j U_j^(p-2)) v^2]
    over the energy-norm sphere, restricted to the complement of the bumps
    and their translation derivatives.  The restriction is enforced by a
    rank-k(N+1) penalty that lifts the constrained directions above the
    spectrum of interest, after which an LOBPCG iteration (Knyazev 2001)
    reads off the bottom.  Also reports the two smallest unconstrained
    quotients and the quotients of the translation modes themselves.

    H = -eps^2 lap_h + V - weight and the metric M = -eps^2 lap_h + V act
    on the interior unknowns through Newton's stencil (interior_operator);
    the plain-node pairing of M is the energy inner product for
    boundary-zero fields, so M-orthogonality is eps-orthogonality.  LOBPCG
    needs only products with H and M, and is preconditioned by the exact
    DST-I inverse of the far-field operator P = -eps^2 lap_h + V_inf, so
    nothing is factorized; the projected solve's inverts P plus the
    penalty, by a Woodbury correction of rank k(N+1) (_penalized_operator).

    Both solves start from the structure of the linearization.  Each bump
    U_j is an exact eigenvector of its single-bump pencil (H U = -(p-2)
    M U there), so the unprojected solve starts from the k bumps, with
    seeded normal columns up to its two wanted eigenvalues.  The scaling
    generators Lambda U_j = (2/(p-2)) U_j + (x - x_j) . grad U_j solve
    H Lambda U_j = -2 V(x_j) U_j on their bump, so the projected solve
    starts from their sum, M-orthogonalized against the constraints.
    seed drives only the normal columns (one, for a single bump; none for
    k >= 2), so one seed gives one start block.
    """
    grid = spec.grid
    inner = interior(spec)
    e2 = spec.eps ** 2
    weight = (spec.p - 1.0) * sum(b ** (spec.p - 2.0) for b in dec.bumps)
    v_int = spec.potential_values[inner]
    h_op = interior_operator(v_int - weight[inner], grid.spacing, e2)
    m_op = interior_operator(v_int, grid.spacing, e2)
    precond = dirichlet_inverse(spec)

    constraints = np.stack(
        [f[inner].ravel() for bump, trans in zip(dec.bumps, dec.translations)
         for f in (bump, *trans)], axis=1)
    tq = []
    for trans in dec.translations:
        for t in trans:
            col = t[inner].ravel()
            tq.append(float(col @ h_op(col)) / float(col @ m_op(col)))

    filler = np.random.default_rng(seed).standard_normal(
        (v_int.size, max(0, 2 - len(dec.bumps))))
    un_vals, un_iters = _smallest_eigs(h_op, m_op, precond, np.column_stack(
        [b[inner].ravel() for b in dec.bumps] + [filler]))
    start = np.zeros(grid.counts)
    for bump, trans, c in zip(dec.bumps, dec.translations, dec.centers):
        rel = displacement(grid.mesh(), c)[0]
        start += (2.0 / (spec.p - 2.0)) * bump + sum(
            x * t for x, t in zip(rel, trans))
    start = start[inner].ravel()
    my = m_op(constraints)
    gram = constraints.T @ my
    start -= constraints @ np.linalg.solve(gram, my.T @ start)
    lift = 10.0 * (1.0 + abs(float(un_vals[0])))
    pen_op, pen_precond = _penalized_operator(h_op, precond, my, gram, lift)
    pr_vals, pr_iters = _smallest_eigs(pen_op, m_op, pen_precond,
                                       start[:, None])
    return CoercivityReport(rho=float(pr_vals[0]),
                            unprojected_min=float(un_vals[0]),
                            unprojected_second=float(un_vals[1]),
                            translation_quotients=np.array(tq),
                            lobpcg_iterations=(un_iters, pr_iters))


def _reduced_system(spec: ProblemSpec, profiles: Sequence[RadialProfile],
                    centers: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(dg/dxi, g) for the centre equations of the Lyapunov-Schmidt
    reduction, g_{j,a} = <F(sum_l U_l), T_{j,a}> (cell-weighted, interior):
    dU_l/dxi_l = -T_l gives -<J T_{l,b}, T_{j,a}> - delta_jl <F, d_a d_b U_j>,
    from one sample_bump per bump and one product of J with all T."""
    grid, cell = spec.grid, spec.grid.cell_volume
    inner = interior(spec)
    bumps, translations, hessians = zip(*(
        sample_bump(spec, prof, c) for prof, c in zip(profiles, centers)))
    u = sum(bumps)
    f = residual(spec, u)
    tt = np.stack([t[inner].ravel() for ts in translations for t in ts], 1)
    j_op = interior_operator(jacobian_diagonal(spec, u[inner]), grid.spacing,
                             spec.eps ** 2)
    jac = -cell * (tt.T @ j_op(tt))
    for j, hessian in enumerate(hessians):
        block = slice(j * grid.dim, (j + 1) * grid.dim)
        jac[block, block] -= hessian(f, lambda _, a, b: (
            cell * float(np.vdot(a, b))))
    return jac, cell * (tt.T @ f[inner].ravel())


def _reduced_centers(spec: ProblemSpec, profiles: Sequence[RadialProfile],
                     start: np.ndarray) -> Tuple[np.ndarray, Tuple[int, str]]:
    """Newton on _reduced_system from the centers start by decompose's
    patch-bounded step: its root once a step is at most _REDUCED_STEP_TOL
    eps, else start; and (steps, outcome)."""
    xi, steps = start, 0
    try:
        anchor, limit = _patch(spec, xi)
        while steps < _DECOMPOSE_MAX_ITER:
            steps += 1
            jac, g = _reduced_system(spec, profiles, xi)
            xi, last = _newton_update(xi, jac, g, anchor, limit), xi
            if np.abs(xi - last).max() <= _REDUCED_STEP_TOL * spec.eps:
                return xi, (steps, "converged")
    except GeometryError:
        return start, (steps, "left its patch")
    except DecompositionError:
        return start, (steps, "singular Jacobian")
    return start, (steps, "not converged")


def uniqueness_probe(spec: ProblemSpec, bumps: Sequence[BumpSpec],
                     pair: str) -> UniquenessReport:
    """Solve twice from the named pair of perturbed ansatz starts (see
    _PROBE_AMP) and compare.  A shifted start moves on to the root of the
    centre equations when the reduced solve from it converges
    (_reduced_centers); every bump is checked (bump_centers) first.  The
    claim under test is that both runs land on the same positive solution;
    the caller compares rel_diff (sup difference over the first solution's
    sup) with its tolerance, the CLI with its fixed 1e-8.  A run that
    collapses to the trivial solution or is not positive on the interior
    raises ConvergenceError: two such runs agreeing says nothing about
    positive solutions.  The report's runs, or the .runs of any
    NlsbumpError a run raises, say what each run did.
    """
    centers = bump_centers(spec, bumps)
    if pair == "amplitude":
        starts = [(1.0 - _PROBE_AMP, None), (1.0 + _PROBE_AMP, None)]
    elif pair == "shift":
        step = np.zeros_like(centers)
        step[:, 0] = _PROBE_SHIFT * spec.eps
        starts = [(1.0, centers + step), (1.0, centers - step)]
    else:
        raise DomainError(f"unknown probe pair {pair!r}")
    fields, runs = [], []
    try:
        for run, (amp_scale, start) in enumerate(starts):
            reduced = ()
            if start is not None:
                start, reduced = _reduced_centers(
                    spec, [b.profile for b in bumps], start)
            u0 = build_ansatz(spec, bumps, amp_scale, start)
            try:
                u, report = newton_solve(spec, u0)
            except (ConvergenceError, KrylovError) as exc:
                runs.append(ProbeRun(exc.report.iterations, *reduced))
                raise
            runs.append(ProbeRun(report.iterations, *reduced))
            if report.trivial:
                raise ConvergenceError(
                    f"probe run {run} collapsed to the trivial solution")
            if not report.positivity:
                raise ConvergenceError(f"probe run {run} is not positive")
            fields.append(u)
    except NlsbumpError as exc:
        exc.runs = tuple(runs)
        raise
    diff = fields[0] - fields[1]
    sup_diff = float(np.abs(diff).max())
    sup_u = float(np.abs(fields[0]).max())  # > 0: the run is positive
    xi = None
    if sup_diff > 1e-12 * sup_u:
        xi = diff / sup_diff
    return UniquenessReport(sup_diff=sup_diff, rel_diff=sup_diff / sup_u,
                            xi_field=xi, runs=tuple(runs))
