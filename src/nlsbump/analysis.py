"""Diagnostics on computed solutions: bump decomposition, flux identities,
rate fits, interaction integrals, coercivity, and the uniqueness probe.

The decomposition writes a field as a sum of amplitude-corrected rescaled
radial bumps plus a remainder that is energy-orthogonal to every bump and
to each bump's translation derivatives.  Bump centers and amplitude
corrections are the unknowns of that orthogonality system, solved by a
small damped Newton iteration with finite-difference Jacobian.
"""

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
    splu,
)

from .errors import (
    DecompositionError,
    DomainError,
    GeometryError,
    SpectralError,
)
from .grid import (
    ProblemSpec,
    ScalarField,
    ball_volume_integral,
    box_integral,
    eps_inner,
    eps_norm,
    field_gradient_on,
    field_values_on,
    make_field,
    make_sphere_quadrature,
)
from .potential import eval_potential, grad_potential
from .radial import (
    RadialProfile,
    eval_profile,
    eval_profile_deriv,
    solve_ground_state,
)
from .solver import AnsatzSpec, NewtonConfig, build_ansatz, newton_solve

_profile_cache: dict = {}


def ground_state_for(v_a: float, p: float, dim: int) -> RadialProfile:
    """Memoized radial profile solve (profiles are pure functions of args)."""
    key = (round(float(v_a), 12), round(float(p), 12), int(dim))
    if key not in _profile_cache:
        _profile_cache[key] = solve_ground_state(v_a, p, dim)
    return _profile_cache[key]


@dataclass
class BumpDecomposition:
    centers: np.ndarray
    amplitudes: np.ndarray
    remainder_w: ScalarField
    remainder_v: ScalarField
    w_norm: float
    v_norm: float
    projection_residuals: np.ndarray
    profiles: Tuple[RadialProfile, ...]


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
    xi_field: Optional[ScalarField]
    normalized: bool


@dataclass
class CoercivityReport:
    rho: float
    unprojected_min: float
    unprojected_second: float
    translation_quotients: np.ndarray


def bump_field(spec: ProblemSpec, profile: RadialProfile,
               center: np.ndarray) -> np.ndarray:
    """The rescaled bump sampled on the grid (raw array)."""
    pts = spec.grid.points()
    r = np.linalg.norm(pts - center, axis=1) / spec.eps
    return eval_profile(profile, r).reshape(spec.grid.counts)


def bump_translation_fields(spec: ProblemSpec, profile: RadialProfile,
                            center: np.ndarray) -> List[np.ndarray]:
    """Spatial derivatives of the rescaled bump along each axis.

    Computed from the profile's own derivative table, not by differencing
    the grid, so no h-error enters the projection system.
    """
    pts = spec.grid.points()
    rel = pts - center
    dist = np.linalg.norm(rel, axis=1)
    r = dist / spec.eps
    du = eval_profile_deriv(profile, r)
    out = []
    safe = np.where(dist > 0.0, dist, 1.0)
    for axis in range(spec.grid.dim):
        comp = np.where(dist > 0.0, du * rel[:, axis] / (spec.eps * safe),
                        0.0)
        out.append(comp.reshape(spec.grid.counts))
    return out


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


def decompose(spec: ProblemSpec, u: ScalarField, initial_centers,
              profiles: Optional[Sequence[RadialProfile]] = None,
              max_iter: int = 50) -> BumpDecomposition:
    """Split u into amplitude-corrected bumps plus an orthogonal remainder.

    Finds centers x_j and corrections alpha_j so that

        v = u - sum_j (1 + alpha_j) U_j((x - x_j)/eps)

    is energy-orthogonal to every bump and every translation derivative.
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
        owners = _owning_wells(spec, centers)
        depths = [wells[o].depth for o in owners]
        anchor = np.stack([wells[o].center for o in owners])
        drift_limit = spec.potential.patch_radius
    else:
        depths = [spec.potential.background] * k
        anchor = centers.copy()
        drift_limit = float(np.min(spec.grid.hi - spec.grid.lo))
    if profiles is None:
        profiles = [ground_state_for(d, spec.p, grid.dim) for d in depths]
    profiles = tuple(profiles)
    if len(profiles) != k:
        raise DomainError("need one profile per bump")

    n_par = k * (grid.dim + 1)
    u_norm = eps_norm(spec, u)

    def unpack(theta):
        c = theta[:k * grid.dim].reshape(k, grid.dim)
        a = theta[k * grid.dim:]
        return c, a

    def basis_and_residuals(theta):
        c, alph = unpack(theta)
        bumps = [bump_field(spec, profiles[j], c[j]) for j in range(k)]
        basis = []
        for j in range(k):
            basis.append(bumps[j])
            basis.extend(bump_translation_fields(spec, profiles[j], c[j]))
        vvals = u.values - sum((1.0 + alph[j]) * bumps[j] for j in range(k))
        vfield = make_field(grid, vvals)
        g = np.array([eps_inner(spec, vfield, make_field(grid, b))
                      for b in basis])
        return g, basis, vfield, bumps

    theta = np.concatenate([centers.ravel(), np.zeros(k)])
    g, basis, vfield, bumps = basis_and_residuals(theta)
    basis_norms = np.array([eps_norm(spec, make_field(grid, b))
                            for b in basis])

    def tolerance():
        v_norm = eps_norm(spec, vfield)
        return basis_norms * (1e-9 * v_norm + 5e-15 * u_norm)

    converged = np.all(np.abs(g) <= tolerance())
    for _ in range(max_iter):
        if converged:
            break
        jac = np.empty((n_par, n_par))
        for col in range(n_par):
            step = 1e-6 * spec.eps if col < k * grid.dim else 1e-6
            tp = theta.copy()
            tp[col] += step
            gp, _, _, _ = basis_and_residuals(tp)
            tm = theta.copy()
            tm[col] -= step
            gm, _, _, _ = basis_and_residuals(tm)
            jac[:, col] = (gp - gm) / (2.0 * step)
        try:
            delta = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise DecompositionError("projection Jacobian is singular")
        theta = theta + delta
        c_now, _ = unpack(theta)
        drift = np.linalg.norm(c_now - anchor, axis=1)
        if np.any(drift > drift_limit):
            raise GeometryError(
                "decomposition centers drifted out of their well patches")
        g, basis, vfield, bumps = basis_and_residuals(theta)
        basis_norms = np.array([eps_norm(spec, make_field(grid, b))
                                for b in basis])
        converged = np.all(np.abs(g) <= tolerance())
    if not converged:
        raise DecompositionError(
            f"projection system not converged after {max_iter} iterations "
            f"(max residual {np.abs(g).max():.3e})")

    c_fin, a_fin = unpack(theta)
    wvals = u.values - sum(bumps)
    wfield = make_field(grid, wvals)
    return BumpDecomposition(
        centers=c_fin, amplitudes=a_fin, remainder_w=wfield,
        remainder_v=vfield, w_norm=eps_norm(spec, wfield),
        v_norm=eps_norm(spec, vfield), projection_residuals=np.abs(g),
        profiles=profiles)


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
                   radius: float, direction: int,
                   resolution: int = 48) -> PohozaevReport:
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

    quad = make_sphere_quadrature(center, radius, resolution)
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


def localized_moment(spec: ProblemSpec, dec: BumpDecomposition,
                     well_index: int, direction: int,
                     ball_radius: Optional[float] = None,
                     resolution: int = 32) -> float:
    """Moment of U^2 against the potential's local gradient shape.

    Integrates |eps y + x_j - a_j|^(m-2) (eps y_i + (x_j - a_j)_i) U^2(|y|)
    over the ball |y| <= d/eps, by nesting the unit-sphere rule inside the
    profile's own radial nodes.
    """
    wells = spec.potential.wells
    if not wells:
        raise DomainError("localized_moment needs a potential with wells")
    if ball_radius is None:
        ball_radius = default_ball_radius(spec)
    a = wells[well_index].center
    xj = dec.centers[well_index]
    delta = xj - a
    m = spec.potential.exponent
    prof = dec.profiles[well_index]
    r_cap = min(ball_radius / spec.eps, prof.r_max)
    mask = (prof.r_nodes > 0.0) & (prof.r_nodes <= r_cap)
    r = prof.r_nodes[mask]
    u2 = prof.values[mask] ** 2
    dim = spec.grid.dim
    unit = make_sphere_quadrature(np.zeros(dim), 1.0, resolution)
    # y = r * omega for each radial node and unit-sphere node
    z = spec.eps * r[:, None, None] * unit.normals[None, :, :] + delta
    norms = np.linalg.norm(z, axis=2)
    safe = np.where(norms > 0.0, norms, 1.0)
    phi = np.where(norms > 0.0,
                   safe ** (m - 2.0) * z[:, :, direction], 0.0)
    surface = r ** (dim - 1) * (phi @ unit.weights)
    return float(np.trapezoid(u2 * surface, r))


def fit_rate(samples: Sequence[Tuple[float, float]]) -> RateFit:
    """Least-squares power law through (eps, value) pairs, in log-log."""
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
    le, lv = np.log(eps), np.log(vals)
    slope, intercept = np.polyfit(le, lv, 1)
    dev = float(np.abs(lv - (slope * le + intercept)).max())
    return RateFit(samples=tuple(pts), slope=float(slope),
                   intercept=float(intercept), max_deviation=dev)


def overlap_integral(spec: ProblemSpec, profile_a: RadialProfile, center_a,
                     profile_b: RadialProfile, center_b,
                     q1: float = 1.0, q2: float = 1.0) -> float:
    """Box integral of U_a^q1((x-c_a)/eps) U_b^q2((x-c_b)/eps)."""
    pts = spec.grid.points()
    ca = np.atleast_1d(np.asarray(center_a, dtype=float))
    cb = np.atleast_1d(np.asarray(center_b, dtype=float))
    ra = np.linalg.norm(pts - ca, axis=1) / spec.eps
    rb = np.linalg.norm(pts - cb, axis=1) / spec.eps
    va = eval_profile(profile_a, ra) ** q1
    vb = eval_profile(profile_b, rb) ** q2
    return box_integral(spec.grid, (va * vb).reshape(spec.grid.counts))


def _interior_operators(spec: ProblemSpec, weight: np.ndarray):
    """Sparse (H, M) pair on interior nodes.

    H is the linearized energy Hessian -eps^2 lap + V - weight, M is the
    energy metric -eps^2 lap + V; both under homogeneous Dirichlet.  The
    plain-node pairing of M reproduces the energy inner product exactly
    for boundary-zero fields, so M-orthogonality below is eps-orthogonality.
    """
    grid = spec.grid
    inner = tuple(slice(1, -1) for _ in grid.counts)
    shape_int = tuple(n - 2 for n in grid.counts)
    n_int = int(np.prod(shape_int))
    e2 = spec.eps ** 2
    lap = sparse.csr_matrix((n_int, n_int))
    eyes = [sparse.identity(n, format="csr") for n in shape_int]
    for axis, (n, h) in enumerate(zip(shape_int, grid.spacing)):
        d2 = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                          shape=(n, n), format="csr") / h ** 2
        pieces = eyes[:axis] + [d2] + eyes[axis + 1:]
        term = pieces[0]
        for piece in pieces[1:]:
            term = sparse.kron(term, piece, format="csr")
        lap = lap + term
    vvals = spec.potential_values()[inner].ravel()
    m_sp = e2 * lap + sparse.diags(vvals)
    h_sp = m_sp - sparse.diags(weight[inner].ravel())
    return h_sp.tocsr(), m_sp.tocsr(), inner, n_int


def _smallest_eigs(a_op, m_sp, m_inv, n_int, how_many, seed, maxiter=5000):
    """Smallest pencil eigenvalues by Lanczos with a seeded start vector.

    The start vector is the only source of randomness; fixing it keeps
    repeated runs bit-identical.
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n_int)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals, vecs = eigsh(a_op, k=how_many, M=m_sp, Minv=m_inv,
                               which="SA", v0=v0, maxiter=maxiter)
    except (ArpackError, ArpackNoConvergence) as exc:
        raise SpectralError(f"Lanczos iteration failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for i in range(how_many):
        x = vecs[:, i]
        ax = a_op @ x
        mx = m_sp @ x
        res = np.linalg.norm(ax - vals[i] * mx)
        scale = np.linalg.norm(ax) + abs(vals[i]) * np.linalg.norm(mx)
        if not np.isfinite(vals[i]) or res > 1e-6 * max(scale, 1e-30):
            raise SpectralError(
                f"eigenpair {i} did not converge (residual {res:.2e} "
                f"against scale {scale:.2e})")
    return vals, vecs


def _penalized_operator(h_sp, m_sp, constraints, shift):
    """H plus a rank-k penalty pushing span(constraints) up by shift.

    Eigenvectors M-orthogonal to the constraints keep their eigenvalues;
    constrained directions move near +shift, so the bottom of the spectrum
    becomes the constrained minimum.
    """
    my = m_sp @ constraints
    gram = constraints.T @ my
    gram_inv = np.linalg.inv(gram)

    def mv(x):
        return h_sp @ x + shift * (my @ (gram_inv @ (my.T @ x)))

    n = h_sp.shape[0]
    return LinearOperator((n, n), matvec=mv,
                          matmat=lambda xs: h_sp @ xs + shift
                          * (my @ (gram_inv @ (my.T @ xs))), dtype=float)


def coercivity_estimate(spec: ProblemSpec, u: ScalarField,
                        dec: BumpDecomposition,
                        seed: int = 12345) -> CoercivityReport:
    """Smallest Rayleigh quotients of the linearized energy Hessian.

    rho is the minimum of [energy form - (p-1) int (sum_j U_j^(p-2)) v^2]
    over the energy-norm sphere, restricted to the complement of the bumps
    and their translation derivatives.  The restriction is enforced by a
    rank-k(N+1) penalty that lifts the constrained directions above the
    spectrum of interest, after which a seeded Lanczos iteration reads off
    the bottom.  Also reports the two smallest unconstrained quotients and
    the quotients of the translation modes themselves.

    The metric solve inside Lanczos uses a sparse factorization, sized for
    the production two-dimensional geometry (fine three-dimensional grids
    would need more memory than this path is designed for).
    """
    k = dec.centers.shape[0]
    wshape = sum(bump_field(spec, dec.profiles[j], dec.centers[j])
                 ** (spec.p - 2.0) for j in range(k))
    weight = (spec.p - 1.0) * wshape
    h_sp, m_sp, inner, n_int = _interior_operators(spec, weight)

    cols = []
    trans_cols = []
    for j in range(k):
        cols.append(bump_field(spec, dec.profiles[j],
                               dec.centers[j])[inner].ravel())
        for t in bump_translation_fields(spec, dec.profiles[j],
                                         dec.centers[j]):
            col = t[inner].ravel()
            cols.append(col)
            trans_cols.append(col)
    constraints = np.stack(cols, axis=1)

    tq = []
    for col in trans_cols:
        hq = float(col @ (h_sp @ col))
        mq = float(col @ (m_sp @ col))
        tq.append(hq / mq)

    # M is symmetric, so the transpose of its CSR form is its CSC form.
    m_inv = LinearOperator(m_sp.shape, matvec=splu(m_sp.T).solve, dtype=float)
    un_vals, _ = _smallest_eigs(h_sp, m_sp, m_inv, n_int, 2, seed)
    lift = 10.0 * (1.0 + abs(float(un_vals[0])))
    pen_op = _penalized_operator(h_sp, m_sp, constraints, lift)
    pr_vals, _ = _smallest_eigs(pen_op, m_sp, m_inv, n_int, 1, seed)
    return CoercivityReport(rho=float(pr_vals[0]),
                            unprojected_min=float(un_vals[0]),
                            unprojected_second=float(un_vals[1]),
                            translation_quotients=np.array(tq))


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
                     perturbations: Tuple[AnsatzTweak, AnsatzTweak],
                     cfg: Optional[NewtonConfig] = None) -> UniquenessReport:
    """Solve twice from perturbed initializations and compare sup norms.

    The base ansatz is validated against the problem once; each tweak then
    perturbs the initial field directly (scaled amplitudes, bumps placed at
    shifted centers) without re-validating, since a shifted center no
    longer sits at the well floor.  The claim under test is that both runs
    land on the same solution; it passes when the relative sup difference
    is at or below 1e-8.
    """
    if len(perturbations) != 2:
        raise DomainError("uniqueness probe compares exactly two runs")
    build_ansatz(spec, ansatz)
    k = len(ansatz.bumps)
    fields = []
    for tweak in perturbations:
        shifts = _tweak_shifts(spec, k, tweak)
        vals = np.zeros(spec.grid.counts)
        for j, b in enumerate(ansatz.bumps):
            center = np.asarray(b.center, dtype=float) + shifts[j]
            vals += (b.amplitude * tweak.amp_scale
                     * bump_field(spec, b.profile, center))
        u0 = make_field(spec.grid, vals)
        u, _ = newton_solve(spec, u0, cfg)
        fields.append(u)
    diff = fields[0].values - fields[1].values
    sup_diff = float(np.abs(diff).max())
    sup_u = float(np.abs(fields[0].values).max())
    if sup_diff > 1e-12 * sup_u and sup_diff > 0.0:
        xi = make_field(spec.grid, diff / sup_diff)
        return UniquenessReport(sup_diff=sup_diff, xi_field=xi,
                                normalized=True)
    return UniquenessReport(sup_diff=sup_diff, xi_field=None,
                            normalized=False)
