import numpy as np
import pytest
import scipy.linalg

from nlsbump.radial import eval_profile, solve_ground_state


@pytest.fixture(scope="session")
def get_profile():
    """Session-wide cache of ground-state profiles keyed by (v_a, p, dim).

    Shooting solves are the most expensive fixture in the suite, and many
    tests want the same canonical profiles; solve each combination once.
    """
    cache = {}

    def get(v_a, p, dim):
        key = (float(v_a), float(p), int(dim))
        if key not in cache:
            cache[key] = solve_ground_state(*key)
        return cache[key]

    return get


def radial_pencil_spectrum(profile, v_a, p, ell, r_max=18.0, n=1800):
    """Dense finite-volume spectrum of one angular sector of the pencil.

    In bump coordinates the linearized-Hessian-versus-energy-metric pencil
    splits by angular sector ell:

        H_l v = -(r^{1-N} (r^{N-1} v')') + [l(l+N-2)/r^2 + v_a
                 - (p-1) U^{p-2}] v
        M_l v = -(r^{1-N} (r^{N-1} v')') + [l(l+N-2)/r^2 + v_a] v

    discretized on cell centers r_i = (i+1/2) h with face-area flux
    coefficients, Dirichlet at r_max.  The cell measure r^{N-1} h makes
    both matrices symmetric, so a dense generalized eigensolve applies.
    This is an independent oracle for the grid-based coercivity estimate:
    entirely one-dimensional, no shared discretization code.
    """
    dim = profile.dim
    h = r_max / n
    r_cells = (np.arange(n) + 0.5) * h
    r_faces = np.arange(n + 1) * h
    w = r_cells ** (dim - 1) * h
    uu = eval_profile(profile, r_cells)[0]
    face = r_faces ** (dim - 1) / h
    main = face[:-1] + face[1:]
    off = -face[1:-1]
    stiff = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    cent = ell * (ell + dim - 2) / r_cells ** 2
    m_mat = stiff + np.diag(w * (v_a + cent))
    h_mat = m_mat - np.diag(w * (p - 1.0) * uu ** (p - 2.0))
    return scipy.linalg.eigh(h_mat, m_mat, eigvals_only=True)


@pytest.fixture(scope="session")
def pencil_oracle(get_profile):
    """Cached radial pencil spectra, keyed by (v_a, p, dim, ell)."""
    cache = {}

    def get(v_a, p, dim, ell):
        key = (float(v_a), float(p), int(dim), int(ell))
        if key not in cache:
            prof = get_profile(v_a, p, dim)
            cache[key] = radial_pencil_spectrum(prof, v_a, p, ell)
        return cache[key]

    return get
