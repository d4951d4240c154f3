"""Numerical rank: the one rule behind every rank and null-space decision,

    rank(A) = #{ i : s_i > rcond * max(scale, s_1) }

over the singular values s_1 >= s_2 >= ... of A (Golub & Van Loan, *Matrix
Computations*, 5.4).  It is strict, so an empty or zero matrix has rank 0; a
stack ``(..., m, n)`` is ranked per matrix.  ``scale`` is the magnitude of
the problem A comes from (0: A is its own reference).  Relative to s_1 alone
the cutoff would find no kernel where s_1 itself is the residual, as for
Delta(lam) at a root of a scalar equation (``invariants.char_scale``); relative
to scale alone it would count a large matrix's rounding noise as rank.

Each bound is one named constant, here when modules share it; a bound on a
quantity with a magnitude is ``tol * max(1, size)`` (:func:`scaled`).
"""

import numpy as np

RANK_RCOND = 1e-9         # rank tests of the unfolding machinery
NULLSPACE_RCOND = 1e-8    # null spaces of the characteristic matrix
REP_TOL = 1e-8            # residuals of an induced representation, and the commutant cut
GRAM_RCOND = 1e-10        # a singular Gram block of an eigenframe
SINGULAR_RCOND = 1e-12    # a singular element of a representation, at scale 1
REALIZATION_TOL = 1e-9    # relative residual of a delay realization, row by row and whole
LAG_MATCH_TOL = 1e-14     # two lags this close are one lag (scaled)
LAG_GAP = 1e-9            # a chosen lag this close to another collides with it
EPS = np.finfo(float).eps  # rcond max(m, n) * EPS (numpy's default): rank lost to rounding only


def scaled(tol, size):
    """The bound ``tol * max(1, size)``; a NaN size counts as 1, as in ``max``."""
    return tol * np.fmax(1.0, size)


def _count(s, scale, rcond):
    """The rule applied to descending singular values along the last axis."""
    return np.sum(s > rcond * np.maximum(scale, s[..., :1]), axis=-1)


def rank(A, scale=0.0, rcond=RANK_RCOND):
    """Numerical rank of A, or an int array of ranks for a stack of matrices."""
    r = _count(np.linalg.svd(A, compute_uv=False), scale, rcond)
    return r if np.ndim(A) > 2 else int(r)


def svd_rank(A, scale=0.0, rcond=RANK_RCOND, full_matrices=True):
    """``U, Vh`` of the SVD of A and its numerical rank r."""
    U, s, Vh = np.linalg.svd(A, full_matrices=full_matrices)
    return U, Vh, int(_count(s, scale, rcond))


def ad_matrix(B):
    """Matrix of ``Y -> B Y - Y B`` acting on row-major vec(Y)."""
    eye = np.eye(B.shape[0])
    return np.kron(B, eye) - np.kron(eye, B.T)


def null_basis(A, scale=0.0, rcond=RANK_RCOND):
    """Orthonormal columns spanning the numerical null space of A.

    A tall or square A takes the thin SVD, whose ``Vh`` is already square; a
    wide one needs the full SVD for the null rows beyond its row count."""
    A = np.asarray(A)
    _, Vh, r = svd_rank(A, scale, rcond, full_matrices=A.shape[-2] < A.shape[-1])
    return Vh[r:].conj().T
