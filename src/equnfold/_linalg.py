"""Numerical rank: the one rule behind every rank, null-space and
least-squares cut,

    rank(A) = #{ i : s_i > rcond * max(scale, s_1) }

over the singular values s_1 >= s_2 >= ... of A (Golub & Van Loan, *Matrix
Computations*, 5.4).  It is strict, so an empty or zero matrix has rank 0; a
stack ``(..., m, n)`` is ranked per matrix.  ``scale`` is the magnitude of
the problem A comes from (0: A is its own reference).  Relative to s_1 alone
the cutoff would find no kernel where s_1 itself is the residual, as for
Delta(lam) at a root of a scalar equation (``invariants.char_scale``); relative
to scale alone it would count a large matrix's rounding noise as rank.

Two eigenvalues are one by one rule too, :func:`eigen_groups`, relative to
their spectrum's magnitude, so covariant under t -> t / s; two lags are one
by :func:`same_lag`.  Each bound is one named constant, here when modules
share it; a bound on a quantity with a magnitude is ``tol * max(1, size)``
(:func:`scaled`).

A matrix with a non-finite entry has no numerical rank: each helper here
refuses one (a QR factor R too: a column norm past the float range overflows
it) with an ``EqunfoldError`` before LAPACK, which may raise, print an
illegal-value line, return non-finite singular values or hang; a non-finite
residual fails its invariant.  So an overflow in the pipeline fails the first
check or rank decision it reaches, with no traceback, LAPACK line or hang.
"""

import numpy as np

from .errors import EqunfoldError

RANK_RCOND = 1e-9         # rank tests of the unfolding machinery
NULLSPACE_RCOND = 1e-8    # null spaces of the characteristic matrix
REP_TOL = 1e-8            # residuals of an induced representation, and the commutant cut
GRAM_RCOND = 1e-10        # a singular Gram block of an eigenframe
SINGULAR_RCOND = 1e-12    # a singular element of a representation, at scale 1
REALIZATION_TOL = 1e-9    # relative residual of a delay realization, row by row and whole
EIG_MATCH_TOL = 1e-9      # two eigenvalues this close, relative to their spectrum, are one
LAG_MATCH_TOL = 1e-14     # two lags this close are one lag (scaled)
EPS = np.finfo(float).eps  # rcond max(m, n) * EPS (numpy's default): rank lost to rounding only


def scaled(tol, size):
    """The bound ``tol * max(1, size)``; a NaN size counts as 1, as in ``max``."""
    return tol * np.fmax(1.0, size)


def same_lag(r, s):
    """Whether r and s are one lag, ``|r - s| < scaled(LAG_MATCH_TOL, r)``: the
    one rule of every lag decision (a repeated lag, a merge, a collision)."""
    return abs(r - s) < scaled(LAG_MATCH_TOL, r)


def _finite(A):
    """A, refused if it has a non-finite entry."""
    if not np.isfinite(A).all():
        raise EqunfoldError("a matrix with a non-finite entry has no numerical rank")
    return A


def _count(s, scale, rcond):
    """The rule applied to descending singular values along the last axis."""
    return np.sum(s > rcond * np.maximum(scale, s[..., :1]), axis=-1)


def rank(A, scale=0.0, rcond=RANK_RCOND):
    """Numerical rank of A, or an int array of ranks for a stack of matrices."""
    r = _count(np.linalg.svd(_finite(A), compute_uv=False), scale, rcond)
    return r if np.ndim(A) > 2 else int(r)


def svd_rank(A, scale=0.0, rcond=RANK_RCOND, full_matrices=True):
    """``U, Vh`` of the SVD of A and its numerical rank r."""
    U, s, Vh = np.linalg.svd(_finite(A), full_matrices=full_matrices)
    return U, Vh, int(_count(s, scale, rcond))


def lstsq(A, B):
    """The minimal-norm least-squares solution x of ``A x = B`` (LAPACK gelsd,
    cut at ``RANK_RCOND``) and A's numerical rank at scale 0, counted over the
    singular values gelsd returns; a non-finite B is refused with A."""
    x, _, _, s = np.linalg.lstsq(_finite(A), _finite(B), rcond=RANK_RCOND)
    return x, int(_count(s, 0.0, RANK_RCOND))


def eigen_groups(values, scale=0.0):
    """Index lists of the values that are one eigenvalue, in first-seen order: a
    value joins the first group whose first value is within ``EIG_MATCH_TOL *
    (scale + max |values|)`` (``<=``: exact repeats group at scale 0); ``scale``
    is ``sum_k ||A_k||_2`` for roots of Delta, so that roots at 0 still group."""
    bound = EIG_MATCH_TOL * (scale + max(map(abs, values), default=0.0))
    groups = {}     # a group's first index -> its indices
    for i, lam in enumerate(values):
        first = next((f for f in groups if abs(lam - values[f]) <= bound), i)
        groups.setdefault(first, []).append(i)
    return list(groups.values())


def ad_matrix(B):
    """Matrix of ``Y -> B Y - Y B`` acting on row-major vec(Y)."""
    eye = np.eye(B.shape[0])
    return np.kron(B, eye) - np.kron(eye, B.T)


def null_basis(A, scale=0.0, rcond=RANK_RCOND):
    """Orthonormal columns spanning the numerical null space of A.

    A tall or square A takes the thin SVD, whose ``Vh`` is already square; a
    wide one needs the full SVD for the null rows beyond its row count.  An A
    with at least twice as many rows as columns is ranked by its square QR
    factor R instead, which has A's singular values and right vectors: LAPACK's
    gesdd reduces such an A to R first itself (above 17/9 n rows complex,
    11/6 n real; Chan's R-SVD), so ``s`` and ``Vh`` keep their bits and the
    discarded left factor is never formed."""
    A = np.asarray(A)
    m, n = A.shape[-2:]
    if m >= 2 * n > 0:
        A = np.linalg.qr(_finite(A), mode="r")
    _, Vh, r = svd_rank(A, scale, rcond, full_matrices=m < n)
    return Vh[r:].conj().T
