"""Critical spectra, normalized eigenbases, and the reduced matrix.

Given a point-delay operator and a finite set Lambda of characteristic
roots, this module builds bases Phi (column exponentials spanning the
center eigenspace) and Psi (row exponentials spanning its dual) normalized
so the Gram matrix of the adjoint bilinear form is the identity.  The
reduced dynamics on the center coordinates is then ``x' = B x`` with B
diagonal (only semisimple spectra are supported at the function level; the
matrix-level unfolding machinery accepts arbitrary B).

When the operator commutes with a group representation, the group acts on
the center coordinates through an induced representation G computed from
the pairing ``G(g)_ij = (psi_i, rho(g) phi_j)``; B commutes with every
G(g).
"""

from typing import NamedTuple

import numpy as np

from ._linalg import COMMUTE_TOL, GRAM_RCOND, NULLSPACE_RCOND, REP_TOL, null_basis, rank, scaled
from .delays import ExpVector, check_equivariance, pairing_matrix
from .errors import FrameError, RootFindingError
from .groups import Representation, check_representation, commutator_residual

CONJ_MATCH_TOL = 1e-9      # tolerance for pairing lam with conj(lam)
DERIV_FLOOR = 1e-14        # |d det| below this: suspected multiple root, use the secant
ROOT_TOL = 1e-12           # |det| or relative Newton step of a converged root
FRAME_RESIDUAL_TOL = 1e-9  # Gram, pairing and null-vector residuals of a built frame
EQUIVARIANCE_TOL = 1e-9    # commutation residual of the operator's terms with the group
SECANT_STEP = 1e-6         # relative offset of the secant fallback's second point
SIGNIFICANT_RCOND = 1e-12  # a component below this times max |v| is not significant


def _det_derivative(D, Dp):
    """``d det Delta = tr(adj(Delta) Delta')`` (Jacobi's formula), stable at a
    singular Delta (dimensions are tiny).

    The trace reads ``adj[i, j]`` only against ``Dp[j, i]``, so only the
    cofactors on the support of ``Dp.T`` are taken; the others stay exact
    zeros, whose products add exact zeros to the same sums in the same order.
    The minors are gathered at once, ``minors[k]`` being D without row j_k
    and column i_k, and their determinants taken in one stacked call, which
    runs the same LU on the same entries as one call per minor.
    """
    n = D.shape[0]
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)   # keep[k] = range(n) minus k
    i, j = np.nonzero(Dp.T)
    minors = D[keep[j][:, :, None], keep[i][:, None, :]]
    adj = np.zeros((n, n), dtype=complex)
    adj[i, j] = (-1) ** (i + j) * np.linalg.det(minors)
    return np.trace(adj @ Dp)


class RootResult(NamedTuple):
    root: complex
    residual: float          # |det Delta(root)|
    iterations: int
    used_secant: bool        # derivative collapsed; secant fallback engaged


def find_root(op, lam0, tol=ROOT_TOL, max_iter=100):
    """Newton iteration on ``det Delta(lam)`` from the initial guess lam0.

    The derivative is evaluated through Jacobi's formula
    ``d det = tr(adj(Delta) Delta')``, taking only the cofactors on the
    support of ``Delta'^T`` (2n of the n^2 on a ring).  If it collapses
    below ``DERIV_FLOOR`` (suspected multiple root) the iteration switches
    to a secant method started from a perturbed point.

    The iteration stops when ``|det| < tol`` or when a Newton step is at
    most ``tol * max(1, |lam|)``.  The second test is what converges on
    large systems: det Delta grows roughly geometrically with the dimension,
    so at a root its rounding floor can sit far above any absolute ``tol``.

    Raises
    ------
    RootFindingError
        After ``max_iter`` steps without either test passing, or at the first
        iterate where lam or det Delta(lam) is not finite (an overflowed
        exponential); the exception carries the last iterate.
    """
    with np.errstate(all="ignore"):     # overflow is caught as a non-finite iterate
        lam = complex(lam0)
        D = op.char_matrix(lam)
        f = np.linalg.det(D)
        for it in range(max_iter):
            _require_finite_iterate(lam, f, it)
            if abs(f) < tol:
                return RootResult(root=lam, residual=abs(f), iterations=it,
                                  used_secant=False)
            df = _det_derivative(D, op.char_matrix_deriv(lam))
            if abs(df) < DERIV_FLOOR:
                lam, f, it2 = _secant(op, lam, tol, max_iter - it)
                _require_finite_iterate(lam, f, it + it2)
                if abs(f) < tol:
                    return RootResult(root=lam, residual=abs(f), iterations=it + it2,
                                      used_secant=True)
                break
            step = f / df
            lam = lam - step
            D = op.char_matrix(lam)
            f = np.linalg.det(D)
            if abs(step) <= tol * max(1.0, abs(lam)):
                _require_finite_iterate(lam, f, it + 1)
                return RootResult(root=lam, residual=abs(f), iterations=it + 1,
                                  used_secant=False)
    raise RootFindingError(
        f"no convergence after {max_iter} iterations; last iterate {lam} with |det| = {abs(f):.3e}",
        last_iterate=lam, residual=abs(f),
    )


def _require_finite_iterate(lam, f, iterations):
    if not (np.isfinite(lam) and np.isfinite(f)):
        raise RootFindingError(
            f"non-finite iterate {lam} with det {f} after {iterations} iterations",
            last_iterate=lam, residual=abs(f),
        )


def _secant(op, lam, tol, max_iter):
    """Secant steps from lam; stops early on convergence or a non-finite value."""
    # perturbed second point off the current contour
    scale = max(1.0, abs(lam))
    a = lam
    b = lam + SECANT_STEP * scale * (1.0 + 1.0j)
    fa = np.linalg.det(op.char_matrix(a))
    fb = np.linalg.det(op.char_matrix(b))
    for it in range(max_iter):
        if abs(fb) < tol or not (np.isfinite(b) and np.isfinite(fb)):
            return b, fb, it
        denom = fb - fa
        if denom == 0:
            break
        a, b = b, b - fb * (b - a) / denom
        fa, fb = fb, np.linalg.det(op.char_matrix(b))
    return b, fb, max_iter


class SpectralFrame(NamedTuple):
    """Normalized eigenframe for a finite critical spectrum.

    ``lambdas`` lists the eigenvalues with multiplicity (one entry per basis
    column), ``phi``/``psi`` the exponential basis vectors, ``B`` the reduced
    matrix, and ``G`` the induced representation on the center coordinates
    once :func:`induce_representation` has run.
    """

    op: object
    lambdas: tuple      # c complex exponents, one per column of Phi
    phi: tuple          # c column ExpVectors
    psi: tuple          # c row ExpVectors
    B: np.ndarray       # (c, c)
    G: Representation = None

    @property
    def c(self):
        return len(self.lambdas)

    def Phi_at(self, theta):
        """The (n, c) matrix Phi(theta)."""
        return np.column_stack([v(theta) for v in self.phi])

    def Psi_at(self, s):
        """The (c, n) matrix Psi(s)."""
        return np.array([v(s) for v in self.psi])

    @property
    def Psi0(self):
        return self.Psi_at(0.0)

    def gram(self):
        """The pairing matrix ``(Psi, Phi)``; the identity for a normalized frame."""
        return pairing_matrix(*_stack(self.psi), *_stack(self.phi), self.op)

    def null_vector_residuals(self):
        """``||Delta(lam) v|| / ||v||`` for each phi column, then each psi
        row; zero for exact null vectors."""
        op = self.op
        return ([float(np.linalg.norm(op.char_matrix(v.exponent) @ v.direction)
                       / np.linalg.norm(v.direction)) for v in self.phi]
                + [float(np.linalg.norm(w.direction @ op.char_matrix(w.exponent))
                         / np.linalg.norm(w.direction)) for w in self.psi])

    def gram_residual(self):
        """Max entrywise ``|(Psi, Phi) - I|``; zero for a normalized frame."""
        return float(np.max(np.abs(self.gram() - np.eye(self.c))))

    def intertwining_residual(self, rep):
        """Max entrywise ``|rho(g) Phi(theta) - Phi(theta) G(g)|`` over every
        element g and nine theta samples spanning [-tau, 0]."""
        thetas = np.linspace(-self.op.tau, 0.0, 9) if self.op.tau > 0 else [0.0]
        res = 0.0
        for th in thetas:
            P = self.Phi_at(th)
            res = max(res, float(np.max(np.abs(rep.matrices @ P - P @ self.G.matrices))))
        return res


def _stack(vectors):
    """Directions (rows) and exponents of a sequence of ExpVectors."""
    return np.array([v.direction for v in vectors]), np.array([v.exponent for v in vectors])


def _char_scale(norm_sum, lam):
    """Natural magnitude of Delta(lam), the ``scale`` of its null-space cutoff:
    at a root of a scalar equation Delta's own singular value is the residual.
    ``norm_sum`` is ``sum_k ||A_k||_2`` over the operator's terms, in order."""
    return 1.0 + abs(lam) + norm_sum


def _first_significant(v):
    """Index of the first entry of v above ``SIGNIFICANT_RCOND`` max |v|."""
    return int(np.argmax(np.abs(v) > SIGNIFICANT_RCOND * np.max(np.abs(v))))


def _phase_fix(v):
    k = _first_significant(v)
    return v / (v[k] / abs(v[k]))


def eigenbasis(op, lambdas, seeds=None):
    """Build a normalized :class:`SpectralFrame` over the given eigenvalues.

    Parameters
    ----------
    op : DelayOperator
    lambdas : sequence of complex
        Distinct verified characteristic roots; geometric multiplicity is
        read off the null space of Delta(lam) (relative SVD cutoff 1e-8).
    seeds : dict, optional
        Maps the *position* of an eigenvalue in ``lambdas`` to a list of
        null vectors to use, in order, instead of the SVD basis.  This is
        how a caller pins a preferred basis (and its ordering) inside a
        multi-dimensional null space.

    Notes
    -----
    Right null directions are gathered per eigenvalue; raw left null rows
    are renormalized by the inverse Gram matrix (blockwise per eigenvalue)
    so that (Psi, Phi) = I holds.  For a real operator the rows attached to
    ``conj(lam)`` are the conjugates of those attached to ``lam`` whenever
    both appear, and likewise for unseeded column directions.

    Raises
    ------
    FrameError
        On a Gram block singular against the size of Delta' ("defective or
        mis-ordered spectrum"; a Jordan chain in the function space is
        unsupported), on seed mismatches, or when some lam is not actually a
        root.
    """
    lambdas = [complex(l) for l in lambdas]
    seeds = dict(seeds or {})
    real_op = op.is_real
    norm_sum = sum(float(np.linalg.norm(A, 2)) for _, A in op.terms)
    deriv_size = 1.0 + sum(r * float(np.linalg.norm(A, 2)) for r, A in op.terms)

    # conjugate partner appearing *earlier* in the list
    partner = [None] * len(lambdas)
    if real_op:
        for i, lam in enumerate(lambdas):
            for j in range(i):
                if abs(lambdas[j].conjugate() - lam) < CONJ_MATCH_TOL:
                    partner[i] = j
                    break

    right = {}   # position -> list of directions
    left_raw = {}
    for i, lam in enumerate(lambdas):
        if partner[i] is not None and i not in seeds:
            right[i] = [u.conj() for u in right[partner[i]]]
            left_raw[i] = [w.conj() for w in left_raw[partner[i]]]
            continue
        D = op.char_matrix(lam)
        scale = _char_scale(norm_sum, lam)
        N = null_basis(D, scale, NULLSPACE_RCOND)
        if N.shape[1] == 0:
            raise FrameError(f"{lam} is not a characteristic root (empty null space)")
        if i in seeds:
            cand = [np.asarray(s, dtype=complex).reshape(-1) for s in seeds[i]]
            if len(cand) != N.shape[1]:
                raise FrameError(
                    f"inconsistent multiplicities at {lam}: {len(cand)} seeds for a "
                    f"{N.shape[1]}-dimensional null space"
                )
            if rank(np.column_stack(cand)) < len(cand):
                raise FrameError(f"seed vectors at {lam} are linearly dependent")
            for s in cand:
                if np.linalg.norm(D @ s) > NULLSPACE_RCOND * scale * np.linalg.norm(s):
                    raise FrameError(f"seed vector at {lam} is not in the null space")
            right[i] = cand
        else:
            # deterministic order: descending |first significant component|
            right[i] = sorted((_phase_fix(u) for u in N.T), key=lambda u: (
                -abs(u[_first_significant(u)]), _first_significant(u)))
        L = null_basis(D.T, scale, NULLSPACE_RCOND)
        if L.shape[1] != len(right[i]):
            raise FrameError(f"left/right null dimensions disagree at {lam}")
        left_raw[i] = [_phase_fix(w) for w in L.T]

    phi, psi_raw, lams = [], [], []
    block_slices = []
    pos = 0
    for i, lam in enumerate(lambdas):
        m = len(right[i])
        for u in right[i]:
            phi.append(ExpVector(u, lam, side="column"))
        for w in left_raw[i]:
            psi_raw.append(ExpVector(w, lam, side="row"))
        lams.extend([lam] * m)
        block_slices.append(range(pos, pos + m))
        pos += m
    c = pos

    K = SpectralFrame(op=op, lambdas=tuple(lams), phi=tuple(phi), psi=tuple(psi_raw), B=None).gram()

    # Blockwise inverse keeps each psi a single exponential.
    psi = [None] * c
    for blk in block_slices:
        idx = list(blk)
        Kb = K[np.ix_(idx, idx)]
        # the pairing of a null pair is w Delta'(lam) u: rank it against the
        # size of that product, since a block of one is its own reference
        size = deriv_size * max(np.linalg.norm(psi_raw[i].direction)
                                * np.linalg.norm(phi[i].direction) for i in idx)
        if rank(Kb, scale=size, rcond=GRAM_RCOND) < len(idx):
            raise FrameError(
                "defective or mis-ordered spectrum: Gram block is singular "
                f"(eigenvalue {lams[idx[0]]}), as on a Jordan chain of that root; "
                "Jordan chains in the function space are unsupported"
            )
        Kbi = np.linalg.inv(Kb)
        for r, i in enumerate(idx):
            w = sum(Kbi[r, s] * psi_raw[j].direction for s, j in enumerate(idx))
            psi[i] = ExpVector(w, lams[i], side="row")

    B = np.diag(np.array(lams, dtype=complex))
    frame = SpectralFrame(op=op, lambdas=tuple(lams), phi=tuple(phi), psi=tuple(psi), B=B)

    gram_residual = frame.gram_residual()
    if gram_residual > FRAME_RESIDUAL_TOL:
        raise FrameError(f"Gram normalization residual {gram_residual:.3e} "
                         f"exceeds {FRAME_RESIDUAL_TOL}")
    for v, r in zip(frame.phi + frame.psi, frame.null_vector_residuals()):
        r /= _char_scale(norm_sum, v.exponent)
        if r > FRAME_RESIDUAL_TOL:
            raise FrameError(f"null-vector residual {r:.3e} at {v.exponent}")
    return frame


def induce_representation(frame, rep):
    """Attach the induced representation G on the center coordinates.

    ``G(g)_ij = (psi_i, rho(g) phi_j)_n``; validity of the homomorphism
    property, the pointwise identity ``rho(g) Phi(theta) = Phi(theta) G(g)``
    on a theta sample, the two-sided pairing identity, and commutation with
    B are all checked before the frame is returned.
    """
    op = frame.op
    equiv = check_equivariance(op, rep)
    if equiv > EQUIVARIANCE_TOL:
        raise FrameError(f"operator is not equivariant (residual {equiv:.3e})")

    c, n = frame.c, op.n
    order = rep.group.order
    W, lam = _stack(frame.psi)
    V, mu = _stack(frame.phi)
    # columns rho(g) phi_j over all g, one matrix-vector product each
    moved_phi = (rep.matrices[:, None] @ V[None, :, :, None])[..., 0].reshape(order * c, n)
    Gmats = pairing_matrix(W, lam, moved_phi, np.tile(mu, order), op)
    Gmats = np.ascontiguousarray(Gmats.reshape(c, order, c).transpose(1, 0, 2))
    G = Representation(group=rep.group, matrices=Gmats)
    framed = frame._replace(G=G)

    report = check_representation(G, tol=REP_TOL)
    if not report.ok:
        raise FrameError(
            f"induced matrices violate the representation property "
            f"(max residual {report.max_residual:.3e}); frame inconsistent"
        )
    pw = framed.intertwining_residual(rep)
    if pw > REP_TOL:
        raise FrameError(f"rho(g) Phi != Phi G(g) (residual {pw:.3e})")
    # (Psi, g.Phi) is G(g); compare with (Psi.g, Phi), rows psi_i rho(g) over all g
    moved_psi = (W[None, :, None, :] @ rep.matrices[:, None])[:, :, 0, :].reshape(order * c, n)
    H = pairing_matrix(moved_psi, np.tile(lam, order), V, mu, op).reshape(order, c, c)
    bad = np.nonzero(np.max(np.abs(H - Gmats), axis=(1, 2)) > FRAME_RESIDUAL_TOL)[0]
    if len(bad):
        raise FrameError(f"(Psi, g.Phi) != (Psi.g, Phi) for element {bad[0]}")
    bg = commutator_residual(G, [frame.B])
    if bg > scaled(COMMUTE_TOL, np.max(np.abs(frame.B))):
        raise FrameError(f"B does not commute with G (residual {bg:.3e})")
    return framed
