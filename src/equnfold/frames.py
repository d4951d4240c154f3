"""Critical spectra, normalized eigenbases, and the reduced matrix.

Given a point-delay operator and a finite set Lambda of characteristic
roots, this module builds bases Phi (columns spanning the center
eigenspace) and Psi (rows spanning its dual) normalized so the Gram matrix
of the adjoint bilinear form is the identity.  With Phi' = Phi B they are
Phi(theta) = Phi(0) exp(B theta) and Psi(s) = exp(-B s) Psi(0), so a frame
is its two direction arrays and its spectrum.  The reduced dynamics on the
center coordinates is then ``x' = B x`` with B diagonal (only semisimple
spectra are supported at the function level; the matrix-level unfolding
machinery accepts arbitrary B).

When the operator commutes with a group representation, the group acts on
the center coordinates through an induced representation G computed from
the pairing ``G(g)_ij = (psi_i, rho(g) phi_j)``; B commutes with every
G(g).
"""

from typing import NamedTuple

import numpy as np

from . import invariants
from ._linalg import GRAM_RCOND, NULLSPACE_RCOND, eigen_groups, null_basis, rank
from .delays import pairing_matrix
from .errors import FrameError, RootFindingError
from .groups import Representation

DERIV_FLOOR = 1e-14        # |d det| below this: suspected multiple root, use the secant
ROOT_TOL = 1e-12           # relative Newton step of a converged root; the default |det| floor
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
    most ``ROOT_TOL * max(1, |lam|)``.  The second test is what converges on
    large systems: det Delta grows roughly geometrically with the dimension,
    so at a root its rounding floor can sit far above any absolute ``tol``.
    ``tol`` is the first test's floor only: a model in a slow time unit,
    whose det is small everywhere, lowers it and keeps the step test.

    Raises
    ------
    RootFindingError
        After ``max_iter`` steps without either test passing, or at the first
        iterate where lam or det Delta(lam) is not finite (an overflowed
        exponential); the message names the last iterate.
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
            if abs(step) <= ROOT_TOL * max(1.0, abs(lam)):
                _require_finite_iterate(lam, f, it + 1)
                return RootResult(root=lam, residual=abs(f), iterations=it + 1,
                                  used_secant=False)
    raise RootFindingError(
        f"no convergence after {max_iter} iterations; last iterate {lam} with |det| = {abs(f):.3e}")


def critical_roots(op, seeds, tol=ROOT_TOL):
    """The distinct roots :func:`find_root` reaches from ``seeds``, in seed
    order, and for each the index of the first seed that reached it; two are
    one by ``_linalg.eigen_groups`` at scale ``sum_k ||A_k||_2``.
    On a real model a seed whose conjugate Newton solved takes the conjugate
    root: Newton takes the conjugate steps bit for bit, a secant fallback not."""
    roots, solved = [], {}
    for seed in seeds:
        if seed.conjugate() in solved:
            roots.append(solved[seed.conjugate()].conjugate())
            continue
        res = find_root(op, seed, tol=tol)
        roots.append(res.root)
        if op.is_real and not res.used_secant:
            solved[seed] = res.root
    if not roots:
        raise RootFindingError("no characteristic roots found from the given seeds")
    firsts = [block[0] for block in eigen_groups(roots, op.norm_sum)]
    return [roots[i] for i in firsts], firsts


def _require_finite_iterate(lam, f, iterations):
    if not (np.isfinite(lam) and np.isfinite(f)):
        raise RootFindingError(
            f"non-finite iterate {lam} with det {f} after {iterations} iterations")


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
    column), ``phi``/``psi`` the directions Phi(0)^T and Psi(0) (row j of
    each goes with ``lambdas[j]``), and ``G`` the induced representation on
    the center coordinates once :func:`induce_representation` has run.
    """

    op: object
    lambdas: tuple      # c complex exponents, one per column of Phi
    phi: np.ndarray     # (c, n): row j is phi_j(0)
    psi: np.ndarray     # (c, n): row j is psi_j(0)
    G: Representation = None

    @property
    def c(self):
        return len(self.lambdas)

    @property
    def B(self):
        """The (c, c) reduced matrix diag(lambdas): x' = B x on the center coordinates."""
        return np.diag(np.array(self.lambdas, dtype=complex))

    def Phi_at(self, theta):
        """The (n, c) matrix Phi(theta) = Phi(0) exp(Lambda theta), C-ordered so
        that every product with it takes one BLAS layout."""
        return np.ascontiguousarray(self.phi.T * np.exp(np.array(self.lambdas) * theta))

    def gram(self):
        """The pairing matrix ``(Psi, Phi)``; the identity for a normalized frame."""
        lams = np.array(self.lambdas)
        return pairing_matrix(self.psi, lams, self.phi, lams, self.op)


def _first_significant(v):
    """Index of the first entry of v above ``SIGNIFICANT_RCOND`` max |v|."""
    return int(np.argmax(np.abs(v) > SIGNIFICANT_RCOND * np.max(np.abs(v))))


def _phase_fix(v):
    k = _first_significant(v)
    return v / (v[k] / abs(v[k]))


def _null_pair(op, lam, seeds, scale):
    """A root's right directions U and raw left rows W as (m, n) arrays: U
    the seeds, checked, or the ordered null basis of Delta(lam)."""
    D = op.char_matrix(lam)
    N = null_basis(D, scale, NULLSPACE_RCOND)
    if N.shape[1] == 0:
        raise FrameError(f"{lam} is not a characteristic root (empty null space)")
    if seeds is not None:
        U = np.array([np.asarray(s, dtype=complex).reshape(-1) for s in seeds])
        if len(U) != N.shape[1]:
            raise FrameError(
                f"inconsistent multiplicities at {lam}: {len(U)} seeds for a "
                f"{N.shape[1]}-dimensional null space"
            )
        # a seed is a direction, checked at largest entry 1: no overflow, no underflow
        size = np.max(np.abs(U), axis=1, keepdims=True)
        units = U / np.where(size > 0, size, 1.0)
        if rank(units.T) < len(U):
            raise FrameError(f"seed vectors at {lam} are linearly dependent")
        for u in units:
            if np.linalg.norm(D @ u) > NULLSPACE_RCOND * scale * np.linalg.norm(u):
                raise FrameError(f"seed vector at {lam} is not in the null space")
    else:
        # deterministic order: descending |first significant component|
        U = np.array(sorted((_phase_fix(u) for u in N.T), key=lambda u: (
            -abs(u[_first_significant(u)]), _first_significant(u))))
    L = null_basis(D.T, scale, NULLSPACE_RCOND)
    if L.shape[1] != len(U):
        raise FrameError(f"left/right null dimensions disagree at {lam}")
    return U, np.array([_phase_fix(w) for w in L.T])


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
    The frame is built one root at a time.  Each root takes its right
    directions U and raw left rows W; for an exactly real operator an
    unseeded root that equals the conjugate of an earlier root, bit for bit
    (as :func:`critical_roots` returns it), takes the conjugates of the
    first such root's.  The adjoint pairing of two distinct roots'
    eigenspaces vanishes, so each root's rows are renormalized by the
    inverse of its own Gram block (W, U), a diagonal block of one pairing
    over all roots, and (Psi, Phi) = I holds.

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
    norm_sum = op.norm_sum
    deriv_size = 1.0 + sum(r * float(np.linalg.norm(A, 2)) for r, A in op.terms)

    blocks = []     # per root: (U, W), its directions and raw dual rows
    for i, lam in enumerate(lambdas):
        if op.is_real and i not in seeds and lam.conjugate() in lambdas[:i]:
            blocks.append(tuple(a.conj() for a in blocks[lambdas.index(lam.conjugate())]))
        else:
            blocks.append(_null_pair(op, lam, seeds.get(i), invariants.char_scale(norm_sum, lam)))

    lams = [lam for lam, (U, _) in zip(lambdas, blocks) for _ in U]
    phi = np.concatenate([U for U, _ in blocks])
    K = pairing_matrix(np.concatenate([W for _, W in blocks]), lams, phi, lams, op)
    psi = []
    for lam, (U, W) in zip(lambdas, blocks):
        m, k = len(U), len(psi)       # the root's rows start after the earlier roots'
        Kb = K[k:k + m, k:k + m]
        # the pairing of a null pair is w Delta'(lam) u: rank it against the
        # size of that product, since a block of one is its own reference
        size = deriv_size * max(np.linalg.norm(w) * np.linalg.norm(u) for w, u in zip(W, U))
        if rank(Kb, scale=size, rcond=GRAM_RCOND) < m:
            raise FrameError(
                "defective or mis-ordered spectrum: Gram block is singular "
                f"(eigenvalue {lam}), as on a Jordan chain of that root; "
                "Jordan chains in the function space are unsupported"
            )
        Kbi = np.linalg.inv(Kb)
        psi.extend(sum(Kbi[r, s] * W[s] for s in range(m)) for r in range(m))

    frame = SpectralFrame(op=op, lambdas=tuple(lams), phi=phi, psi=np.array(psi))

    invariants.check("frame.gram_identity", frame)
    invariants.check("frame.null_vectors", frame,
                     where=lambda k: f"eigenvalue {lams[k % len(lams)]}")
    return frame


def induce_representation(frame, rep):
    """Attach the induced representation G on the center coordinates.

    ``G(g)_ij = (psi_i, rho(g) phi_j)_n``; validity of the homomorphism
    property, the pointwise identity ``rho(g) Phi(theta) = Phi(theta) G(g)``
    on a theta sample, the two-sided pairing identity, and commutation with
    B are all checked before the frame is returned.
    """
    op = frame.op
    invariants.check("model.equivariance", op, rep)

    c, n = frame.c, op.n
    order = rep.group.order
    W, V = frame.psi, frame.phi
    lam = mu = np.array(frame.lambdas)
    # columns rho(g) phi_j over all g, one matrix-vector product each
    moved_phi = (rep.matrices[:, None] @ V[None, :, :, None])[..., 0].reshape(order * c, n)
    Gmats = pairing_matrix(W, lam, moved_phi, np.tile(mu, order), op)
    Gmats = np.ascontiguousarray(Gmats.reshape(c, order, c).transpose(1, 0, 2))
    G = Representation(group=rep.group, matrices=Gmats)
    framed = frame._replace(G=G)

    invariants.check("frame.induced_rep", G)
    invariants.check("frame.phi_intertwines", framed, rep)
    # (Psi, g.Phi) is G(g); compare with (Psi.g, Phi), rows psi_i rho(g) over all g
    moved_psi = (W[None, :, None, :] @ rep.matrices[:, None])[:, :, 0, :].reshape(order * c, n)
    H = pairing_matrix(moved_psi, np.tile(lam, order), V, mu, op).reshape(order, c, c)
    invariants.check("frame.two_sided_pairing", H, G, where=lambda k: f"element {k}")
    invariants.check("frame.B_commutes_with_G", G, frame.B)
    return framed
