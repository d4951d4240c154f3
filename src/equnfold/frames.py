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

from dataclasses import dataclass, replace

import numpy as np

from .delays import ExpVector, bilinear_form, check_equivariance
from .errors import FrameError, RootFindingError, StructuralError
from .groups import Representation, check_representation, commutator_residual

NULLSPACE_RCOND = 1e-8     # relative singular-value cutoff for null spaces
CONJ_MATCH_TOL = 1e-9      # tolerance for pairing lam with conj(lam)


def _adjugate(A):
    """Adjugate via cofactors; stable at singular A (dimensions are tiny).

    All n^2 minors are gathered at once, ``minors[i, j]`` being A without
    row j and column i, and their determinants taken in one stacked call,
    which runs the same LU on the same entries as one call per minor.
    """
    n = A.shape[0]
    keep = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)   # keep[k] = range(n) minus k
    minors = A[keep[None, :, :, None], keep[:, None, None, :]]
    idx = np.arange(n)
    sign = (-1) ** (idx[:, None] + idx[None, :])
    return sign * np.linalg.det(minors)


@dataclass(frozen=True)
class RootResult:
    root: complex
    residual: float          # |det Delta(root)|
    iterations: int
    used_secant: bool        # derivative collapsed; secant fallback engaged


def find_root(op, lam0, tol=1e-12, max_iter=100, deriv_floor=1e-14):
    """Newton iteration on ``det Delta(lam)`` from the initial guess lam0.

    The derivative is evaluated through Jacobi's formula
    ``d det = tr(adj(Delta) Delta')``.  If it collapses below ``deriv_floor``
    (suspected multiple root) the iteration switches to a secant method
    started from a perturbed point.

    The iteration stops when ``|det| < tol`` or when a Newton step is at
    most ``tol * max(1, |lam|)``.  The second test is what converges on
    large systems: det Delta grows roughly geometrically with the dimension,
    so at a root its rounding floor can sit far above any absolute ``tol``.

    Raises
    ------
    RootFindingError
        After ``max_iter`` steps without either test passing; the exception
        carries the last iterate.
    """
    lam = complex(lam0)
    used_secant = False
    D = op.char_matrix(lam)
    f = np.linalg.det(D)
    for it in range(max_iter):
        if abs(f) < tol:
            return RootResult(root=lam, residual=abs(f), iterations=it, used_secant=used_secant)
        df = np.trace(_adjugate(D) @ op.char_matrix_deriv(lam))
        if abs(df) < deriv_floor:
            used_secant = True
            lam, f, it2 = _secant(op, lam, tol, max_iter - it)
            if abs(f) < tol:
                return RootResult(root=lam, residual=abs(f), iterations=it + it2,
                                  used_secant=True)
            break
        step = f / df
        lam = lam - step
        D = op.char_matrix(lam)
        f = np.linalg.det(D)
        if abs(step) <= tol * max(1.0, abs(lam)):
            return RootResult(root=lam, residual=abs(f), iterations=it + 1,
                              used_secant=False)
    raise RootFindingError(
        f"no convergence after {max_iter} iterations; last iterate {lam} with |det| = {abs(f):.3e}",
        last_iterate=lam, residual=abs(f),
    )


def _secant(op, lam, tol, max_iter):
    # perturbed second point off the current contour
    scale = max(1.0, abs(lam))
    a = lam
    b = lam + 1e-6 * scale * (1.0 + 1.0j)
    fa = np.linalg.det(op.char_matrix(a))
    fb = np.linalg.det(op.char_matrix(b))
    for it in range(max_iter):
        if abs(fb) < tol:
            return b, fb, it
        denom = fb - fa
        if denom == 0:
            break
        a, b = b, b - fb * (b - a) / denom
        fa, fb = fb, np.linalg.det(op.char_matrix(b))
    return b, fb, max_iter


@dataclass(frozen=True)
class SpectralFrame:
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
        K = np.empty((self.c, self.c), dtype=complex)
        for i, p in enumerate(self.psi):
            for j, q in enumerate(self.phi):
                K[i, j] = bilinear_form(p, q, self.op)
        return K

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


def _char_scale(op, lam):
    """Natural magnitude of the characteristic matrix at lam.

    Null-space cutoffs are taken relative to this, not to Delta's own
    largest singular value: at a root of a scalar equation that largest
    value *is* the residual and a self-relative test would see no kernel.
    """
    return 1.0 + abs(lam) + sum(float(np.linalg.norm(A, 2)) for _, A in op.terms)


def _null_basis(D, scale, rcond=NULLSPACE_RCOND):
    """Orthonormal null-space basis of D with an absolute-scale cutoff."""
    _, s, Vh = np.linalg.svd(D)
    tol = rcond * max(scale, float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return Vh[rank:].conj().T


def _phase_fix(v):
    k = np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v)))
    ph = v[k] / abs(v[k])
    return v / ph


def _order_directions(cols):
    """Deterministic ordering: descending |first significant component|."""
    def key(v):
        k = int(np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v))))
        return (-abs(v[k]), k)
    return sorted(cols, key=key)


def eigenbasis(op, lambdas, seeds=None, residual_tol=1e-9):
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
        On a singular Gram matrix ("defective or mis-ordered spectrum"; a
        Jordan chain in the function space is unsupported), on seed
        mismatches, or when some lam is not actually a root.
    """
    lambdas = [complex(l) for l in lambdas]
    seeds = dict(seeds or {})
    real_op = op.is_real

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
        scale = _char_scale(op, lam)
        N = _null_basis(D, scale)
        if N.shape[1] == 0:
            raise FrameError(f"{lam} is not a characteristic root (empty null space)")
        if i in seeds:
            cand = [np.asarray(s, dtype=complex).reshape(-1) for s in seeds[i]]
            if len(cand) != N.shape[1]:
                raise FrameError(
                    f"inconsistent multiplicities at {lam}: {len(cand)} seeds for a "
                    f"{N.shape[1]}-dimensional null space"
                )
            S = np.column_stack(cand)
            if np.linalg.matrix_rank(S, tol=1e-9 * np.linalg.norm(S, 2)) < len(cand):
                raise FrameError(f"seed vectors at {lam} are linearly dependent")
            for s in cand:
                if np.linalg.norm(D @ s) > 1e-8 * scale * np.linalg.norm(s):
                    raise FrameError(f"seed vector at {lam} is not in the null space")
            right[i] = cand
        else:
            right[i] = _order_directions([_phase_fix(N[:, k]) for k in range(N.shape[1])])
        L = _null_basis(D.T, scale)
        if L.shape[1] != len(right[i]):
            raise FrameError(f"left/right null dimensions disagree at {lam}")
        left_raw[i] = [_phase_fix(L[:, k]) for k in range(L.shape[1])]

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

    K = np.empty((c, c), dtype=complex)
    for i in range(c):
        for j in range(c):
            K[i, j] = bilinear_form(psi_raw[i], phi[j], op)

    # Blockwise inverse keeps each psi a single exponential.
    psi = [None] * c
    for blk in block_slices:
        idx = list(blk)
        Kb = K[np.ix_(idx, idx)]
        sv = np.linalg.svd(Kb, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise FrameError(
                "defective or mis-ordered spectrum: Gram block is singular "
                f"(eigenvalue {lams[idx[0]]}); Jordan chains in the function space "
                "are unsupported"
            )
        Kbi = np.linalg.inv(Kb)
        for r, i in enumerate(idx):
            w = sum(Kbi[r, s] * psi_raw[j].direction for s, j in enumerate(idx))
            psi[i] = ExpVector(w, lams[i], side="row")

    B = np.diag(np.array(lams, dtype=complex))
    frame = SpectralFrame(op=op, lambdas=tuple(lams), phi=tuple(phi), psi=tuple(psi), B=B)

    gram_residual = frame.gram_residual()
    if gram_residual > residual_tol:
        raise FrameError(f"Gram normalization residual {gram_residual:.3e} exceeds {residual_tol}")
    for v in frame.phi:
        r = np.linalg.norm(op.char_matrix(v.exponent) @ v.direction) \
            / (np.linalg.norm(v.direction) * _char_scale(op, v.exponent))
        if r > residual_tol:
            raise FrameError(f"null-vector residual {r:.3e} at {v.exponent}")
    return frame


def induce_representation(frame, rep, tol=1e-8):
    """Attach the induced representation G on the center coordinates.

    ``G(g)_ij = (psi_i, rho(g) phi_j)_n``; validity of the homomorphism
    property, the pointwise identity ``rho(g) Phi(theta) = Phi(theta) G(g)``
    on a theta sample, the two-sided pairing identity, and commutation with
    B are all checked before the frame is returned.
    """
    op = frame.op
    if rep.dim != op.n:
        raise StructuralError(f"representation dim {rep.dim} != state dim {op.n}")
    equiv = check_equivariance(op, rep)
    if equiv > 1e-9:
        raise FrameError(f"operator is not equivariant (residual {equiv:.3e})")

    c = frame.c
    group = rep.group
    Gmats = np.empty((group.order, c, c), dtype=complex)
    for g in group.elements():
        R = rep.matrices[g]
        for j, ph in enumerate(frame.phi):
            moved = ExpVector(R @ ph.direction, ph.exponent, side="column")
            for i, ps in enumerate(frame.psi):
                Gmats[g, i, j] = bilinear_form(ps, moved, op)
    G = Representation(group=group, matrices=Gmats)
    framed = replace(frame, G=G)

    report = check_representation(G, tol=tol)
    if not report.ok:
        raise FrameError(
            f"induced matrices violate the representation property "
            f"(max residual {report.max_residual:.3e}); frame inconsistent"
        )
    pw = framed.intertwining_residual(rep)
    if pw > tol:
        raise FrameError(f"rho(g) Phi != Phi G(g) (residual {pw:.3e})")
    for g in group.elements():
        # (Psi, g.Phi) computed above; compare with (Psi.g, Phi)
        R = rep.matrices[g]
        H = np.empty((c, c), dtype=complex)
        for i, ps in enumerate(frame.psi):
            moved = ExpVector(ps.direction @ R, ps.exponent, side="row")
            for j, ph in enumerate(frame.phi):
                H[i, j] = bilinear_form(moved, ph, op)
        if np.max(np.abs(H - Gmats[g])) > 1e-9:
            raise FrameError(f"(Psi, g.Phi) != (Psi.g, Phi) for element {g}")
    bg = commutator_residual(G, [frame.B])
    if bg > 1e-10:
        raise FrameError(f"B does not commute with G (residual {bg:.3e})")
    return framed
