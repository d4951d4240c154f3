"""Versal and equivariant-versal unfolding machinery.

Matrix level: the tangent space to the similarity orbit of a matrix B is
the image of the commutator map ``ad_B: Y -> [B, Y]``; a complement W
(here: the centralizer of the conjugate transpose, which for diagonal B is
spanned by elementary matrices at positions with equal eigenvalues) spans
the unfolding directions.  A family of candidate directions decomposes as
``Bhat_i = [B, y_i] + sum_j theta_ij Omega_j``; the independent rows of
Theta select a mini-versal subfamily.  Restricting conjugations to the
commutant of a group representation gives the equivariant analogues.

Delay level: each unfolding slot Omega is realized through an n x c matrix
R with ``Psi(0) R = Omega  (mod tangent space)``, and R in turn is realized
by coefficient matrices on a finite set of lags through
``sum_j A_j Phi(-r_j) = R``.  Group-averaging the coefficients produces a
family of equivariant operators whose reduction is an equivariant versal
unfolding of B.
"""

from dataclasses import dataclass

import numpy as np

from .delays import DelayOperator
from .errors import StructuralError, UnfoldingError
from .groups import commutant_basis, commutator_residual, equivariant_average

RANK_RCOND = 1e-9      # relative singular-value threshold for every rank test
DIAG_TOL = 1e-12       # max off-diagonal magnitude for "B is diagonal"
EIG_MATCH_TOL = 1e-9   # tolerance for grouping equal diagonal eigenvalues


def _vec(M):
    return np.asarray(M, dtype=complex).reshape(-1)


def _rank(A, rcond=RANK_RCOND):
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > rcond * s[0]))


def ad_matrix(B):
    """Matrix of ``Y -> B Y - Y B`` acting on row-major vec(Y)."""
    c = B.shape[0]
    eye = np.eye(c)
    return np.kron(B, eye) - np.kron(eye, B.T)


def jordan_codimension(jordan_spec):
    """Orbit codimension ``sum_j sum_l (2l - 1) n_{j,l}``.

    Block sizes are sorted descending within each eigenvalue before the
    weights 1, 3, 5, ... are applied.
    """
    delta = 0
    for _, sizes in jordan_spec:
        for l, njl in enumerate(sorted(sizes, reverse=True), start=1):
            delta += (2 * l - 1) * njl
    return delta


def semisimple_jordan_spec(lambdas):
    """Jordan data for a semisimple matrix with the given eigenvalues.

    ``lambdas`` may repeat; equal values (within tolerance) are merged into
    one eigenvalue with that many size-1 blocks.
    """
    spec = []
    for lam in (complex(l) for l in lambdas):
        for k, (mu, sizes) in enumerate(spec):
            if abs(mu - lam) < EIG_MATCH_TOL:
                spec[k] = (mu, sizes + [1])
                break
        else:
            spec.append((lam, [1]))
    return [(mu, tuple(sizes)) for mu, sizes in spec]


def _validate_jordan_spec(B, jordan_spec):
    """Check the block data against rank tests of (B - lam I)^k."""
    c = B.shape[0]
    total = sum(sum(sizes) for _, sizes in jordan_spec)
    if total != c:
        raise UnfoldingError(f"jordan_spec accounts for {total} of {c} dimensions")
    for lam, sizes in jordan_spec:
        kmax = max(sizes)
        N = B - lam * np.eye(c)
        ranks = [c]
        P = np.eye(c, dtype=complex)
        for _ in range(kmax + 1):
            P = P @ N
            ranks.append(_rank(P))
        for k in range(1, kmax + 1):
            expected = sum(1 for s in sizes if s >= k)
            actual = ranks[k - 1] - ranks[k]
            if actual != expected:
                raise UnfoldingError(
                    f"jordan_spec mismatch at eigenvalue {lam}: {expected} blocks of size "
                    f">= {k} declared, rank tests give {actual}"
                )


def _diag_blocks(diag):
    """Group diagonal entries by (approximate) equality, first-seen order."""
    blocks, values = [], []
    for i, lam in enumerate(diag):
        for k, mu in enumerate(values):
            if abs(lam - mu) < EIG_MATCH_TOL:
                blocks[k].append(i)
                break
        else:
            values.append(lam)
            blocks.append([i])
    return blocks


def _diagonal_complement_slots(diag):
    """Elementary-matrix positions spanning the centralizer of diag(conj).

    Positions (r, c) with equal eigenvalues, ordered by (position of the
    column within its block, position of the row within its block, block).
    For simple spectra this is the diagonal slots in index order.
    """
    slots = []
    for block_idx, block in enumerate(_diag_blocks(diag)):
        for th, ccol in enumerate(block):
            for xi, r in enumerate(block):
                slots.append(((th, xi, block_idx), (r, ccol)))
    slots.sort(key=lambda t: t[0])
    return [pos for _, pos in slots]


@dataclass(frozen=True)
class OrbitGeometry:
    """Tangent space and unfolding complement of the similarity orbit at B."""

    B: np.ndarray
    jordan_spec: tuple
    T_basis: tuple      # basis of im(ad_B), as matrices
    W_basis: tuple      # complement basis; elementary matrices for diagonal B
    delta: int          # orbit codimension == len(W_basis)

    @property
    def c(self):
        return self.B.shape[0]

    def basis_matrix(self):
        """Columns [vec(T) | vec(W)], a nonsingular c^2 x c^2 matrix."""
        cols = [_vec(T) for T in self.T_basis] + [_vec(W) for W in self.W_basis]
        return np.column_stack(cols)


def orbit_geometry(B, jordan_spec):
    """Compute :class:`OrbitGeometry`, cross-checking rank against the
    closed-form codimension for the declared Jordan structure."""
    B = np.asarray(B, dtype=complex)
    c = B.shape[0]
    _validate_jordan_spec(B, jordan_spec)

    AD = ad_matrix(B)
    U, s, _ = np.linalg.svd(AD)
    rank = int(np.sum(s > RANK_RCOND * s[0])) if s[0] > 0 else 0
    delta = c * c - rank
    formula = jordan_codimension(jordan_spec)
    if delta != formula:
        raise UnfoldingError(
            f"rank-based codimension {delta} disagrees with the Jordan formula {formula}; "
            "jordan_spec is wrong for this matrix"
        )
    T_basis = tuple(U[:, k].reshape(c, c) for k in range(rank))

    diag = np.diag(B)
    if c == 1 or np.max(np.abs(B - np.diag(diag))) < DIAG_TOL * max(1.0, np.max(np.abs(diag)) if c else 1.0):
        W_basis = []
        for (r, ccol) in _diagonal_complement_slots(diag):
            E = np.zeros((c, c), dtype=complex)
            E[r, ccol] = 1.0
            W_basis.append(E)
    else:
        # The centralizer of B^H is the null space of ad_{B^H} = ad_B^H, i.e.
        # the left null space of ad_B: its trailing left singular vectors.
        W_basis = [U[:, k].reshape(c, c) for k in range(rank, c * c)]

    if len(W_basis) != delta:
        raise UnfoldingError(
            f"complement dimension {len(W_basis)} != codimension {delta}"
        )
    geo = OrbitGeometry(B=B, jordan_spec=tuple(jordan_spec), T_basis=T_basis,
                        W_basis=tuple(W_basis), delta=delta)
    if _rank(geo.basis_matrix()) != c * c:
        raise UnfoldingError("tangent + complement do not span the matrix space")
    return geo


@dataclass(frozen=True)
class GammaOrbitGeometry:
    """Equivariant orbit data: the commutant, its ad_B image, and the
    dimension of the equivariant centralizer (the equivariant codimension)."""

    B: np.ndarray
    commutant: tuple        # orthonormal basis of Mat^Gamma
    T_basis: tuple          # basis of [B, Mat^Gamma]
    Z_dim: int              # dim of the equivariant centralizer of B

    @property
    def commutant_dim(self):
        return len(self.commutant)

    @property
    def tangent_dim(self):
        return len(self.T_basis)


def gamma_orbit_geometry(B, G, rcond=RANK_RCOND):
    """Restrict the orbit geometry to matrices commuting with the G action."""
    B = np.asarray(B, dtype=complex)
    if commutator_residual(G, [B]) > 1e-10 * max(1.0, np.max(np.abs(B))):
        raise UnfoldingError("B does not commute with the representation")
    comm = commutant_basis(G)
    if not comm:
        raise UnfoldingError("empty commutant")
    images = np.column_stack([_vec(B @ K - K @ B) for K in comm])
    U, s, _ = np.linalg.svd(images)
    # Threshold relative to |B|: commutator columns that vanish to rounding
    # must count as zero even when every column is tiny.
    scale = max(float(np.linalg.norm(B, 2)), float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > rcond * scale)) if scale > 0 else 0
    c = B.shape[0]
    T_basis = tuple(U[:, k].reshape(c, c) for k in range(rank))
    return GammaOrbitGeometry(B=B, commutant=tuple(comm), T_basis=T_basis,
                              Z_dim=len(comm) - rank)


def project_unfolding_directions(directions, G):
    """Apply the commutant projection (group average) to each direction."""
    return [equivariant_average(G, G, D) for D in directions]


@dataclass(frozen=True)
class ThetaReport:
    """Coordinates of unfolding directions in the orbit complement.

    Row i holds the W-coordinates of direction i after removing its
    tangent component; ``selected_rows`` is the earliest maximal
    linearly-independent row set.
    """

    theta: np.ndarray        # (p, delta)
    residuals: tuple         # decomposition residual per direction
    selected_rows: tuple     # indices of the selected rows
    rank: int

    @property
    def k(self):
        return len(self.selected_rows)


def theta_extract(geometry, directions, residual_tol=1e-8, rank_rcond=RANK_RCOND):
    """Decompose each direction over [tangent | complement] and pick rows.

    Every direction must split as ``[B, y] + sum_j theta_j Omega_j`` (it
    always does, the bases span the space); the least-squares residual is
    reported and must stay below ``residual_tol``.  Row selection walks the
    rows in order and keeps those outside the span of the rows already
    kept, with a relative tolerance on the rejection test.
    """
    S = geometry.basis_matrix()
    t = len(geometry.T_basis)
    p = len(directions)
    theta = np.zeros((p, geometry.delta), dtype=complex)
    residuals = []
    for i, D in enumerate(directions):
        D = np.asarray(D, dtype=complex)
        if D.shape != geometry.B.shape:
            raise StructuralError(f"direction {i} has shape {D.shape}")
        x, *_ = np.linalg.lstsq(S, _vec(D), rcond=None)
        res = float(np.linalg.norm(S @ x - _vec(D)))
        if res > residual_tol * max(1.0, float(np.linalg.norm(D))):
            raise UnfoldingError(
                f"direction {i} does not decompose over tangent+complement "
                f"(residual {res:.3e}); the bases are not complementary"
            )
        theta[i] = x[t:]
        residuals.append(res)

    scale = float(np.max(np.abs(theta))) if p else 0.0
    selected = []
    basis = []
    for i in range(p):
        row = theta[i].copy()
        for q in basis:
            row = row - (q.conj() @ row) * q
        if scale > 0 and np.linalg.norm(row) > rank_rcond * scale:
            selected.append(i)
            basis.append(row / np.linalg.norm(row))
    return ThetaReport(theta=theta, residuals=tuple(residuals),
                       selected_rows=tuple(selected), rank=len(selected))


def exponential_delay_matrix(eigenvalues, delays):
    """The matrix ``M[k, j] = exp(-lam_k r_j)`` over distinct eigenvalues.

    Singular exactly when two lags coincide or two eigenvalues coincide;
    its determinant is the genericity certificate for a lag selection.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    delays = np.asarray(delays, dtype=float)
    return np.exp(-np.outer(eigenvalues, delays))


def scaled_det(M):
    """|det| of M after normalizing each row to unit Euclidean norm."""
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    if np.any(norms == 0):
        return 0.0
    return float(abs(np.linalg.det(M / norms)))


def build_R_matrices(frame, geometry, rank_rcond=RANK_RCOND):
    """One n x c matrix per unfolding slot, realizing it through Psi(0).

    The slot Omega = E_{r,c} (an elementary matrix of the diagonal-B
    complement) is realized by placing a vector v in column c, where v
    solves the underdetermined system  Pi v = unit vector selecting row r,
    Pi being the rows of Psi(0) belonging to the eigenvalue block of r.
    The minimal-norm solution is taken.  Then ``Psi(0) R = Omega`` modulo
    the orbit tangent space, exactly.
    """
    Psi0 = frame.Psi0
    n = frame.op.n
    c = frame.c
    lams = np.array(frame.lambdas)
    Rs = []
    for m, W in enumerate(geometry.W_basis):
        nz = np.argwhere(np.abs(W) > 1e-12)
        if len(nz) != 1 or abs(W[nz[0][0], nz[0][1]] - 1.0) > 1e-12:
            raise UnfoldingError(
                "complement basis is not elementary; the delay realization needs the "
                "diagonal-frame complement (semisimple spectrum)"
            )
        r, ccol = int(nz[0][0]), int(nz[0][1])
        block = [i for i in range(c) if abs(lams[i] - lams[r]) < EIG_MATCH_TOL]
        Pi = Psi0[block, :]
        if _rank(Pi, rank_rcond) < len(block):
            raise UnfoldingError(
                f"adjoint rows dependent at eigenvalue {lams[r]}; "
                "unfolding-space realization fails"
            )
        e = np.zeros(len(block), dtype=complex)
        e[block.index(r)] = 1.0
        v, *_ = np.linalg.lstsq(Pi, e, rcond=None)
        R = np.zeros((n, c), dtype=complex)
        R[:, ccol] = v
        Rs.append(R)
    return Rs


def solve_delay_realization(frame, delays, R, sparsity=None, residual_tol=1e-9):
    """Solve ``sum_j A_j Phi(-r_j) = R`` for coefficient matrices A_j.

    Rows of the A_j decouple; each row is an underdetermined linear system
    solved at minimal norm, optionally restricted to the entries allowed by
    a per-delay boolean mask (entries outside a mask are pinned to zero).

    Raises
    ------
    UnfoldingError
        If the stacked matrix col(Phi(-r_0), ..., Phi(-r_J)) has rank < c
        (e.g. two equal lags make the exponential-delay matrix singular),
        or if the reconstruction residual exceeds ``residual_tol`` (an
        infeasible sparsity mask).
    """
    n, c = frame.op.n, frame.c
    delays = [float(r) for r in delays]
    tau = frame.op.tau
    for r in delays:
        if r < 0 or r > tau + 1e-12:
            raise UnfoldingError(f"lag {r} outside the history horizon [0, {tau}]")
    R = np.asarray(R, dtype=complex)
    if R.shape != (n, c):
        raise StructuralError(f"target shape {R.shape} != ({n}, {c})")
    if sparsity is not None:
        if len(sparsity) != len(delays):
            raise StructuralError("one sparsity mask per delay required")
        masks = [np.ones((n, n), dtype=bool) if m is None else np.asarray(m, dtype=bool)
                 for m in sparsity]
        for m in masks:
            if m.shape != (n, n):
                raise StructuralError(f"mask shape {m.shape} != ({n}, {n})")
    else:
        masks = [np.ones((n, n), dtype=bool)] * len(delays)

    Phis = [frame.Phi_at(-r) for r in delays]
    stacked = np.vstack(Phis)
    rank = _rank(stacked)
    if rank < c:
        raise UnfoldingError(
            f"stacked basis col(Phi(-r_j)) has rank {rank} < {c}; "
            "lags are too few or coincide"
        )

    As = [np.zeros((n, n), dtype=complex) for _ in delays]
    scale = max(1.0, float(np.max(np.abs(R))))
    for i in range(n):
        cols, meta = [], []
        for j, mask in enumerate(masks):
            for l in np.nonzero(mask[i])[0]:
                cols.append(Phis[j][l, :])
                meta.append((j, int(l)))
        if not cols:
            if np.max(np.abs(R[i, :])) > residual_tol * scale:
                raise UnfoldingError(f"sparsity mask leaves row {i} empty but target is nonzero")
            continue
        Msys = np.array(cols).T
        x, *_ = np.linalg.lstsq(Msys, R[i, :], rcond=None)
        res = float(np.linalg.norm(Msys @ x - R[i, :]))
        if res > residual_tol * scale:
            raise UnfoldingError(
                f"sparsity mask infeasible: row {i} least-squares residual {res:.3e}"
            )
        for (j, l), val in zip(meta, x):
            As[j][i, l] = val

    res = reconstruction_residual(As, Phis, R)
    if res > residual_tol * scale:
        raise UnfoldingError(f"reconstruction residual {res:.3e} exceeds tolerance")
    return As


def reconstruction_residual(coefficients, Phis, R):
    """Max entrywise ``|sum_j A_j Phi(-r_j) - R|``, given ``Phis[j] = Phi(-r_j)``."""
    return float(np.max(np.abs(sum(A @ P for A, P in zip(coefficients, Phis)) - R)))


def project_slot(frame, rep, R):
    """Group-average one slot: ``Rbar = (1/|G|) sum_g rho(g) R G(g)^-1`` and
    its center direction ``Bhat = Psi(0) Rbar``."""
    Rbar = equivariant_average(rep, frame.G, R)
    return Rbar, frame.Psi0 @ Rbar


@dataclass(frozen=True)
class UnfoldingFamily:
    """Parametrized family ``L(alpha) z = L0 z + sum_m alpha_m sum_j A_j^m z(-r_j)``.

    ``directions[m][j]`` is the coefficient of parameter m at lag
    ``delays[j]``.  When ``rep`` is set the family claims equivariance and
    every coefficient is checked to commute with the group action.
    """

    base: DelayOperator
    delays: tuple
    directions: tuple    # (p, ndelays) nested tuple of (n, n) arrays
    names: tuple
    rep: object = None

    def __post_init__(self):
        n = self.base.n
        dirs = []
        for m, row in enumerate(self.directions):
            if len(row) != len(self.delays):
                raise StructuralError(f"parameter {m}: one coefficient per lag required")
            row = tuple(np.asarray(A, dtype=complex) for A in row)
            for A in row:
                if A.shape != (n, n):
                    raise StructuralError(f"coefficient shape {A.shape} != ({n}, {n})")
            dirs.append(row)
        object.__setattr__(self, "directions", tuple(dirs))
        object.__setattr__(self, "delays", tuple(float(r) for r in self.delays))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != len(self.directions):
            raise StructuralError("one name per parameter required")
        if self.rep is not None:
            res = self.max_equivariance_residual()
            if res > 1e-10:
                raise StructuralError(
                    f"family flagged equivariant but a coefficient has residual {res:.3e}"
                )

    @property
    def n_parameters(self):
        return len(self.directions)

    def max_equivariance_residual(self):
        if self.rep is None:
            return 0.0
        return commutator_residual(self.rep, [A for row in self.directions for A in row])

    def as_operator(self, alpha):
        """The operator at a parameter value, merging lags with the base."""
        alpha = np.asarray(alpha, dtype=complex).reshape(-1)
        if len(alpha) != self.n_parameters:
            raise StructuralError(f"expected {self.n_parameters} parameters")
        base_lags = {r for r, _ in self.base.terms}
        terms = {r: A.copy() for r, A in self.base.terms}
        for am, row in zip(alpha, self.directions):
            for r, A in zip(self.delays, row):
                key = next((s for s in terms if abs(s - r) < 1e-14), r)
                terms[key] = terms.get(key, 0) + am * A
        # lags outside the base that received no contribution are dropped
        kept = tuple(sorted((r, A) for r, A in terms.items()
                            if r in base_lags or np.max(np.abs(A)) > 0))
        return DelayOperator(n=self.base.n, terms=kept)

    def center_direction(self, frame, m):
        """Reduced-matrix direction of parameter m: sum_j Psi(0) A_j Phi(-r_j)."""
        return sum(frame.Psi0 @ A @ frame.Phi_at(-r)
                   for r, A in zip(self.delays, self.directions[m]))


@dataclass(frozen=True)
class VersalityReport:
    """Outcome of the equivariant span test for a direction family."""

    versal: bool
    mini_versal: bool
    commutant_dim: int
    tangent_dim: int
    codimension: int         # dim of the equivariant centralizer
    achieved_rank: int
    n_directions: int
    max_equivariance_residual: float

    @property
    def deficiency(self):
        return self.commutant_dim - self.achieved_rank


def verify_gamma_versality(B, G, directions, rcond=RANK_RCOND):
    """Check ``Mat^Gamma = [B, Mat^Gamma] + span(directions)`` by rank.

    Versal when the concatenated coordinates reach the commutant dimension;
    mini-versal when additionally the direction count equals the
    equivariant codimension.  A span that falls short is reported, not
    raised; a B that does not commute with G raises UnfoldingError.
    """
    geo = gamma_orbit_geometry(B, G, rcond=rcond)
    Kmat = np.column_stack([_vec(K) for K in geo.commutant])  # orthonormal columns
    equiv_res = 0.0
    cols = [Kmat.conj().T @ _vec(T) for T in geo.T_basis]
    for D in directions:
        v = _vec(D)
        coords = Kmat.conj().T @ v
        equiv_res = max(equiv_res, float(np.linalg.norm(v - Kmat @ coords)))
        cols.append(coords)
    A = np.column_stack(cols) if cols else np.zeros((len(geo.commutant), 0))
    rank = _rank(A, rcond)
    versal = rank == geo.commutant_dim
    return VersalityReport(
        versal=versal,
        mini_versal=versal and len(directions) == geo.Z_dim,
        commutant_dim=geo.commutant_dim,
        tangent_dim=geo.tangent_dim,
        codimension=geo.Z_dim,
        achieved_rank=rank,
        n_directions=len(directions),
        max_equivariance_residual=equiv_res,
    )


@dataclass(frozen=True)
class GammaUnfolding:
    """Everything produced by :func:`assemble_gamma_unfolding`."""

    family: UnfoldingFamily
    theta: ThetaReport
    versality: VersalityReport
    directions: tuple        # all p projected center directions Bhat_m
    r_matrices: tuple        # raw R^m per slot
    projected_r: tuple       # group-averaged Rbar^m per slot


def assemble_gamma_unfolding(frame, rep, delays, geometry=None, sparsity=None,
                             name_prefix="alpha"):
    """Full pipeline from a normalized equivariant frame to a mini-versal family.

    Steps: build one R-matrix per unfolding slot; solve the (unrestricted)
    delay realization for coefficients A_j^m and check it reconstructs R^m;
    group-average everything and verify the projection identity
    ``sum_j Psi(0) pi(A_j) Phi(-r_j) = pi(Psi(0) R^m) = Psi(0) Rbar^m``;
    extract Theta over the orbit complement and keep the earliest maximal
    independent rows; re-solve the selected slots against the projected
    targets Rbar^m under the sparsity masks (the structure-preserving
    representative); finally verify equivariant versality of the selection.

    Raises on span deficiency; returns a :class:`GammaUnfolding`.
    """
    if frame.G is None:
        raise UnfoldingError("frame carries no induced representation; run induce_representation")
    if geometry is None:
        geometry = orbit_geometry(frame.B, semisimple_jordan_spec(frame.lambdas))
    if np.max(np.abs(geometry.B - frame.B)) > 1e-12:
        raise UnfoldingError("geometry was computed for a different reduced matrix")

    G = frame.G
    Psi0 = frame.Psi0
    Phis = [frame.Phi_at(-float(r)) for r in delays]

    Rs = build_R_matrices(frame, geometry)
    Rbars, Bhats = [], []
    for m, R in enumerate(Rs):
        A_raw = solve_delay_realization(frame, delays, R, sparsity=None)
        Rbar, Bhat = project_slot(frame, rep, R)
        # Projection identity: averaging the coefficients, the R matrix, or
        # the center direction all land on the same matrix.
        Bhat_from_A = sum(Psi0 @ equivariant_average(rep, rep, A) @ P
                          for A, P in zip(A_raw, Phis))
        Bhat_from_C = equivariant_average(G, G, Psi0 @ R)
        err = max(float(np.max(np.abs(Bhat - Bhat_from_A))),
                  float(np.max(np.abs(Bhat - Bhat_from_C))))
        if err > 1e-10 * max(1.0, float(np.max(np.abs(Bhat)))):
            raise UnfoldingError(f"slot {m}: projection identity violated ({err:.3e})")
        Rbars.append(Rbar)
        Bhats.append(Bhat)

    theta = theta_extract(geometry, Bhats)
    if not theta.selected_rows:
        raise UnfoldingError("no independent unfolding directions survive the projection")

    directions = []
    for m in theta.selected_rows:
        A_fam = solve_delay_realization(frame, delays, Rbars[m], sparsity=sparsity)
        A_fam = [equivariant_average(rep, rep, A) for A in A_fam]
        if reconstruction_residual(A_fam, Phis, Rbars[m]) \
                > 1e-9 * max(1.0, float(np.max(np.abs(Rbars[m])))):
            raise UnfoldingError(f"slot {m}: projected reconstruction failed")
        directions.append(tuple(A_fam))

    versality = verify_gamma_versality(frame.B, G, [Bhats[m] for m in theta.selected_rows])
    if not versality.versal:
        raise UnfoldingError(
            "selected directions do not span the equivariant complement: "
            f"rank {versality.achieved_rank} of {versality.commutant_dim} "
            f"(tangent {versality.tangent_dim} + {versality.n_directions} directions, "
            f"deficiency {versality.deficiency})"
        )

    family = UnfoldingFamily(
        base=frame.op,
        delays=tuple(float(r) for r in delays),
        directions=tuple(directions),
        names=tuple(f"{name_prefix}_{m + 1}" for m in theta.selected_rows),
        rep=rep,
    )
    return GammaUnfolding(family=family, theta=theta, versality=versality,
                          directions=tuple(Bhats), r_matrices=tuple(Rs),
                          projected_r=tuple(Rbars))


def slot_reparametrization(family, rcond=RANK_RCOND):
    """Coefficient matrix of the parameters against per-lag patterns.

    For each lag the coefficients across parameters span a small pattern
    space; stacking the coordinates in orthonormal pattern bases gives the
    matrix whose full column rank certifies that the per-lag scalar
    parameters (the epsilon reparametrization) are linearly independent.
    """
    k = family.n_parameters
    rows = []
    for j in range(len(family.delays)):
        V = np.array([_vec(family.directions[m][j]) for m in range(k)])
        _, s, Vh = np.linalg.svd(V, full_matrices=False)
        if s.size == 0 or s[0] < 1e-14:
            continue
        r = int(np.sum(s > rcond * s[0]))
        rows.append((V @ Vh[:r].conj().T).T)   # (r, k) coordinates
    if not rows:
        return np.zeros((0, k))
    return np.vstack(rows)


def realify(family, tol=1e-9):
    """Replace conjugate direction pairs (L, conj L) by (Re L, Im L).

    Directions with real coefficients pass through unchanged.  Every
    complex direction must find a conjugate partner, matching the
    conjugate-pair convention of the frame; otherwise this raises.  The
    per-lag reparametrization matrix of the real family is computed and
    must have full column rank.

    Returns the real family and that reparametrization matrix.
    """
    k = family.n_parameters
    scale = max(1.0, max(float(np.max(np.abs(A))) for row in family.directions for A in row))
    used = [False] * k
    new_dirs, new_names = [], []
    for m in range(k):
        if used[m]:
            continue
        row = family.directions[m]
        if all(np.max(np.abs(A.imag)) < tol * scale for A in row):
            used[m] = True
            new_dirs.append(row)
            new_names.append(family.names[m])
            continue
        mate = None
        for mp in range(m + 1, k):
            if used[mp]:
                continue
            if all(np.max(np.abs(family.directions[mp][j] - row[j].conj())) < tol * scale
                   for j in range(len(row))):
                mate = mp
                break
        if mate is None:
            raise UnfoldingError(
                f"direction {family.names[m]} has no conjugate partner; "
                "cannot form a real family"
            )
        used[m] = used[mate] = True
        new_dirs.append(tuple(A.real.astype(complex) for A in row))
        new_dirs.append(tuple(A.imag.astype(complex) for A in row))
        new_names.append(f"{family.names[m]}_re")
        new_names.append(f"{family.names[m]}_im")

    real_family = UnfoldingFamily(base=family.base, delays=family.delays,
                                  directions=tuple(new_dirs), names=tuple(new_names),
                                  rep=family.rep)
    E = slot_reparametrization(real_family)
    if _rank(E) < real_family.n_parameters:
        raise UnfoldingError(
            "epsilon reparametrization of the real family is rank deficient "
            f"({_rank(E)} < {real_family.n_parameters})"
        )
    return real_family, E


def select_delays(frame, rank_rcond=RANK_RCOND, gap=1e-9):
    """Default lag selection: the operator's own lags plus 0, extended by an
    equally spaced grid in (0, tau] until the stacked basis reaches full rank.
    """
    c = frame.c
    tau = frame.op.tau
    lags = sorted({0.0} | {float(r) for r, _ in frame.op.terms})

    def rank_of(ls):
        return _rank(np.vstack([frame.Phi_at(-r) for r in ls]), rank_rcond)

    if rank_of(lags) >= c:
        return lags
    extras = 0
    for k in range(1, c + 1):
        cand = tau * k / (c + 1)
        if any(abs(cand - r) < gap for r in lags):
            continue
        lags = sorted(lags + [cand])
        extras += 1
        if rank_of(lags) >= c:
            return lags
        if extras >= c:
            break
    raise UnfoldingError(f"could not reach stacked rank {c} with {extras} extra lags")
