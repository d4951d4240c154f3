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

from typing import NamedTuple

import numpy as np

from . import invariants
from ._linalg import (RANK_RCOND, REALIZATION_TOL, ad_matrix, eigen_groups, lstsq, rank,
                      same_lag, scaled, svd_rank)
from .delays import DelayOperator
from .errors import StructuralError, UnfoldingError
from .frames import ROOT_TOL, SpectralFrame, critical_roots, eigenbasis, induce_representation
from .groups import Representation, commutant_basis, equivariant_average

CONJ_PAIR_TOL = 1e-9           # relative gap of a conjugate direction pair
PATTERN_FLOOR = 1e-14          # a lag whose coefficients all lie below this has no pattern


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

    ``lambdas`` may repeat; values that are one by ``_linalg.eigen_groups``
    are merged into one eigenvalue with that many size-1 blocks.
    """
    lambdas = [complex(l) for l in lambdas]
    return [(lambdas[block[0]], (1,) * len(block)) for block in eigen_groups(lambdas)]


def _validate_jordan_spec(B, jordan_spec):
    """Check the block data against rank tests of (B - lam I)^k."""
    c = B.shape[0]
    total = sum(sum(sizes) for _, sizes in jordan_spec)
    if total != c:
        raise UnfoldingError(f"jordan_spec accounts for {total} of {c} dimensions")
    for lam, sizes in jordan_spec:
        N = B - lam * np.eye(c)
        powers = [N]
        for _ in range(1, max(sizes)):
            powers.append(powers[-1] @ N)
        ranks = [c, *rank(np.array(powers))]
        for k in range(1, max(sizes) + 1):
            expected = sum(1 for s in sizes if s >= k)
            actual = ranks[k - 1] - ranks[k]
            if actual != expected:
                raise UnfoldingError(
                    f"jordan_spec mismatch at eigenvalue {lam}: {expected} blocks of size "
                    f">= {k} declared, rank tests give {actual}"
                )


def _diagonal_complement_slots(diag):
    """Elementary-matrix positions spanning the centralizer of diag(conj).

    Positions (r, c) with equal eigenvalues, ordered by (position of the
    column within its block, position of the row within its block, block).
    For simple spectra this is the diagonal slots in index order.
    """
    slots = []
    for block_idx, block in enumerate(eigen_groups(diag)):
        for th, ccol in enumerate(block):
            for xi, r in enumerate(block):
                slots.append(((th, xi, block_idx), (r, ccol)))
    slots.sort(key=lambda t: t[0])
    return [pos for _, pos in slots]


class OrbitGeometry(NamedTuple):
    """Tangent space and unfolding complement of the similarity orbit at B."""

    B: np.ndarray
    basis: np.ndarray       # nonsingular C-ordered c^2 x c^2 [vec(T) | vec(W)], row-major vecs
    tangent_dim: int        # the leading columns of basis that span im(ad_B)
    slots: tuple = None     # (row, col) of each elementary W; None for non-diagonal B

    @property
    def delta(self):
        """Orbit codimension, the number of W columns."""
        return len(self.basis) - self.tangent_dim


def _is_diagonal(B):
    return np.array_equal(B, np.diag(np.diag(B)))


def _character_sum(G, blocks):
    """``(1/|Gamma|) sum_b sum_g |tr G(g)_bb|^2`` over the diagonal blocks b: by
    Schur's lemma the dimension of the matrices that commute with G and keep
    each block, an integer up to rounding (within 1e-14 at the presets, the
    fixture points and the rings); non-finite or non-integral if G is no
    representation; an overflow on the way is such a non-finite sum."""
    diagonals = np.diagonal(G.matrices, axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(float(np.sum(np.abs(diagonals[:, b].sum(axis=1)) ** 2))
                   for b in blocks) / G.group.order


def orbit_geometry(B, jordan_spec):
    """Compute :class:`OrbitGeometry`, cross-checking rank against the
    closed-form codimension for the declared Jordan structure."""
    B = np.asarray(B, dtype=complex)
    c = B.shape[0]
    _validate_jordan_spec(B, jordan_spec)

    U, _, r = svd_rank(ad_matrix(B))
    delta = c * c - r
    formula = jordan_codimension(jordan_spec)
    if delta != formula:
        raise UnfoldingError(
            f"rank-based codimension {delta} disagrees with the Jordan formula {formula}; "
            "jordan_spec is wrong for this matrix"
        )

    # W spans the centralizer of B^H, the null space of ad_{B^H} = ad_B^H: the
    # trailing left singular vectors of ad_B, so the basis is U itself.  For
    # diagonal B, W is instead the elementary matrices at the slots.
    basis = np.ascontiguousarray(U)
    slots = None
    if _is_diagonal(B):
        slots = tuple(_diagonal_complement_slots(np.diag(B)))
        if len(slots) != delta:
            raise UnfoldingError(f"complement dimension {len(slots)} != codimension {delta}")
        basis[:, r:] = 0.0
        basis[[i * c + j for i, j in slots], range(r, c * c)] = 1.0
    if rank(basis) != c * c:
        raise UnfoldingError("tangent + complement do not span the matrix space")
    return OrbitGeometry(B=B, basis=basis, tangent_dim=r, slots=slots)


class ThetaReport(NamedTuple):
    """Coordinates of unfolding directions in the orbit complement.

    Row i holds the W-coordinates of direction i after removing its
    tangent component; ``selected_rows`` is the earliest maximal
    linearly-independent row set.
    """

    theta: np.ndarray        # (p, delta)
    residuals: tuple         # decomposition residual per direction
    selected_rows: tuple     # indices of the selected rows; their number is Theta's rank


def theta_extract(geometry, directions):
    """Decompose each direction over [tangent | complement] and pick rows.

    Every direction must split as ``[B, y] + sum_j theta_j Omega_j`` (it
    always does, the bases span the space); the least-squares residual is
    reported and held to the invariant ``theta.decomposition``, relative to
    the direction.  Row selection walks the rows in order and keeps a row
    when it raises the numerical rank (:func:`_linalg.rank` at scale
    max|Theta|) of the rows already kept.
    """
    S = geometry.basis
    p = len(directions)
    V = np.zeros((p, S.shape[0]), dtype=complex)        # row i is vec(direction i)
    for i, D in enumerate(directions):
        D = np.asarray(D, dtype=complex)
        if D.shape != geometry.B.shape:
            raise StructuralError(f"direction {i} has shape {D.shape}")
        V[i] = D.reshape(-1)
    # one solve takes every direction, a non-finite one as zero (gelsd spreads an
    # inf to every column); each residual is its own product (artifact bytes)
    W = np.where(np.isfinite(V).all(axis=1, keepdims=True), V, 0.0)
    X = lstsq(S, W.T)[0].T.copy()
    residuals = [float(np.linalg.norm(S @ x - v)) for x, v in zip(X, V)]
    invariants.check("theta.decomposition", residuals, W, where=lambda i: f"direction {i}")
    theta = np.zeros((p, geometry.delta), dtype=complex)
    theta[:] = X[:, geometry.tangent_dim:]

    scale = float(np.abs(theta).max(initial=0.0))
    selected = []
    for i in range(p):
        if rank(theta[selected + [i]], scale=scale) > len(selected):
            selected.append(i)
    return ThetaReport(theta=theta, residuals=tuple(residuals), selected_rows=tuple(selected))


def build_R_matrices(frame, geometry):
    """The ``(p, n, c)`` stack of one matrix per unfolding slot, each realizing
    its slot through Psi(0).

    The slot Omega = E_{r,c} (the elementary matrix of the diagonal-B
    complement at ``geometry.slots[m]``) is realized by placing a vector v
    in column c, where v solves the underdetermined system  Pi v = unit
    vector selecting row r, Pi being the rows of Psi(0) belonging to the
    eigenvalue block of r.  The minimal-norm solution is taken.  Then
    ``Psi(0) R = Omega`` modulo the orbit tangent space, exactly.  Pi
    depends only on the block, so each block is solved once, for all its
    unit vectors at once, and its rank in that solve must be full.
    """
    if geometry.slots is None:
        raise UnfoldingError(
            "complement basis is not elementary; the delay realization needs the "
            "diagonal-frame complement (semisimple spectrum)"
        )
    lams = np.array(frame.lambdas)
    blocks = eigen_groups(lams)
    block_of = {r: k for k, block in enumerate(blocks) for r in block}
    solutions = {}      # block index -> column j solves Pi v = e_j
    Rs = np.zeros((len(geometry.slots), frame.op.n, frame.c), dtype=complex)
    for m, (r, ccol) in enumerate(geometry.slots):
        k = block_of[r]
        block = blocks[k]
        if k not in solutions:
            solutions[k], rk = lstsq(frame.psi[block, :], np.eye(len(block), dtype=complex))
            if rk < len(block):
                raise UnfoldingError(
                    f"adjoint rows dependent at eigenvalue {lams[r]}; "
                    "unfolding-space realization fails"
                )
        Rs[m, :, ccol] = solutions[k][:, block.index(r)]
    return Rs


def check_lags(delays, tau, path="lags", error=UnfoldingError):
    """Raise ``error`` naming ``path[k]`` unless every lag r_k lies in the
    history horizon [0, tau] or is one lag with tau, and repeats no earlier
    lag (two lags are one by :func:`~equnfold._linalg.same_lag`, as in a
    :class:`DelayOperator`): the rules of a lag set that need no frame."""
    for k, r in enumerate(delays):
        if not (0 <= r <= tau or same_lag(r, tau)):
            raise error(f"{path}[{k}] = {r} lies outside the history horizon [0, {tau}]")
        if any(same_lag(r, s) for s in delays[:k]):
            raise error(f"{path}[{k}] = {r} repeats an earlier lag")


def lag_basis(frame, delays, context=""):
    """The ``(J, n, c)`` lag basis ``Phis[j] = Phi(-r_j)`` of lags that keep
    :func:`check_lags`, and the rank of its stack col(Phi(-r_j)): the lags
    realize every (n, c) target when it is c.  Lag choosers rank candidate
    lag sets here, and the realization takes its basis from here."""
    check_lags(delays, frame.op.tau, path=f"{context}lags")
    Phis = np.array([frame.Phi_at(-r) for r in delays])
    return Phis, rank(Phis.reshape(-1, frame.c))


def check_sparsity(sparsity, n_delays, n):
    """Raise StructuralError unless ``sparsity`` (None: no masks) holds one
    mask per lag, each n x n or None (every entry free)."""
    if sparsity is None:
        return
    if len(sparsity) != n_delays:
        raise StructuralError(f"{len(sparsity)} masks for {n_delays} delays; need one per delay")
    for k, m in enumerate(sparsity):
        if m is not None and np.shape(m) != (n, n):
            raise StructuralError(f"mask {k} has shape {np.shape(m)}, expected ({n}, {n})")


def solve_delay_realization(Phis, R, sparsity=None):
    """Solve ``sum_j A_j Phi(-r_j) = R`` for coefficient matrices A_j, for
    each target of the ``(p, n, c)`` stack R, given the lag basis ``Phis`` of
    :func:`lag_basis`; the result is the ``(p, J, n, n)`` coefficients with
    ``A[k, j]`` for target k.  Row i of the A_j solves
    ``x @ col(Phi(-r_j)) = R[i, :]`` at minimal norm over the entries that
    a per-delay boolean mask allows (entries outside a mask are pinned to
    zero).  Rows whose mask pattern is the same at every lag share that
    system, so one least-squares call takes all of them, in every target:
    without masks, one call takes the whole stack.

    Raises
    ------
    UnfoldingError
        If, for some target k, a row's residual or the reconstruction
        residual exceeds ``REALIZATION_TOL`` relative to that target (an
        infeasible sparsity mask, or lags whose stacked basis has rank < c);
        the message names the target by its position k.
    """
    J, n, c = Phis.shape
    R = np.asarray(R, dtype=complex)
    if R.ndim != 3 or R.shape[1:] != (n, c):
        raise StructuralError(f"target shape {R.shape} != (p, {n}, {c})")
    check_sparsity(sparsity, J, n)
    masks = [np.ones((n, n), dtype=bool) if m is None else np.asarray(m, dtype=bool)
             for m in ([None] * J if sparsity is None else sparsity)]

    p = len(R)
    Msys = Phis.reshape(J * n, c).T            # (c, J n); column j n + l is Phi(-r_j)[l]
    allowed = np.hstack(masks)                 # allowed[i, j n + l] = mask_j[i, l]
    X = np.zeros((p, n, J * n), dtype=complex)
    row_res = np.zeros((p, n))                 # an empty row's "residual" is its target
    patterns, which = np.unique(allowed, axis=0, return_inverse=True)
    for g, pattern in enumerate(patterns):
        rows = np.flatnonzero(which == g)
        targets = R[:, rows, :]
        if not pattern.any():
            row_res[:, rows] = np.max(np.abs(targets), axis=2)
            continue
        cols = np.nonzero(pattern)[0]
        rhs = targets.reshape(-1, c).T         # column k len(rows) + t is row rows[t] of R[k]
        x, _ = lstsq(Msys[:, cols], rhs)
        row_res[:, rows] = np.linalg.norm(Msys[:, cols] @ x - rhs, axis=0).reshape(p, -1)
        X[:, rows[:, None], cols] = x.T.reshape(p, len(rows), len(cols))

    A = X.reshape(p, n, J, n).transpose(0, 2, 1, 3)     # A[k, j, i, l] = X[k, i, j n + l]
    bounds = scaled(REALIZATION_TOL, np.max(np.abs(R), axis=(-2, -1)))
    empty = ~allowed.any(axis=1)
    for k in range(p):
        bad = np.nonzero(row_res[k] > bounds[k])[0]
        if len(bad) and empty[bad[0]]:
            raise UnfoldingError(
                f"target {k}: sparsity mask leaves row {bad[0]} empty but target is nonzero")
        if len(bad):
            raise UnfoldingError(f"target {k}: sparsity mask infeasible: row {bad[0]} "
                                 f"least-squares residual {row_res[k, bad[0]]:.3e}")
    invariants.check("unfolding.reconstruction", A, Phis, R, where=lambda k: f"target {k}")
    return A


def slot_stacks(frame, rep):
    """Derive the unfolding slots of an equivariant frame, in order: the
    ``(p, n, c)`` stack R of :func:`build_R_matrices` over the orbit
    geometry of the frame's semisimple B, its group average
    ``Rbar = (1/|G|) sum_g rho(g) R G(g)^-1``, the ``(p, c, c)`` center
    directions ``Bhat = Psi(0) Rbar``, and their Theta report.  The build
    and ``verify`` derive slots only here."""
    geometry = orbit_geometry(frame.B, semisimple_jordan_spec(frame.lambdas))
    Rs = build_R_matrices(frame, geometry)
    Rbars = equivariant_average(rep, frame.G, Rs)
    Bhats = frame.psi @ Rbars
    return Rs, Rbars, Bhats, theta_extract(geometry, Bhats)


class UnfoldingFamily(NamedTuple("UnfoldingFamily", [
        ("base", DelayOperator), ("delays", tuple), ("directions", np.ndarray),
        ("names", tuple)])):
    """Parametrized family ``L(alpha) z = L0 z + sum_m alpha_m sum_j A_j^m z(-r_j)``.

    ``directions[m, j]``, one (n, n) matrix in a ``(p, J, n, n)`` stack, is
    the coefficient of parameter m at lag ``delays[j]``.  The constructor
    checks this shape only; :func:`assemble_gamma_unfolding` checks that an
    equivariant family's coefficients commute with the group action.
    """

    __slots__ = ()

    def __new__(cls, base, delays, directions, names):
        delays = tuple(float(r) for r in delays)
        names = tuple(names)
        # checked, never reshaped: a reshape would take swapped p and J
        shape = (len(names), len(delays), base.n, base.n)
        try:
            directions = np.asarray(directions, dtype=complex)
        except ValueError:      # rows of different lengths
            directions = None
        if directions is None or directions.shape != shape:
            raise StructuralError(f"coefficients must form a (parameters, lags, n, n) = "
                                  f"{shape} stack")
        return super().__new__(cls, base, delays, directions, names)

    @property
    def n_parameters(self):
        return len(self.directions)

    def as_operator(self, alpha):
        """The operator at a parameter value, merging lags with the base."""
        alpha = np.asarray(alpha, dtype=complex).reshape(-1)
        if len(alpha) != self.n_parameters:
            raise StructuralError(f"expected {self.n_parameters} parameters")
        base_lags = {r for r, _ in self.base.terms}
        terms = {r: A.copy() for r, A in self.base.terms}
        for am, row in zip(alpha, self.directions):
            for r, A in zip(self.delays, row):
                key = next((s for s in terms if same_lag(r, s)), r)
                terms[key] = terms.get(key, 0) + am * A
        # lags outside the base that received no contribution are dropped
        kept = tuple(sorted((r, A) for r, A in terms.items()
                            if r in base_lags or np.max(np.abs(A)) > 0))
        return DelayOperator(n=self.base.n, terms=kept)


def center_directions(psi, A, Phis):
    """Reduced-matrix directions ``sum_j (Psi(0) A_j^m) Phi(-r_j)`` of the
    ``(p, J, n, n)`` coefficients A of p parameters, a ``(p, c, c)`` stack,
    given ``psi = Psi(0)`` and ``Phis[j] = Phi(-r_j)``."""
    return np.array([sum(psi @ Aj @ P for Aj, P in zip(row, Phis))
                     for row in A]).reshape(len(A), len(psi), len(psi))


class VersalityReport(NamedTuple):
    """Outcome of the equivariant span test for a direction family."""

    commutant_dim: int
    tangent_dim: int
    codimension_formula: float   # the codimension by characters; NaN for a B not diagonal
    achieved_rank: int
    n_directions: int
    max_equivariance_residual: float

    @property
    def codimension(self):
        """Z, the dimension of the equivariant centralizer."""
        return self.commutant_dim - self.tangent_dim

    @property
    def versal(self):
        return self.achieved_rank == self.commutant_dim

    @property
    def mini_versal(self):
        return self.versal and self.n_directions == self.codimension

    @property
    def deficiency(self):
        return self.commutant_dim - self.achieved_rank


def verify_gamma_versality(B, G, directions, tol=None):
    """Check ``Mat^Gamma = [B, Mat^Gamma] + span(directions)`` by rank.

    Versal when the concatenated coordinates reach dim Mat^Gamma;
    mini-versal when additionally the direction count equals Z, the
    dimension of the equivariant centralizer (the equivariant codimension):
    dim Mat^Gamma minus the rank of the commutator images [B, K] at scale
    ||B||_2.  The character sums (:func:`_character_sum`) check both rank
    decisions: dim Mat^Gamma, over one block, the commutant's null-space cut;
    and, for a diagonal B, Z = sum_lam (1/|Gamma|) sum_g |chi_lam(g)|^2 over
    the eigenvalue blocks (chi_lam the character of G on lam's eigenspace).
    A span that falls short is reported, not raised; a B that does not
    commute with G or a failed character check raises UnfoldingError.  Each
    invariant holds at its own tolerance, or at ``tol`` where that is looser.
    """
    B = np.asarray(B, dtype=complex)
    c = B.shape[0]
    invariants.check("frame.B_commutes_with_G", G, B, tol=tol)
    comm = commutant_basis(G)
    k = len(comm)
    if not k:
        raise UnfoldingError("empty commutant")
    formula = _character_sum(G, [list(range(c))])
    invariants.check("versality.commutant_formula", formula, k, tol=tol,
                     where=lambda _: (f"commutant dimension {k} by rank disagrees "
                                      f"with {formula:.6g} by the character formula"))
    images = (B @ comm - comm @ B).reshape(k, -1).T
    # scale |B|: commutator columns at rounding level count as zero even when all are tiny
    U, _, r = svd_rank(images, scale=float(np.linalg.norm(B, 2)))
    Z_dim, Z_formula = k - r, np.nan
    if _is_diagonal(B):
        Z_formula = _character_sum(G, eigen_groups(np.diag(B)))
        invariants.check("versality.codimension_formula", Z_formula, Z_dim, tol=tol,
                         where=lambda _: (f"Z = {Z_dim} by rank disagrees with "
                                          f"{Z_formula:.6g} by the character formula"))

    Kmat = np.ascontiguousarray(comm.reshape(k, -1).T)     # orthonormal vec columns
    cols = [Kmat.conj().T @ U[:, :r]]       # the tangent space [B, Mat^Gamma]
    equiv_res = 0.0
    for D in directions:
        v = np.asarray(D, dtype=complex).reshape(-1)
        coords = Kmat.conj().T @ v
        equiv_res = max(equiv_res, float(np.linalg.norm(v - Kmat @ coords)))
        cols.append(coords[:, None])
    return VersalityReport(
        commutant_dim=k,
        tangent_dim=r,
        codimension_formula=Z_formula,
        achieved_rank=rank(np.hstack(cols)),
        n_directions=len(directions),
        max_equivariance_residual=equiv_res,
    )


class GammaUnfolding(NamedTuple):
    """What :func:`assemble_gamma_unfolding` builds; the slots it builds from
    are :func:`slot_stacks`'."""

    family: UnfoldingFamily
    theta: ThetaReport
    versality: VersalityReport


def assemble_gamma_unfolding(frame, rep, delays, sparsity=None):
    """Full pipeline from a normalized equivariant frame to a mini-versal family.

    Steps: derive the slot stacks R^m, Rbar^m, the center directions and
    their Theta over the orbit complement (:func:`slot_stacks`); solve the
    (unrestricted) delay realization of every slot for coefficients A_j^m
    and check it reconstructs R^m; group-average the coefficients and verify
    the projection identity
    ``sum_j Psi(0) pi(A_j) Phi(-r_j) = pi(Psi(0) R^m) = Psi(0) Rbar^m``;
    keep Theta's earliest maximal independent rows; re-solve the selected
    slots against the projected targets Rbar^m under the sparsity masks
    (the structure-preserving representative), average those coefficients
    and check that they reconstruct Rbar^m; verify equivariant versality of
    the selection; finally check that the family's coefficients commute
    with the group action.  Each step takes the slots as one stack:
    the two realizations are one :func:`solve_delay_realization` call each,
    and the masked call's target k is the k-th selected slot.

    Raises on span deficiency; returns a :class:`GammaUnfolding`.
    """
    if frame.G is None:
        raise UnfoldingError("frame carries no induced representation; run induce_representation")

    G = frame.G
    delays = [float(r) for r in delays]
    Rs, Rbars, Bhats, theta = slot_stacks(frame, rep)
    context = f"slots 0-{len(Rs) - 1}: "
    Phis, rk = lag_basis(frame, delays, context)
    if rk < frame.c:
        raise UnfoldingError(f"{context}stacked basis col(Phi(-r_j)) has rank {rk} < {frame.c}; "
                             "the lags are too few, or not generic for this spectrum")
    A_raw = solve_delay_realization(Phis, Rs)

    # Projection identity: averaging the coefficients, the R matrix, or
    # the center direction all land on the same matrix.
    Bhat_from_A = center_directions(frame.psi, equivariant_average(rep, rep, A_raw), Phis)
    Bhat_from_C = equivariant_average(G, G, frame.psi @ Rs)
    invariants.check("directions.projection_identity", Bhats, Bhat_from_A, Bhat_from_C,
                     where=lambda m: f"slot {m}")

    if not theta.selected_rows:
        raise UnfoldingError("no independent unfolding directions survive the projection")

    selected = list(theta.selected_rows)
    A_fam = equivariant_average(rep, rep, solve_delay_realization(
        Phis, Rbars[selected], sparsity=sparsity))
    invariants.check("unfolding.reconstruction", A_fam, Phis, Rbars[selected],
                     where=lambda k: f"slot {selected[k]}")

    versality = verify_gamma_versality(frame.B, G, Bhats[selected])
    if not versality.versal:
        raise UnfoldingError(
            "selected directions do not span the equivariant complement: "
            f"rank {versality.achieved_rank} of {versality.commutant_dim} "
            f"(tangent {versality.tangent_dim} + {versality.n_directions} directions, "
            f"deficiency {versality.deficiency})"
        )

    family = UnfoldingFamily(
        base=frame.op,
        delays=tuple(delays),
        directions=A_fam,
        names=tuple(f"alpha_{m + 1}" for m in selected),
    )
    invariants.check("family.coefficient_equivariance", rep, family.directions)
    return GammaUnfolding(family=family, theta=theta, versality=versality)


def slot_reparametrization(family):
    """Coefficient matrix of the parameters against per-lag patterns.

    For each lag the coefficients across parameters span a small pattern
    space; stacking the coordinates in orthonormal pattern bases gives the
    matrix whose full column rank certifies that the per-lag scalar
    parameters (the epsilon reparametrization) are linearly independent.
    """
    k = family.n_parameters
    rows = []
    for j in range(len(family.delays)):
        V = family.directions[:, j].reshape(k, -1)
        _, Vh, r = svd_rank(V, scale=PATTERN_FLOOR / RANK_RCOND, full_matrices=False)
        rows.append((V @ Vh[:r].conj().T).T)   # (r, k) coordinates
    if not rows:
        return np.zeros((0, k))
    return np.vstack(rows)


def realify(family):
    """Replace conjugate direction pairs (L, conj L) by (Re L, Im L).

    Directions with real coefficients pass through unchanged.  Every
    complex direction must find a conjugate partner, matching the
    conjugate-pair convention of the frame; otherwise this raises.  The
    per-lag reparametrization matrix of the real family is computed and
    must have full column rank.

    Returns the real family and that reparametrization matrix.
    """
    D = family.directions
    tol = scaled(CONJ_PAIR_TOL, np.max(np.abs(D), initial=0.0))
    real = np.max(np.abs(D.imag), axis=(1, 2, 3), initial=0.0) < tol
    used = np.zeros(len(D), dtype=bool)
    new_dirs, new_names = [], []
    for m, name in enumerate(family.names):
        if used[m]:
            continue
        used[m] = True
        if real[m]:
            new_dirs.append(D[m])
            new_names.append(name)
            continue
        gaps = np.max(np.abs(D[m + 1:] - D[m].conj()), axis=(1, 2, 3), initial=0.0)
        mates = np.nonzero(~used[m + 1:] & (gaps < tol))[0]
        if not len(mates):
            raise UnfoldingError(
                f"direction {name} has no conjugate partner; cannot form a real family")
        used[m + 1 + mates[0]] = True
        new_dirs += [D[m].real.astype(complex), D[m].imag.astype(complex)]
        new_names += [f"{name}_re", f"{name}_im"]

    real_family = UnfoldingFamily(base=family.base, delays=family.delays,
                                  directions=new_dirs, names=new_names)
    E = slot_reparametrization(real_family)
    if rank(E) < real_family.n_parameters:
        raise UnfoldingError(
            "epsilon reparametrization of the real family is rank deficient "
            f"({rank(E)} < {real_family.n_parameters})"
        )
    return real_family, E


def select_delays(frame):
    """Default lag selection: the operator's own lags plus 0, extended by an
    equally spaced grid in (0, tau] until the stacked basis of
    :func:`lag_basis` reaches full rank.
    """
    c = frame.c
    lags = sorted({0.0} | {float(r) for r, _ in frame.op.terms})
    grid = (frame.op.tau * k / (c + 1) for k in range(1, c + 1))
    extras = 0
    while lag_basis(frame, lags)[1] < c:
        cand = next((g for g in grid if not any(same_lag(g, r) for r in lags)), None)
        if cand is None:
            raise UnfoldingError(f"could not reach stacked rank {c} with {extras} extra lags")
        lags = sorted(lags + [cand])
        extras += 1
    return lags


class UnfoldResult(NamedTuple):
    """What :func:`unfold` builds from a model: the parts of an artifact."""

    op: DelayOperator
    rep: Representation
    frame: SpectralFrame
    assembly: GammaUnfolding


def unfold(op, rep, lambda_seeds, vector_seeds=None, delays=None, sparsity=None,
           root_tol=ROOT_TOL):
    """The pipeline from a model and its group to an equivariant unfolding.

    The roots are the distinct ones Newton reaches from ``lambda_seeds``
    (:func:`~equnfold.frames.critical_roots`).  ``vector_seeds``, aligned
    with them, gives a seed's null vectors or None; a root takes those of
    its first seed.  The lags are ``delays`` or :func:`select_delays`'s;
    ``sparsity``, one mask per lag of ``delays`` or None, is checked against
    them by :func:`solve_delay_realization`.  The family is returned
    whether or not it is minimal; ``assembly.versality`` says which.
    """
    roots, firsts = critical_roots(op, lambda_seeds, root_tol)
    vectors = {k: vector_seeds[i] for k, i in enumerate(firsts)
               if vector_seeds is not None and vector_seeds[i] is not None}
    frame = induce_representation(eigenbasis(op, roots, seeds=vectors), rep)
    if delays is None:
        delays = select_delays(frame)
    assembly = assemble_gamma_unfolding(frame, rep, delays, sparsity=sparsity)
    return UnfoldResult(op=op, rep=rep, frame=frame, assembly=assembly)
