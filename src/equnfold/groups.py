"""Finite matrix groups and group-average (Haar) projections.

A finite group is stored as a multiplication table over element indices
``0..order-1``; a representation attaches one complex matrix per element.
The Haar integral of a compact group specializes, for a finite group, to
the normalized sum ``(1/|G|) sum_g``, which is how every projection here
is realized: onto the commutant of a representation, or more generally
onto the space of maps intertwining two representations.

A group is given by generators: matrices closed under products (the usual
way to specify a small symmetry group such as the dihedral group of the
triangle).  A fact that products preserve (rho is a homomorphism; a matrix
commutes with rho) holds on every element when it holds on a generating set,
so it is checked on :attr:`FiniteGroup.generator_indices` only.
"""

from typing import NamedTuple

import numpy as np

from ._linalg import REP_TOL, SINGULAR_RCOND, ad_matrix, null_basis, rank
from .errors import EqunfoldError

CLOSURE_TOL = 1e-10         # entrywise: closure products this close are one element
MAX_ORDER = 512             # a closure with more elements is not a finite group


class FiniteGroup(NamedTuple):
    """A finite group given by its multiplication table, with the identity
    at index 0.

    Attributes
    ----------
    mul_table : ``(order, order)`` int ndarray
        ``mul_table[a, b]`` is the index of the product ``a * b``.
    generator_indices : tuple of int
        Indices of a generating set; the homomorphism, commutation and
        intertwining residuals are taken over these.
    """

    mul_table: np.ndarray
    generator_indices: tuple

    identity = 0

    @property
    def order(self):
        return self.mul_table.shape[0]

    @property
    def inverse(self):
        """``inverse[g]`` is the index of ``g**-1``."""
        return np.nonzero(self.mul_table == 0)[1]

    @classmethod
    def from_mul_table(cls, table, generator_indices):
        """Build and validate a group from a multiplication table, whose
        element 0 is the identity, and the indices of a generating set."""
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise EqunfoldError("multiplication table must be square")
        n = table.shape[0]
        if table.min() < 0 or table.max() >= n:
            raise EqunfoldError("table entries must be element indices")

        # Latin square: every row and column is a permutation.
        full = np.arange(n)
        for axis in (0, 1):
            if not np.all(np.sort(table, axis=axis) == (full[:, None] if axis == 0 else full[None, :])):
                raise EqunfoldError("multiplication table is not a Latin square")
        if not (np.all(table[0, :] == full) and np.all(table[:, 0] == full)):
            raise EqunfoldError("element 0 of the multiplication table is not the identity")

        # Associativity, exhaustively; groups here are small.  Chunk over the
        # first index to keep the temporary arrays modest.  An associative
        # Latin square with an identity gives every element a two-sided inverse.
        for a in range(n):
            if not np.array_equal(table[table[a]], table[a][table]):
                raise EqunfoldError(f"associativity fails for triples starting at {a}")

        return cls(mul_table=table, generator_indices=tuple(generator_indices))

    def same_group(self, other):
        return self is other or (
            self.order == other.order and np.array_equal(self.mul_table, other.mul_table)
        )


class Representation(NamedTuple("Representation", [("group", FiniteGroup),
                                                   ("matrices", np.ndarray)])):
    """Matrices ``rho(g)``, one per group element, acting on ``C^dim``;
    ``matrices`` is an ``(order, dim, dim)`` complex stack."""

    __slots__ = ()

    def __new__(cls, group, matrices):
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise EqunfoldError(
                f"expected {group.order} square matrices of equal size, got shape {mats.shape}"
            )
        return super().__new__(cls, group, mats)

    @property
    def dim(self):
        return self.matrices.shape[1]


def close_generators(generators):
    """Close a list of matrices under products and return a Representation.

    The identity gets index 0; the given generators come next (deduplicated),
    followed by the remaining products in discovery order: passes over the
    rows ``a`` known when a pass starts, each row ``a`` times every element
    known when the row starts, until every element is known.  A product is
    looked up directly, entrywise against every stored matrix at once, and
    is the first one it is within the absolute tolerance ``CLOSURE_TOL`` of,
    so exact 0/1 and root-of-unity generators are deduplicated despite
    rounding.

    Each product of matrices is taken once: the elements are found on the
    Cayley graph (element times generator, one product at a time), the
    table follows from that by integer composition, the discovery order is
    replayed on the table, and an element's matrix is the product of the
    pair that discovered it.

    Raises
    ------
    EqunfoldError
        If a generator is singular, shapes disagree, or the closure exceeds
        ``MAX_ORDER`` elements.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise EqunfoldError("need at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise EqunfoldError("generator matrices must share one square shape")
        if rank(g, scale=1.0, rcond=SINGULAR_RCOND) < d:
            raise EqunfoldError("singular generator matrix")

    stack = np.eye(d, dtype=complex)[None]
    gen_idx = []
    for g in gens:
        k = _lookup(stack, g)
        if k < 0:
            k, stack = len(stack), np.concatenate([stack, g[None]])
        gen_idx.append(k)
    start = len(stack)
    stack, right, parents = _cayley_graph(stack, gen_idx)
    table = _compose_table(right, parents, gen_idx)
    order, pos, pairs = _discovery_order(table, start)

    matrices = np.empty((len(order), d, d), dtype=complex)
    matrices[:start] = stack[:start]
    for z, (a, b) in enumerate(pairs, start=start):
        matrices[z] = matrices[a] @ matrices[b]
    group = FiniteGroup.from_mul_table(pos[table[np.ix_(order, order)]],
                                       generator_indices=gen_idx)
    return Representation(group=group, matrices=matrices)


def _lookup(stack, P):
    """Index of the first matrix of ``stack`` within ``CLOSURE_TOL`` of the
    matrix P, entrywise; -1 when there is none (a P with a NaN entry matches
    nothing)."""
    near = np.all(np.abs(stack - P) < CLOSURE_TOL, axis=(1, 2))
    k = int(np.argmax(near))
    return k if near[k] else -1


def _cayley_graph(stack, gen_idx):
    """Grow ``stack`` (the identity and the generators ``gen_idx``) to the
    group they generate, one product ``element @ generator`` at a time: each
    element in index order times each generator, looked up against the stack
    as it grows.  Returns the grown stack, ``right[x, j]``, the index of
    ``x * gen_idx[j]``, and the pair ``(x, j)`` that found each element
    added here."""
    gens = stack[gen_idx]
    right, parents = [], []
    while len(right) < len(stack):
        x = len(right)
        row = []
        for j, g in enumerate(gens):
            P = stack[x] @ g
            k = _lookup(stack, P)
            if k < 0:
                if len(stack) == MAX_ORDER:
                    raise EqunfoldError(
                        f"closure exceeded {MAX_ORDER} elements; not a finite group at this cap"
                    )
                k, stack = len(stack), np.concatenate([stack, P[None]])
                parents.append((x, j))
            row.append(k)
        right.append(row)
    return stack, np.array(right), parents


def _compose_table(right, parents, gen_idx):
    """The multiplication table from the Cayley graph: the column of
    ``z = x * g_j`` is ``right[column of x, j]``, since ``a z = (a x) g_j``."""
    order = len(right)
    columns = np.empty((order, order), dtype=int)
    columns[0] = np.arange(order)
    columns[gen_idx] = right.T
    for z, (x, j) in enumerate(parents, start=order - len(parents)):
        columns[z] = right[columns[x], j]
    return columns.T


def _discovery_order(table, start):
    """Replay the closure's row passes on the table: the element indices in
    discovery order, their positions in that order, and for each element
    after the first ``start`` the pair of positions whose product found it."""
    order = np.arange(len(table))      # the first ``start`` keep their indices
    pos = np.full(len(table), -1)
    pos[:start] = order[:start]
    pairs = []
    size = start
    while size < len(table):
        for a in range(size):
            row = table[order[a], order[:size]]
            for b in np.nonzero(pos[row] < 0)[0]:
                if pos[row[b]] < 0:
                    pos[row[b]] = size
                    order[size] = row[b]
                    pairs.append((a, int(b)))
                    size += 1
            if size == len(table):
                break
    return order, pos, pairs


def check_representation(rep):
    """The worst entrywise residual of rho(e) = I and of rho(x) rho(g) = rho(xg)
    over every element x and generator g (:attr:`FiniteGroup.generator_indices`);
    NaN when one is, and inf when some rho(x) is numerically singular.

    By induction on word length, rho is a homomorphism exactly when these
    residuals vanish: one stacked product of |G| per generator, not |G|^2.
    """
    group, mats = rep.group, rep.matrices
    if np.any(rank(mats, scale=1.0, rcond=SINGULAR_RCOND) < rep.dim):
        return np.inf
    gens = list(group.generator_indices)      # below, [j, x] is rho(x) rho(g_j) and rho(x g_j)
    worst = np.abs(mats @ mats[gens, None] - mats[group.mul_table[:, gens].T]).max()
    return float(np.maximum(np.abs(mats[group.identity] - np.eye(rep.dim)).max(), worst))


def _intertwiner_stack(rep_left, rep_right, M):
    """``M`` as a complex ``(..., dL, dR)`` stack between representations of one group."""
    if not rep_left.group.same_group(rep_right.group):
        raise EqunfoldError("representations live on different groups")
    M, dims = np.asarray(M, dtype=complex), (rep_left.dim, rep_right.dim)
    if M.shape[-2:] != dims:
        raise EqunfoldError(f"matrix shape {M.shape} does not end in {dims}")
    return M


def equivariant_average(rep_left, rep_right, M):
    """Group-average ``(1/|G|) sum_g  rhoL(g) M rhoR(g)^-1``.

    The result intertwines the two representations:
    ``rhoL(g) @ out == out @ rhoR(g)`` for every ``g``.  With
    ``rep_left is rep_right`` this is the projection onto the commutant;
    mixed arguments project onto the intertwiner space (used to project
    the rectangular R-matrices of the unfolding construction).

    M may be a ``(..., dL, dR)`` stack; each matrix is averaged on its own
    by the same per-element products, so a stack gives, bit for bit, what
    one call per matrix gives.

    The ``1/|G|`` normalization is always applied so the operator is a true
    projection (idempotent on square inputs).
    """
    M = _intertwiner_stack(rep_left, rep_right, M)
    inverse = rep_right.group.inverse
    acc = np.zeros_like(M)
    for g, inv in enumerate(inverse):
        acc += rep_left.matrices[g] @ M @ rep_right.matrices[inv]
    return acc / len(inverse)


def intertwining_residual(rep_left, rep_right, matrices):
    """Max entrywise ``|rhoL(g) X - X rhoR(g)|`` over every generator g and
    every X of the ``(..., dL, dR)`` matrices, as one stacked product (NaN when
    a residual is): zero exactly when each X intertwines two homomorphisms
    (:func:`check_representation`), or commutes with one given twice; 0.0
    for no matrix."""
    shape = (-1, rep_left.dim, rep_right.dim)
    X = np.asarray(matrices, dtype=complex)
    X = _intertwiner_stack(rep_left, rep_right, X if X.size else X.reshape(shape)).reshape(shape)
    gens = list(rep_left.group.generator_indices)
    L, R = rep_left.matrices[gens, None], rep_right.matrices[gens, None]
    return float(np.abs(L @ X - X @ R).max(initial=0.0))


def commutant_basis(rep):
    """Orthonormal basis of the matrices commuting with every rho(g), as a
    ``(k, dim, dim)`` stack.

    Solves the linear constraints ``rho(g) X - X rho(g) = 0`` stacked over the
    generators (:attr:`FiniteGroup.generator_indices`) and returns
    the common null space reshaped to matrices.  The basis is orthonormal in
    the Frobenius inner product.  The cut is ``REP_TOL``, the residual an
    induced representation is held to, so its constraint noise counts as
    null; its scale is the representation norm: a numerically trivial
    representation constrains nothing.
    """
    gens = rep.matrices[list(rep.group.generator_indices)]
    scale = max(1.0, *(float(np.linalg.norm(R, 2)) for R in gens))
    ns = null_basis(np.vstack([ad_matrix(R) for R in gens]), scale, REP_TOL)
    return ns.T.reshape(-1, rep.dim, rep.dim)
