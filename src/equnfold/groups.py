"""Finite matrix groups and group-average (Haar) projections.

A finite group is stored as a multiplication table over element indices
``0..order-1``; a representation attaches one complex matrix per element.
The Haar integral of a compact group specializes, for a finite group, to
the normalized sum ``(1/|G|) sum_g``, which is how every projection here
is realized: onto the commutant of a representation, or more generally
onto the space of maps intertwining two representations.

Groups can be entered directly as a multiplication table, or generated by
closing a set of matrices under products (the usual way to specify a small
symmetry group such as the dihedral group of the triangle).

A fact that products preserve (rho is a homomorphism; a matrix commutes
with rho) holds on every element when it holds on a generating set, so it is
checked on :attr:`FiniteGroup.generators` only.
"""

from typing import NamedTuple

import numpy as np

from ._linalg import EPS, REP_TOL, SINGULAR_RCOND, ad_matrix, null_basis, rank
from .errors import StructuralError

CLOSURE_TOL = 1e-10         # entrywise: closure products this close are one element
DEFAULT_MAX_ORDER = 512


class FiniteGroup(NamedTuple):
    """A finite group given by its multiplication table.

    Attributes
    ----------
    mul_table : ``(order, order)`` int ndarray
        ``mul_table[a, b]`` is the index of the product ``a * b``.
    identity : int
        Index of the identity element.
    inverse : ``(order,)`` int ndarray
        ``inverse[g]`` is the index of ``g**-1``.
    generator_indices : tuple of int
        Indices of a generating set, when the group was built by closure;
        empty when unknown.
    """

    mul_table: np.ndarray
    identity: int
    inverse: np.ndarray
    generator_indices: tuple = ()

    @property
    def order(self):
        return self.mul_table.shape[0]

    @property
    def generators(self):
        """``generator_indices``, or every element when none are recorded (a
        group read from a table); the homomorphism, commutation and
        intertwining residuals are taken over these."""
        return self.generator_indices or tuple(self.elements())

    def elements(self):
        return range(self.order)

    @classmethod
    def from_mul_table(cls, table, generator_indices=()):
        """Build and validate a group from a multiplication table."""
        table = np.asarray(table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructuralError("multiplication table must be square")
        n = table.shape[0]
        if table.min() < 0 or table.max() >= n:
            raise StructuralError("table entries must be element indices")

        # Latin square: every row and column is a permutation.
        full = np.arange(n)
        for axis in (0, 1):
            if not np.all(np.sort(table, axis=axis) == (full[:, None] if axis == 0 else full[None, :])):
                raise StructuralError("multiplication table is not a Latin square")

        identity = None
        for e in range(n):
            if np.all(table[e, :] == full) and np.all(table[:, e] == full):
                identity = e
                break
        if identity is None:
            raise StructuralError("no identity element in table")

        inverse = np.empty(n, dtype=int)
        for g in range(n):
            inv = np.nonzero(table[g, :] == identity)[0]
            if len(inv) != 1 or table[inv[0], g] != identity:
                raise StructuralError(f"element {g} has no two-sided inverse")
            inverse[g] = inv[0]

        # Associativity, exhaustively; groups here are small.  Chunk over the
        # first index to keep the temporary arrays modest.
        for a in range(n):
            if not np.array_equal(table[table[a]], table[a][table]):
                raise StructuralError(f"associativity fails for triples starting at {a}")

        return cls(mul_table=table, identity=identity, inverse=inverse,
                   generator_indices=tuple(generator_indices))

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
            raise StructuralError(
                f"expected {group.order} square matrices of equal size, got shape {mats.shape}"
            )
        return super().__new__(cls, group, mats)

    @property
    def dim(self):
        return self.matrices.shape[1]

    def inverse_matrix(self, g):
        """rho(g)^-1, taken as the matrix of the inverse group element."""
        return self.matrices[self.group.inverse[g]]


def close_generators(generators, max_order=DEFAULT_MAX_ORDER):
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
    Cayley graph (element times generator), the table follows from that by
    integer composition, the discovery order is replayed on the table, and
    an element's matrix is the product of the pair that discovered it.

    Raises
    ------
    StructuralError
        If a generator is singular, shapes disagree, or the closure exceeds
        ``max_order`` elements.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if not gens:
        raise StructuralError("need at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise StructuralError("generator matrices must share one square shape")
        if rank(g, rcond=d * EPS) < d:
            raise StructuralError("singular generator matrix")

    stack = np.eye(d, dtype=complex)[None]
    gen_idx = []
    for g in gens:
        k = int(_lookup(stack, g[None])[0])
        if k < 0:
            k, stack = len(stack), np.concatenate([stack, g[None]])
        gen_idx.append(k)
    start = len(stack)
    stack, right, parents = _cayley_graph(stack, gen_idx, max_order)
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
    """Index of the first matrix of ``stack`` within ``CLOSURE_TOL`` of each
    matrix in the stack P, entrywise; -1 where there is none (a product with
    a NaN entry matches nothing)."""
    out = np.full(len(P), -1)
    # blocks of products bound the (products x stored x entries) comparison
    # to about 4k scalars, so a closure nearing max_order holds no |G|^2
    # temporaries
    step = max(1, 4096 // stack[0].size // len(stack))
    for lo in range(0, len(P), step):
        near = np.all(np.abs(stack - P[lo:lo + step, None]) < CLOSURE_TOL, axis=(2, 3))
        first = np.argmax(near, axis=1)
        out[lo:lo + step] = np.where(near[np.arange(len(first)), first], first, -1)
    return out


def _cayley_graph(stack, gen_idx, max_order):
    """Grow ``stack`` (the identity and the generators ``gen_idx``) to the
    group they generate, a level of products ``element @ generator`` at a
    time.  Returns the grown stack, ``right[x, j]``, the index of
    ``x * gen_idx[j]``, and the pair ``(x, j)`` that found each element
    added here."""
    gens = stack[gen_idx]
    right = np.empty((0, len(gen_idx)), dtype=int)
    parents = []
    while len(right) < len(stack):
        level = stack[len(right):]
        products = (level[:, None] @ gens).reshape(-1, *gens.shape[1:])
        found = _lookup(stack, products)
        known = len(stack)
        added = []      # positions in products of the elements this level adds
        # products found nowhere may still equal one added earlier in the level
        for p in np.nonzero(found < 0)[0]:
            k = _lookup(products[added], products[p:p + 1])[0] if added else -1
            if k >= 0:
                found[p] = known + k
                continue
            found[p] = known + len(added)
            added.append(p)
            if known + len(added) > max_order:
                raise StructuralError(
                    f"closure exceeded {max_order} elements; not a finite group at this cap"
                )
            x, j = divmod(int(p), len(gen_idx))
            parents.append((len(right) + x, j))
        stack = np.concatenate([stack, products[added]])
        right = np.concatenate([right, found.reshape(len(level), len(gen_idx))])
    return stack, right, parents


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
    over every element x and generator g (:attr:`FiniteGroup.generators`),
    skipping NaN as ``max`` does; inf when some rho(x) is numerically
    singular.

    By induction on word length, rho is a homomorphism exactly when these
    residuals vanish: |G| products per generator instead of |G|^2.
    """
    group, mats = rep.group, rep.matrices
    if np.any(rank(mats, scale=1.0, rcond=SINGULAR_RCOND) < rep.dim):
        return np.inf
    worst = np.fmax.reduce(np.abs(mats[group.identity] - np.eye(rep.dim)), axis=None)
    for g in group.generators:
        worst = np.fmax(worst, np.fmax.reduce(
            np.abs(mats @ mats[g] - mats[group.mul_table[:, g]]), axis=None))
    return float(worst)


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
    if not rep_left.group.same_group(rep_right.group):
        raise StructuralError("representations live on different groups")
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2:] != (rep_left.dim, rep_right.dim):
        raise StructuralError(
            f"matrix shape {M.shape} does not end in ({rep_left.dim}, {rep_right.dim})"
        )
    group = rep_left.group
    acc = np.zeros_like(M)
    for g in group.elements():
        acc += rep_left.matrices[g] @ M @ rep_right.inverse_matrix(g)
    return acc / group.order


def commutator_residual(rep, matrices):
    """Max entrywise ``|rho(g) A - A rho(g)|`` over every generator g and every A.

    Zero (within tolerance) exactly when each matrix commutes with the group
    action, for a rho that is a homomorphism (:func:`check_representation`).
    """
    gens = rep.matrices[list(rep.group.generators)]
    res = 0.0
    for A in matrices:
        A = np.asarray(A, dtype=complex)
        res = max(res, float(np.max(np.abs(gens @ A - A @ gens))))
    return res


def commutant_basis(rep):
    """Orthonormal basis of the matrices commuting with every rho(g), as a
    ``(k, dim, dim)`` stack.

    Solves the linear constraints ``rho(g) X - X rho(g) = 0`` stacked over the
    generators (:attr:`FiniteGroup.generators`) and returns
    the common null space reshaped to matrices.  The basis is orthonormal in
    the Frobenius inner product.  The cut is ``REP_TOL``, the residual an
    induced representation is held to, so its constraint noise counts as
    null; its scale is the representation norm: a numerically trivial
    representation constrains nothing.
    """
    gens = rep.matrices[list(rep.group.generators)]
    scale = max(1.0, *(float(np.linalg.norm(R, 2)) for R in gens))
    ns = null_basis(np.vstack([ad_matrix(R) for R in gens]), scale, REP_TOL)
    return ns.T.reshape(-1, rep.dim, rep.dim)
