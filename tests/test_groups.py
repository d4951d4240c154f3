import re

import numpy as np
import pytest

from equnfold.d3 import GAMMA_MAT, KAPPA_MAT, OMEGA, triangle_rep
from equnfold._linalg import scaled
from equnfold.errors import EqunfoldError
from equnfold.groups import (CLOSURE_TOL, FiniteGroup, Representation, _lookup,
                             check_representation, close_generators, commutant_basis,
                             equivariant_average, intertwining_residual)
from equnfold.invariants import BY_NAME, DEFAULT_TOL

from conftest import random_complex, same_bits

I3 = np.eye(3)
J3 = np.ones((3, 3))


def act8_rep():
    """The 8-dimensional diagonal/swap action induced on the double case."""
    w = OMEGA
    g_gamma = np.diag([w, w.conjugate(), w.conjugate(), w,
                       w, w.conjugate(), w.conjugate(), w])
    g_kappa = np.kron(np.eye(4), np.array([[0, 1], [1, 0]], dtype=complex))
    return close_generators([g_kappa, g_gamma])


def brute_average(rep, M):
    """Independent oracle: the explicit normalized sum over all elements."""
    total = sum(rep.matrices[g] @ M @ np.linalg.inv(rep.matrices[g])
                for g in range(rep.group.order))
    return total / rep.group.order


def _average_loop(left, right, M):
    """Reference: one matrix, one element at a time (the implementation
    before stacks were accepted)."""
    acc = np.zeros_like(M)
    for g in range(left.group.order):
        acc += left.matrices[g] @ M @ right.matrices[right.group.inverse[g]]
    return acc / left.group.order


class TestFiniteGroup:
    def test_triangle_closure(self):
        rep = triangle_rep()
        g = rep.group
        assert g.order == 6
        assert g.identity == 0
        assert g.generator_indices == (1, 2)
        for a in range(g.order):
            assert g.mul_table[a, g.inverse[a]] == g.identity
            assert g.mul_table[g.identity, a] == a

    def test_rejects_non_latin_table(self):
        bad = [[0, 0], [1, 1]]
        with pytest.raises(EqunfoldError, match="^multiplication table is not a Latin square$"):
            FiniteGroup.from_mul_table(bad, generator_indices=(1,))

    def test_rejects_identity_not_first(self):
        # Z2 with its identity at index 1: a group, but not in the closure's order
        with pytest.raises(EqunfoldError, match="element 0 .* is not the identity"):
            FiniteGroup.from_mul_table([[1, 0], [0, 1]], generator_indices=(0,))

    def test_rejects_singular_generator(self):
        with pytest.raises(EqunfoldError, match="^singular generator matrix$"):
            close_generators([np.zeros((2, 2))])

    def test_rejects_generator_singular_to_rounding(self):
        # smallest singular value ~6e-16: singular at rounding level only
        with pytest.raises(EqunfoldError, match="singular"):
            close_generators([np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])])


def _close_generators_rows(generators, max_order=512, tol=1e-10):
    """Reference closure: passes over the rows, each row times every element
    known when it starts, until a pass adds nothing (the implementation
    before the Cayley-graph closure).  Every product is taken again on each
    pass; the last pass's rows are the table."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    d = gens[0].shape[0]
    stack = np.eye(d, dtype=complex)[None]

    def lookup(P):
        near = np.max(np.abs(stack - P[:, None]), axis=(2, 3)) < tol
        return np.where(near.any(axis=1), np.argmax(near, axis=1), -1)

    def add(M):
        nonlocal stack
        stack = np.concatenate([stack, M[None]])
        return len(stack) - 1

    gen_idx = []
    for g in gens:
        k = lookup(g[None])[0]
        gen_idx.append(int(k) if k >= 0 else add(g))
    while True:
        n = len(stack)
        rows = []
        for a in range(n):
            products = stack[a] @ stack
            row = lookup(products)
            for b in np.nonzero(row < 0)[0]:
                k = lookup(products[b][None])[0]
                if k < 0:
                    k = add(products[b])
                    if len(stack) > max_order:
                        raise EqunfoldError(
                            f"closure exceeded {max_order} elements; not a finite group at this cap"
                        )
                row[b] = k
            rows.append(row)
        if len(stack) == n:
            break
    group = FiniteGroup.from_mul_table(np.array(rows), generator_indices=gen_idx)
    return Representation(group=group, matrices=stack)


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _shift(n):
    return np.roll(np.eye(n), 1, axis=0)


def _reflection(n):
    return np.eye(n)[(-np.arange(n)) % n]


def _assert_same_closure(generators):
    """The closure returns the row-pass closure's elements in its order, bit
    for bit, with its table and generator indices."""
    old = _close_generators_rows(generators)
    new = close_generators(generators)
    assert np.array_equal(new.group.mul_table, old.group.mul_table)
    assert new.group.generator_indices == old.group.generator_indices
    assert new.matrices.shape == old.matrices.shape
    assert np.array_equal(new.matrices.view(np.uint64), old.matrices.view(np.uint64))


def _assert_permutation_group(rep, order):
    """A closure of permutation matrices obeys its own products: element 0 is
    the identity, ``mul_table`` is the matrix product, exactly, and the
    derived inverse of each element is its transpose."""
    mats = rep.matrices
    assert rep.group.order == order
    assert np.array_equal(mats[0], np.eye(rep.dim))
    assert np.array_equal(mats[:, None] @ mats[None], mats[rep.group.mul_table])
    assert np.array_equal(mats[rep.group.inverse], mats.transpose(0, 2, 1))


class TestClosureOracle:
    """The closure of a cyclic shift or a dihedral pair obeys the group law;
    the closures of other generator sets match the row-pass closure."""

    @pytest.mark.parametrize("n", range(3, 25))
    def test_cyclic_shift(self, n):
        # element k is shift^k, so the table is addition mod n
        rep = close_generators([_shift(n)])
        _assert_permutation_group(rep, n)
        k = np.arange(n)
        assert np.array_equal(rep.group.mul_table, (k[:, None] + k) % n)
        assert np.array_equal(rep.group.inverse, -k % n)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_dihedral(self, n):
        rep = close_generators([_shift(n), _reflection(n)])
        _assert_permutation_group(rep, 2 * n)
        table, (r, s) = rep.group.mul_table, rep.group.generator_indices
        assert table[s, s] == 0 and table[table[s, r], s] == rep.group.inverse[r]

    def test_d3_preset_generators(self):
        _assert_same_closure([KAPPA_MAT, GAMMA_MAT])
        _assert_same_closure([GAMMA_MAT, KAPPA_MAT])
        _assert_same_closure([GAMMA_MAT, KAPPA_MAT, GAMMA_MAT])

    def test_rounded_rotation(self):
        # the rotations by multiples of 2 pi / 5, reached through rounded
        # products of the rotation by 4 pi / 5
        R = _rotation(4 * np.pi / 5)
        _assert_same_closure([R, R.T])
        _assert_same_closure([R, np.diag([1.0, -1.0])])

    @pytest.mark.parametrize("m", [1, 2, 5, 7, 12])
    def test_roots_of_unity(self, m):
        _assert_same_closure([[[np.exp(2j * np.pi / m)]]])
        _assert_same_closure([[[np.exp(2j * np.pi / m)]], [[-1.0]]])

    def test_cap_still_fires(self):
        # an irrational rotation of C^3 about one axis never closes
        R = np.eye(3)
        R[:2, :2] = _rotation(1.0)
        with pytest.raises(EqunfoldError, match="closure exceeded 512 elements"):
            close_generators([R])


def _random_unitary(rng, d):
    Q, R = np.linalg.qr(random_complex(rng, d, d))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestCayleyClosureOracle:
    """The Cayley-graph closure matches the row-pass closure on cyclic and
    dihedral ladders, other preset groups and unitary conjugates."""

    @pytest.mark.parametrize("n", range(3, 25))
    @pytest.mark.parametrize("form", ["permutation", "rotation"])
    def test_cyclic_and_dihedral(self, n, form):
        if form == "permutation":
            step, flip = _shift(n), _reflection(n)
        else:
            step, flip = _rotation(2 * np.pi / n), np.diag([1.0, -1.0])
        _assert_same_closure([step])
        _assert_same_closure([step, flip])
        _assert_same_closure([flip, step])

    def test_preset_group(self):
        _assert_same_closure([np.eye(3), KAPPA_MAT])
        rep = act8_rep()
        gens = [rep.matrices[g] for g in rep.group.generator_indices]
        _assert_same_closure(gens)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
    def test_random_unitary_conjugates(self, n, rng):
        for gens in ([_shift(n)], [_shift(n), _reflection(n)], [KAPPA_MAT, GAMMA_MAT]):
            U = _random_unitary(rng, gens[0].shape[0])
            _assert_same_closure([U @ g @ U.conj().T for g in gens])
        U = _random_unitary(rng, 2)
        _assert_same_closure([U @ _rotation(2 * np.pi / n) @ U.conj().T,
                              U @ np.diag([1.0, -1.0]) @ U.conj().T])


class TestLookup:
    """The closure's lookup returns the first stored matrix within
    ``CLOSURE_TOL`` entrywise of one product, on either side of the
    tolerance edge with every entry moved, and never matches a product with
    a NaN entry."""

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_matches_at_the_tolerance_edge(self, d, scale, rng):
        stack = scale * random_complex(rng, 6, d, d)
        expected = []
        for k in range(len(stack)):
            move = np.exp(2j * np.pi * rng.random((d, d)))
            for step in (0.7, -0.7, 0.99, -0.99, 1.01, -1.01):
                Q = stack[k] + step * CLOSURE_TOL * move
                hits = np.nonzero(np.max(np.abs(stack - Q), axis=(1, 2)) < CLOSURE_TOL)[0]
                expected.append(int(hits[0]) if len(hits) else -1)
                assert _lookup(stack, Q) == expected[-1]
                if abs(step) == 0.7:
                    assert expected[-1] == k
        assert -1 in expected

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_nan_product_matches_nothing(self, d, rng):
        stack = random_complex(rng, 6, d, d)
        P = stack[2].copy()
        P[-1, -1] = np.nan
        assert _lookup(stack, P) == -1
        assert [_lookup(stack, Q) for Q in stack] == list(range(6))


class TestCheckRepresentation:
    def test_triangle_rep_valid(self):
        assert check_representation(triangle_rep()) == 0.0

    def test_trivial_rep_valid(self):
        group = triangle_rep().group
        mats = np.broadcast_to(np.eye(4), (6, 4, 4)).astype(complex)
        assert check_representation(Representation(group, mats.copy())) == 0.0

    def test_transposed_generator_detected(self):
        rep = triangle_rep()
        gam = rep.group.generator_indices[1]
        mats = rep.matrices.copy()
        mats[gam] = mats[gam].T     # gamma^-1 in place of gamma
        # a permutation matrix in place of another: some entry is off by 1
        assert check_representation(Representation(rep.group, mats)) == 1.0

    def test_shape_mismatch_is_structural(self):
        group = triangle_rep().group
        with pytest.raises(EqunfoldError, match=r"^expected 6 square matrices of equal size, "
                                                r"got shape \(6, 3, 4\)$"):
            Representation(group, np.zeros((6, 3, 4)))

    def test_singular_element_reported(self):
        rep = triangle_rep()
        mats = rep.matrices.copy()
        mats[3] = 0.0
        assert check_representation(Representation(rep.group, mats)) == np.inf

    def test_non_generator_element_detected(self):
        # the last element the closure finds is a word of length 3 or more in
        # the hexagon's rotation and reflection; the product x g that lands on
        # it reads its matrix
        rep = close_generators([_shift(6), _reflection(6)])
        mats = rep.matrices.copy()
        mats[-1, 0, 0] += 1e-3
        assert check_representation(Representation(rep.group, mats)) == pytest.approx(1e-3)


def _check_representation_loop(rep, tol=1e-9):
    """Reference: one product per pair (g, h) and one SVD per element (the
    implementation before the batched rows)."""
    group, mats = rep.group, rep.matrices
    max_res = float(np.max(np.abs(mats[group.identity] - np.eye(rep.dim))))
    violated, singular = [], []
    for g in range(group.order):
        for h in range(group.order):
            res = float(np.max(np.abs(mats[g] @ mats[h] - mats[group.mul_table[g, h]])))
            max_res = max(max_res, res)
            if res > tol:
                violated.append((g, h))
        s = np.linalg.svd(mats[g], compute_uv=False)
        if s[-1] <= 1e-12 * max(s[0], 1.0):
            singular.append(g)
    return violated, max_res, singular


class TestCheckRepresentationOracle:
    @pytest.mark.parametrize("case", ["valid", "perturbed", "singular", "overflow", "dihedral"])
    def test_same_report_as_pairwise_loop(self, case, rng):
        """The entry ``group.representation`` fails exactly when the loop over
        every pair, at the entry's bound, finds a violated pair or a singular
        element; its residual, over the products x g, is at most the loop's."""
        rep = close_generators([_shift(6), _reflection(6)]) if case == "dihedral" \
            else triangle_rep()
        mats = rep.matrices.copy()
        if case in ("perturbed", "dihedral"):
            mats[[1, 4]] += 1e-6 * random_complex(rng, 2, rep.dim, rep.dim)
        elif case == "singular":
            mats[3] = 0.0
        elif case == "overflow":
            mats[1] = 1e300 * np.array([[1, -1, 1], [1, 1, -1], [-1, 1, 1]])
        rep = Representation(rep.group, mats)
        entry = BY_NAME["group.representation"]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = min(scaled(DEFAULT_TOL, np.max(np.abs(mats)) ** 2), np.finfo(float).max)
            violated, max_res, singular = _check_representation_loop(rep, tol=bound)
            residual = check_representation(rep)
            passed = entry.report(rep, tol=DEFAULT_TOL).passed
        assert passed == (not violated and not singular)
        assert residual <= (np.inf if singular else max_res)


class TestEquivariantAverage:
    def test_E11_projects_to_third_identity(self):
        rep = triangle_rep()
        E11 = np.zeros((3, 3), dtype=complex)
        E11[0, 0] = 1.0
        out = equivariant_average(rep, rep, E11)
        assert np.allclose(out, I3 / 3.0, atol=1e-14)
        assert np.allclose(out, brute_average(rep, E11), atol=1e-14)

    def test_E12_projects_to_coupling_pattern(self):
        rep = triangle_rep()
        E12 = np.zeros((3, 3), dtype=complex)
        E12[0, 1] = 1.0
        out = equivariant_average(rep, rep, E12)
        assert np.allclose(out, (J3 - I3) / 6.0, atol=1e-14)

    def test_fixed_point(self, rng):
        rep = triangle_rep()
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        M = a * I3 + b * (J3 - I3)
        assert np.allclose(equivariant_average(rep, rep, M), M, atol=1e-13)

    def test_group_mismatch_rejected(self):
        rep = triangle_rep()
        other = close_generators([np.array([[0, 1], [1, 0]], dtype=complex)])
        with pytest.raises(EqunfoldError, match="^representations live on different groups$"):
            equivariant_average(rep, other, np.zeros((3, 2)))

    def test_shape_mismatch_rejected(self):
        rep = triangle_rep()
        for shape in ((2, 3), (4, 3, 2), (3,)):
            with pytest.raises(EqunfoldError, match=rf"^matrix shape {re.escape(str(shape))} "
                                                    r"does not end in \(3, 3\)$"):
                equivariant_average(rep, rep, np.zeros(shape))

    def test_stack_equals_one_call_per_matrix_bitwise(self, rng, double_case):
        rep, G = double_case.rep, double_case.frame.G
        for left, right, stack in ((rep, rep, random_complex(rng, 5, 3, 3)),
                                   (rep, G, random_complex(rng, 16, 3, 8)),
                                   (G, G, random_complex(rng, 2, 4, 8, 8))):
            out = equivariant_average(left, right, stack)
            flat = stack.reshape(-1, *stack.shape[-2:])
            ref = np.array([_average_loop(left, right, M) for M in flat])
            one = np.array([equivariant_average(left, right, M) for M in flat])
            for got in (out.reshape(ref.shape), one):
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestProjectionAlgebra:
    """Idempotency, intertwining, and the module-morphism identities."""

    @pytest.mark.parametrize("repname", ["c3", "c8"])
    def test_identities_on_random_matrices(self, repname, rng):
        rep = triangle_rep() if repname == "c3" else act8_rep()
        d = rep.dim
        comm = commutant_basis(rep)
        for _ in range(25):
            M = random_complex(rng, d, d)
            N = random_complex(rng, d, d)
            PM = equivariant_average(rep, rep, M)
            # idempotency
            assert np.max(np.abs(equivariant_average(rep, rep, PM) - PM)) < 1e-12
            # intertwining
            for g in range(rep.group.order):
                R = rep.matrices[g]
                assert np.max(np.abs(R @ PM - PM @ R)) < 1e-12
            # linearity
            a, b = rng.standard_normal(2)
            lin = equivariant_average(rep, rep, a * M + b * N)
            PN = equivariant_average(rep, rep, N)
            assert np.max(np.abs(lin - (a * PM + b * PN))) < 1e-12
            # morphism property for A in the commutant span
            coef = random_complex(rng, len(comm))
            A = sum(c * K for c, K in zip(coef, comm))
            left = equivariant_average(rep, rep, A @ M)
            right = equivariant_average(rep, rep, M @ A)
            assert np.max(np.abs(left - A @ PM)) < 1e-12
            assert np.max(np.abs(right - PM @ A)) < 1e-12


def _commutator_residual_loop(rep, matrices):
    """Reference: one pair of products per matrix, the running ``max`` from
    0 (the implementation before the stacked product)."""
    gens = rep.matrices[list(rep.group.generator_indices)]
    res = 0.0
    for A in matrices:
        A = np.asarray(A, dtype=complex)
        res = max(res, float(np.max(np.abs(gens @ A - A @ gens))))
    return res


class TestCommutatorResidualOracle:
    """The stacked intertwining residual of a representation with itself
    equals the per-matrix commutator loop bit for bit, and is NaN where a
    matrix's residual is (the loop's running ``max`` skips it)."""

    @pytest.mark.parametrize("repname", ["c3", "c8", "d6"])
    def test_random_stacks(self, repname, rng):
        rep = {"c3": triangle_rep, "c8": act8_rep,
               "d6": lambda: close_generators([_shift(6), _reflection(6), -np.eye(6)])}[repname]()
        d = rep.dim
        for k in (1, 2, 7):
            stack = random_complex(rng, k, d, d)
            near = equivariant_average(rep, rep, stack)    # residuals at rounding level
            nan = stack.copy()
            nan[k // 2, 0, 0] = np.nan
            for matrices in (stack, near, list(stack.real)):
                assert same_bits([intertwining_residual(rep, rep, matrices)],
                                 [_commutator_residual_loop(rep, matrices)])
            assert np.isnan(intertwining_residual(rep, rep, nan))
            assert np.isnan(intertwining_residual(rep, rep, list(nan)))
        assert intertwining_residual(rep, rep, []) == 0.0

    def test_presets(self, simple_case, double_case):
        for case in (simple_case, double_case):
            G, A = case.frame.G, case.assembly.family.directions
            for rep, matrices in ((case.rep, [M for _, M in case.op.terms]),
                                  (G, [case.frame.B]), (case.rep, A.reshape(-1, *A.shape[-2:]))):
                assert same_bits([intertwining_residual(rep, rep, matrices)],
                                 [_commutator_residual_loop(rep, matrices)])
            # the family's (p, J, n, n) stack as it is, with no reshape at the call
            assert same_bits([intertwining_residual(case.rep, case.rep, A)],
                             [_commutator_residual_loop(case.rep, A.reshape(-1, *A.shape[-2:]))])


def test_intertwining_residual_refuses_two_groups():
    # as equivariant_average does: Z_2, and Z_6 of the same order as the
    # triangle group but another table, are other groups
    d3 = triangle_rep()
    for other in (close_generators([np.diag([1.0, 1.0, -1.0])]), close_generators([_shift(6)])):
        X = np.ones((3, other.dim))
        for left, right, M in ((d3, other, X), (other, d3, X.T)):
            with pytest.raises(EqunfoldError, match="different groups"):
                intertwining_residual(left, right, [M])
            with pytest.raises(EqunfoldError, match="different groups"):
                equivariant_average(left, right, M)


def test_intertwining_residual_refuses_a_wrong_shape():
    # as equivariant_average does: a 4 x 4 matrix for Z_2 on C^2 was read as
    # four 2 x 2 blocks, each commuting with the swap, and passed with 0.0
    rep2 = close_generators([[[0, 1], [1, 0]]])
    for M in (np.ones((4, 4)), np.ones((3, 4)), np.diag([1.0, 2.0, 3.0, 4.0])):
        shape = re.escape(str((1, *M.shape)))
        with pytest.raises(EqunfoldError,
                           match=rf"^matrix shape {shape} does not end in \(2, 2\)$"):
            intertwining_residual(rep2, rep2, [M])
        with pytest.raises(EqunfoldError, match=r"does not end in \(2, 2\)$"):
            equivariant_average(rep2, rep2, M)
    assert intertwining_residual(rep2, rep2, []) == 0.0


class TestCommutantBasis:
    def test_triangle_perm_commutant(self):
        rep = triangle_rep()
        basis = commutant_basis(rep)
        assert len(basis) == 2
        # same span as {I, J - I}: mutual projection residuals vanish
        stack = np.array([K.reshape(-1) for K in basis])
        for target in (I3, J3 - I3):
            v = target.reshape(-1).astype(complex)
            proj = stack.conj() @ v
            assert np.linalg.norm(v - stack.T @ proj) < 1e-12

    def test_trivial_rep_full_space(self):
        group = triangle_rep().group
        mats = np.broadcast_to(np.eye(4), (6, 4, 4)).astype(complex).copy()
        rep = Representation(group, mats)
        assert len(commutant_basis(rep)) == 16

    def test_act8_commutant_dimension(self):
        # 32 entries survive the diagonal characters; the swap identifies
        # them in pairs, leaving 16 free parameters
        rep = act8_rep()
        basis = commutant_basis(rep)
        assert len(basis) == 16
        w = OMEGA
        chars = np.array([w, w.conjugate(), w.conjugate(), w,
                          w, w.conjugate(), w.conjugate(), w])
        allowed = sum(1 for i in range(8) for j in range(8)
                      if abs(chars[i] - chars[j]) < 1e-12)
        assert allowed == 32
        assert allowed // 2 == len(basis)

    def test_commutant_is_fixed_point_set(self, rng):
        rep = triangle_rep()
        basis = commutant_basis(rep)
        # projection of a random matrix lies in the span of the basis
        M = random_complex(rng, 3, 3)
        PM = equivariant_average(rep, rep, M).reshape(-1)
        stack = np.array([K.reshape(-1) for K in basis])
        assert np.linalg.norm(PM - stack.T @ (stack.conj() @ PM)) < 1e-12
        # and every basis element is fixed by the projection
        for K in basis:
            assert np.max(np.abs(equivariant_average(rep, rep, K) - K)) < 1e-12
