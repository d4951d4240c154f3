import numpy as np
import pytest

from equnfold.d3 import GAMMA_MAT, KAPPA_MAT, OMEGA, triangle_rep
from equnfold.errors import StructuralError
from equnfold.groups import (FiniteGroup, Representation, _MatrixSet,
                             check_representation, close_generators, commutant_basis,
                             equivariant_average)

from conftest import random_complex

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
                for g in rep.group.elements())
    return total / rep.group.order


class TestFiniteGroup:
    def test_triangle_closure(self):
        rep = triangle_rep()
        g = rep.group
        assert g.order == 6
        assert g.identity == 0
        assert g.generator_indices == (1, 2)
        for a in g.elements():
            assert g.mul(a, g.inverse[a]) == g.identity
            assert g.mul(g.identity, a) == a

    def test_rejects_non_latin_table(self):
        bad = [[0, 0], [1, 1]]
        with pytest.raises(StructuralError):
            FiniteGroup.from_mul_table(bad)

    def test_rejects_singular_generator(self):
        with pytest.raises(StructuralError):
            close_generators([np.zeros((2, 2))])

    def test_closure_cap(self):
        # an irrational rotation never closes
        th = 1.0
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        with pytest.raises(StructuralError):
            close_generators([R], max_order=32)


def _close_generators_loop(generators, max_order=512, tol=1e-10):
    """Reference closure: one linear scan per product lookup and a second
    pass over all |G|^2 products for the table (the implementation before
    the fingerprinted closure)."""
    gens = [np.asarray(g, dtype=complex) for g in generators]
    d = gens[0].shape[0]
    stack = np.eye(d, dtype=complex)[None]

    def find(M):
        hits = np.nonzero(np.max(np.abs(stack - M[None, :, :]), axis=(1, 2)) < tol)[0]
        return int(hits[0]) if len(hits) else -1

    gen_idx = []
    for g in gens:
        k = find(g)
        if k < 0:
            stack = np.concatenate([stack, g[None]])
            k = len(stack) - 1
        gen_idx.append(k)
    grew = True
    while grew:
        grew = False
        for a in range(len(stack)):
            for b in range(len(stack)):
                p = stack[a] @ stack[b]
                if find(p) < 0:
                    stack = np.concatenate([stack, p[None]])
                    grew = True
                    if len(stack) > max_order:
                        raise StructuralError("closure exceeded max_order")
    n = len(stack)
    products = np.einsum("aij,bjk->abik", stack, stack)
    table = np.array([[find(products[a, b]) for b in range(n)] for a in range(n)])
    return stack, table, tuple(gen_idx)


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _shift(n):
    return np.roll(np.eye(n), 1, axis=0)


def _reflection(n):
    return np.eye(n)[(-np.arange(n)) % n]


class TestClosureOracle:
    """The fingerprinted closure finds the same elements, in the same order,
    with the same multiplication table as the linear-scan closure."""

    @staticmethod
    def _assert_same(generators):
        stack, table, gen_idx = _close_generators_loop(generators)
        rep = close_generators(generators)
        assert np.array_equal(rep.matrices, stack)
        assert np.array_equal(rep.group.mul_table, table)
        assert rep.group.generator_indices == gen_idx

    def test_d3_preset_generators(self):
        self._assert_same([KAPPA_MAT, GAMMA_MAT])
        self._assert_same([GAMMA_MAT, KAPPA_MAT, GAMMA_MAT])

    @pytest.mark.parametrize("n", range(3, 25))
    def test_cyclic_shift(self, n):
        self._assert_same([_shift(n)])

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
    def test_dihedral(self, n):
        self._assert_same([_shift(n), _reflection(n)])

    def test_rounded_rotation(self):
        R = _rotation(2 * np.pi / 5)
        self._assert_same([R])
        self._assert_same([R, np.diag([1.0, -1.0])])

    @pytest.mark.parametrize("m", [1, 2, 5, 7, 12])
    def test_roots_of_unity(self, m):
        self._assert_same([[[np.exp(2j * np.pi / m)]]])
        self._assert_same([[[np.exp(2j * np.pi / m)]], [[-1.0]]])

    def test_cap_still_fires(self):
        # an irrational rotation of C^3 about one axis never closes
        R = np.eye(3)
        R[:2, :2] = _rotation(1.0)
        with pytest.raises(StructuralError, match="closure exceeded 512 elements"):
            close_generators([R])


class TestMatrixSetLookup:
    """The fingerprint screen never drops a match, even one that sits at the
    entrywise tolerance with every entry moved in the direction that moves
    the fingerprint most."""

    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_matches_at_the_tolerance_edge(self, d, scale, rng):
        tol = 1e-10
        mats = _MatrixSet(d, tol)
        for _ in range(6):
            mats.add(scale * random_complex(rng, d, d))
        worst = np.exp(1j * np.angle(np.conj(mats._z)))[None, :]
        for k in range(len(mats)):
            for step in (0.7, -0.7, 0.99, -0.99, 1.01, -1.01):
                Q = mats.stack[k] + step * tol * worst
                hits = np.nonzero(np.max(np.abs(mats.stack - Q), axis=(1, 2)) < tol)[0]
                expected = int(hits[0]) if len(hits) else -1
                assert mats.find(Q) == expected
                if abs(step) == 0.7:
                    assert expected == k


class TestCheckRepresentation:
    def test_triangle_rep_valid(self):
        report = check_representation(triangle_rep())
        assert report.ok
        assert report.max_residual == 0.0

    def test_trivial_rep_valid(self):
        group = triangle_rep().group
        mats = np.broadcast_to(np.eye(4), (6, 4, 4)).astype(complex)
        assert check_representation(Representation(group, mats.copy())).ok

    def test_transposed_generator_detected(self):
        rep = triangle_rep()
        gam = rep.group.generator_indices[1]
        kap = rep.group.generator_indices[0]
        mats = rep.matrices.copy()
        mats[gam] = mats[gam].T     # gamma^-1 in place of gamma
        bad = Representation(rep.group, mats)
        report = check_representation(bad)
        assert not report.ok
        assert (gam, kap) in report.violated_pairs

    def test_shape_mismatch_is_structural(self):
        group = triangle_rep().group
        with pytest.raises(StructuralError):
            Representation(group, np.zeros((6, 3, 4)))

    def test_singular_element_reported(self):
        rep = triangle_rep()
        mats = rep.matrices.copy()
        mats[3] = 0.0
        report = check_representation(Representation(rep.group, mats))
        assert 3 in report.singular_elements
        assert not report.ok


def _check_representation_loop(rep, tol=1e-9):
    """Reference: one product per pair (g, h) and one SVD per element (the
    implementation before the batched rows)."""
    group, mats = rep.group, rep.matrices
    max_res = float(np.max(np.abs(mats[group.identity] - np.eye(rep.dim))))
    violated, singular = [], []
    for g in group.elements():
        for h in group.elements():
            res = float(np.max(np.abs(mats[g] @ mats[h] - mats[group.mul(g, h)])))
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
        with np.errstate(over="ignore", invalid="ignore"):
            violated, max_res, singular = _check_representation_loop(rep)
            report = check_representation(rep)
        assert list(report.violated_pairs) == violated
        assert report.max_residual == max_res
        assert list(report.singular_elements) == singular


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
        with pytest.raises(StructuralError):
            equivariant_average(rep, other, np.zeros((3, 2)))

    def test_shape_mismatch_rejected(self):
        rep = triangle_rep()
        with pytest.raises(StructuralError):
            equivariant_average(rep, rep, np.zeros((2, 3)))


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
            for g in rep.group.elements():
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
