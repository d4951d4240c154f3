import numpy as np
import pytest

from equnfold.d3 import d3_operator, factor_value, triangle_rep
from equnfold.delays import (EXPONENT_GAP, DelayOperator, bilinear_form, check_equivariance,
                             pairing_matrix)
from equnfold.errors import EqunfoldError
from equnfold.frames import eigenbasis, find_root, induce_representation
from equnfold.groups import close_generators

from conftest import random_complex, same_bits
from oracles import bilinear_form_quadrature

I3 = np.eye(3)
J3 = np.ones((3, 3))


def scalar_delay_op(r=np.pi / 2):
    """z'(t) = -z(t - r); for r = pi/2 it has roots at +-i."""
    return DelayOperator(n=1, terms=((r, [[-1.0]]),))


class TestDelayOperator:
    def test_duplicate_delay_rejected(self):
        with pytest.raises(EqunfoldError, match="^duplicate delay 1.0$"):
            DelayOperator(n=1, terms=((1.0, [[1.0]]), (1.0, [[2.0]])))

    def test_duplicate_delay_is_relative_to_the_lag(self):
        # one rounding step apart is one lag at any magnitude; 1e-9 apart is two
        with pytest.raises(EqunfoldError, match="duplicate delay"):
            DelayOperator(n=1, terms=((1e3, [[1.0]]), (np.nextafter(1e3, 2e3), [[2.0]])))
        assert len(DelayOperator(n=1, terms=((1e3, [[1.0]]), (1e3 + 1e-9, [[2.0]]))).terms) == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(EqunfoldError, match="^negative delay -0.5$"):
            DelayOperator(n=1, terms=((-0.5, [[1.0]]),))

    def test_coefficient_shape_checked(self):
        with pytest.raises(EqunfoldError, match=r"^coefficient shape \(1, 1\) != \(2, 2\)$"):
            DelayOperator(n=2, terms=((0.0, [[1.0]]),))

    def test_needs_a_term(self):
        with pytest.raises(EqunfoldError, match="^need at least one delay term$"):
            DelayOperator(n=1, terms=())

    @pytest.mark.parametrize("r, A, message", [
        (np.nan, I3, r"term 1 \(delay nan\)"),              # max skipped it: tau was 0.0
        (np.inf, I3, r"term 1 \(delay inf\)"),
        (1.0, [[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], r"term 1 \(delay 1.0\)"),
        (1.0, np.full((3, 3), np.inf * 1j), r"term 1 \(delay 1.0\)"),
    ], ids=["nan-lag", "inf-lag", "nan-coefficient", "inf-coefficient"])
    def test_non_finite_term_rejected(self, r, A, message):
        # a NaN coupling entry once passed check_equivariance with residual 0.0
        with pytest.raises(EqunfoldError, match=f"^{message} has a non-finite lag or coefficient$"):
            DelayOperator(n=3, terms=((0.0, -I3), (r, A)))

    def test_real_means_exactly_real(self):
        # an imaginary part of 1e-13 breaks Delta(conj(lam)) = conj(Delta(lam))
        assert DelayOperator(n=1, terms=((1.0, [[2.0]]),)).is_real
        assert not DelayOperator(n=1, terms=((0.0, [[-1.0]]), (1.0, [[2.0 + 1e-13j]]))).is_real


class TestCharMatrix:
    def test_zero_operator(self):
        op = DelayOperator(n=3, terms=((0.0, np.zeros((3, 3))),))
        for lam in (0.3, 1j, -2.0 + 0.5j):
            assert np.allclose(op.char_matrix(lam), lam * I3)

    def test_d3_factorization(self, rng):
        for _ in range(50):
            a, b, ts, tn = rng.uniform(-2, 2, 4)
            params = (a, b, abs(ts) + 0.1, abs(tn) + 0.2)
            op = d3_operator(*params)
            lam = complex(*rng.standard_normal(2))
            det = np.linalg.det(op.char_matrix(lam))
            args = (lam, *params)
            ref = factor_value("delta1", *args) * factor_value("delta2", *args) ** 2
            assert abs(det - ref) / (1 + abs(det)) < 1e-10

    def test_scalar_example(self):
        op = DelayOperator(n=1, terms=((1.0, [[-1.0]]),))
        assert np.allclose(op.char_matrix(0.0), [[1.0]])

    def test_derivative_matches_finite_difference(self, rng):
        op = d3_operator(alpha=1.2, beta=-0.7, tau_s=1.5, tau_n=2.5)
        h = 1e-5
        for _ in range(10):
            lam = complex(*rng.standard_normal(2))
            fd = (op.char_matrix(lam + h) - op.char_matrix(lam - h)) / (2 * h)
            assert np.max(np.abs(fd - op.char_matrix_deriv(lam))) < 1e-6


class TestCheckEquivariance:
    def test_d3_model_is_equivariant(self):
        op = d3_operator(alpha=0.9, beta=-0.4, tau_s=1.0, tau_n=2.0)
        assert check_equivariance(op, triangle_rep()) == 0.0

    def test_scalar_coefficients_commute(self):
        rep = triangle_rep()
        op = DelayOperator(n=3, terms=((0.0, 2.0 * I3), (1.0, -0.3 * I3)))
        assert check_equivariance(op, rep) == 0.0

    def test_one_way_coupling_breaks_symmetry(self):
        E12 = np.zeros((3, 3))
        E12[0, 1] = 1.0
        op = DelayOperator(n=3, terms=((0.0, -I3), (1.0, E12)))
        assert check_equivariance(op, triangle_rep()) > 0.1

    def test_dimension_mismatch(self):
        op = scalar_delay_op()
        with pytest.raises(EqunfoldError, match="^representation dim 3 != state dim 1$"):
            check_equivariance(op, triangle_rep())

    def test_char_matrix_commutes_when_equivariant(self, rng):
        op = d3_operator(alpha=0.9, beta=-0.4, tau_s=1.0, tau_n=2.0)
        rep = triangle_rep()
        for _ in range(5):
            lam = complex(*rng.standard_normal(2))
            D = op.char_matrix(lam)
            for g in range(rep.group.order):
                R = rep.matrices[g]
                assert np.max(np.abs(D @ R - R @ D)) < 1e-12


class TestBilinearForm:
    def test_same_root_equals_derivative_pairing(self):
        op = scalar_delay_op()
        lam = 1j
        assert abs(np.linalg.det(op.char_matrix(lam))) < 1e-14
        val = bilinear_form([1.0], lam, [1.0], lam, op)
        expected = complex(op.char_matrix_deriv(lam)[0, 0])
        assert abs(val - expected) < 1e-14
        assert abs(val) > 0.1   # simple root: pairing does not degenerate

    def test_distinct_roots_are_orthogonal(self):
        op = scalar_delay_op()
        assert abs(bilinear_form([1.0], 1j, [1.0], -1j, op)) < 1e-14

    def test_pure_ode_reduces_to_boundary_product(self, rng):
        A = rng.standard_normal((2, 2))
        op = DelayOperator(n=2, terms=((0.0, A),))
        w = random_complex(rng, 2)
        u = random_complex(rng, 2)
        assert abs(bilinear_form(w, 0.7 + 0.2j, u, -0.1 + 1.1j, op) - w @ u) < 1e-14

    def test_linearity(self, rng):
        op = d3_operator(alpha=0.5, beta=0.3, tau_s=1.0, tau_n=2.0)
        lam, mu = 0.2 + 1j, -0.4 + 0.5j
        w1, w2, u1, u2 = (random_complex(rng, 3) for _ in range(4))
        a, b = random_complex(rng, 2)
        lhs = bilinear_form(a * w1 + b * w2, lam, u1, mu, op)
        rhs = (a * bilinear_form(w1, lam, u1, mu, op) + b * bilinear_form(w2, lam, u1, mu, op))
        assert abs(lhs - rhs) < 1e-12
        lhs = bilinear_form(w1, lam, a * u1 + b * u2, mu, op)
        rhs = (a * bilinear_form(w1, lam, u1, mu, op) + b * bilinear_form(w1, lam, u2, mu, op))
        assert abs(lhs - rhs) < 1e-12


class TestQuadratureOracle:
    def test_matches_closed_form_on_random_pairs(self, rng):
        for _ in range(30):
            nterms = rng.integers(1, 4)
            delays = np.sort(rng.uniform(0, 5, nterms))
            delays[0] = 0.0 if rng.random() < 0.3 else delays[0]
            op = DelayOperator(n=2, terms=tuple(
                (float(r), random_complex(rng, 2, 2)) for r in delays))
            lam = complex(*rng.uniform(-2, 2, 2)) * 3
            mu = complex(*rng.uniform(-2, 2, 2)) * 3
            pair = (random_complex(rng, 2), lam, random_complex(rng, 2), mu, op)
            closed = bilinear_form(*pair)
            quad = bilinear_form_quadrature(*pair, npoints=64)
            assert abs(closed - quad) < 1e-6 * max(1.0, abs(closed))

    def test_convergence_with_node_doubling(self, rng):
        op = DelayOperator(n=2, terms=((1.3, random_complex(rng, 2, 2)),
                                       (3.7, random_complex(rng, 2, 2))))
        pair = (random_complex(rng, 2), 1.0 + 2.0j, random_complex(rng, 2), -0.5 + 1.5j, op)
        closed = bilinear_form(*pair)
        errs = [abs(bilinear_form_quadrature(*pair, npoints=n) - closed)
                for n in (8, 16, 32, 64)]
        assert errs[-1] < 1e-10
        assert errs[-1] <= errs[0] + 1e-14

    def test_pure_ode_noise_floor(self, rng):
        A = rng.standard_normal((2, 2))
        op = DelayOperator(n=2, terms=((0.0, A),))
        w, u = random_complex(rng, 2), random_complex(rng, 2)
        assert abs(bilinear_form_quadrature(w, 0.3j, u, 1.2, op) - w @ u) < 1e-14

    def test_minimum_nodes_enforced(self):
        op = scalar_delay_op()
        with pytest.raises(EqunfoldError, match="^npoints must be at least 8$"):
            bilinear_form_quadrature([1.0], 1j, [1.0], 1j, op, npoints=4)

    def test_located_eigenfunctions_match(self, simple_case):
        # the pairing of the actual critical eigenfunctions at the located
        # bifurcation point agrees across the two evaluations
        frame = simple_case.frame
        op = frame.op
        for w, u, lam in zip(frame.psi, frame.phi, frame.lambdas):
            closed = bilinear_form(w, lam, u, lam, op)
            quad = bilinear_form_quadrature(w, lam, u, lam, op, npoints=64)
            assert abs(closed - quad) < 1e-8
            assert abs(closed - 1.0) < 1e-9   # normalized frame


def _pairing_scalar(w, lam, u, mu, op):
    """Reference: the closed form one entry at a time in Python and numpy
    scalars (the implementation before the pairing was stacked)."""
    lam, mu = complex(lam), complex(mu)
    val = w @ u
    for r, A in op.terms:
        d = mu - lam
        E = -r if abs(d) < EXPONENT_GAP else (np.exp(-d * r) - 1.0) / d
        val -= np.exp(-lam * r) * (w @ A @ u) * E
    return complex(val)


@pytest.fixture(scope="module")
def ring12():
    """Frame and group of the 12-cell one-way ring of the pinned ring artifact."""
    n = 12
    shift = np.roll(np.eye(n), 1, axis=0)
    op = DelayOperator(n=n, terms=((0.0, -np.eye(n)), (1.0, 2.0 * shift)))
    rep = close_generators([shift])
    frame = eigenbasis(op, [find_root(op, seed).root for seed in (2j, -2j)])
    return induce_representation(frame, rep), rep


def _moved_pairing(frame, rep):
    """Rows psi_i and columns rho(g) phi_j, stacked over the group elements."""
    lam = np.array(frame.lambdas)
    V = np.array([R @ u for R in rep.matrices for u in frame.phi])
    return frame.psi, lam, V, np.tile(lam, rep.group.order)


class TestPairingMatrix:
    """The stacked pairing runs the scalar operations of one pairing per
    entry, so Gram matrices, induced actions and artifacts keep their bits."""

    @pytest.fixture(params=["simple", "double", "ring12"])
    def case(self, request):
        if request.param == "ring12":
            return request.getfixturevalue("ring12")
        r = request.getfixturevalue(f"{request.param}_case")
        return r.frame, r.rep

    def test_stacked_equals_scalar_formula_bitwise(self, case):
        frame, rep = case
        W, lam, V, mu = _moved_pairing(frame, rep)
        P = pairing_matrix(W, lam, V, mu, frame.op)
        ref = [[_pairing_scalar(w, l, u, m, frame.op) for u, m in zip(V, mu)]
               for w, l in zip(W, lam)]
        assert same_bits(P, ref)

    def test_bilinear_form_equals_pairing_matrix_bitwise(self, case):
        frame, rep = case
        W, lam, V, mu = _moved_pairing(frame, rep)
        P = pairing_matrix(W, lam, V, mu, frame.op)
        pairs = [[bilinear_form(w, l, u, m, frame.op) for u, m in zip(V, mu)]
                 for w, l in zip(W, lam)]
        assert np.array_equal(P, pairs) and same_bits(P, pairs)

    def test_gram_and_induced_action_are_the_entrywise_pairings(self, case):
        frame, rep = case
        op = frame.op
        lams = frame.lambdas
        gram = [[bilinear_form(w, l, u, m, op) for u, m in zip(frame.phi, lams)]
                for w, l in zip(frame.psi, lams)]
        assert same_bits(frame.gram(), gram)
        c, order = frame.c, rep.group.order
        W, lam, V, mu = _moved_pairing(frame, rep)
        entries = [[bilinear_form(w, l, u, m, op) for u, m in zip(V, mu)]
                   for w, l in zip(W, lam)]
        G = np.array(entries).reshape(c, order, c).transpose(1, 0, 2)
        assert same_bits(frame.G.matrices, G)

    def test_agrees_with_quadrature(self, simple_case, double_case):
        frame = double_case.frame
        lams = frame.lambdas
        quad = [[bilinear_form_quadrature(w, l, u, m, frame.op) for u, m in zip(frame.phi, lams)]
                for w, l in zip(frame.psi, lams)]
        assert np.max(np.abs(frame.gram() - quad)) < 1e-10
        frame = simple_case.frame
        W, lam, V, mu = _moved_pairing(frame, simple_case.rep)
        quad = [[bilinear_form_quadrature(w, l, u, m, frame.op) for u, m in zip(V[:8], mu[:8])]
                for w, l in zip(W, lam)]
        assert np.max(np.abs(pairing_matrix(W, lam, V[:8], mu[:8], frame.op) - quad)) < 1e-10

    def test_random_operators_bitwise(self, rng):
        for n in (1, 2, 5, 12, 24):
            lags = (0.0, 0.7, 2.5)
            op = DelayOperator(n=n, terms=tuple((r, random_complex(rng, n, n)) for r in lags))
            lam, mu = random_complex(rng, 3), random_complex(rng, 4)
            mu[1] = lam[0]                       # a coincident exponent: E = -r
            W, V = random_complex(rng, 3, n), random_complex(rng, 4, n)
            ref = [[_pairing_scalar(w, l, u, m, op) for u, m in zip(V, mu)]
                   for w, l in zip(W, lam)]
            assert same_bits(pairing_matrix(W, lam, V, mu, op), ref)

    def test_direction_length_checked(self):
        op = scalar_delay_op()
        with pytest.raises(EqunfoldError,
                           match="^direction length does not match operator dimension$"):
            pairing_matrix(np.ones((1, 2)), [1j], np.ones((1, 1)), [1j], op)
