import numpy as np
import pytest

from equnfold import d3
from equnfold.delays import DelayOperator, ExpVector, bilinear_form
from equnfold.errors import FrameError, RootFindingError
from equnfold.frames import _adjugate, eigenbasis, find_root, induce_representation
from equnfold.groups import close_generators

from conftest import random_complex

I3 = np.eye(3)


class TestFindRoot:
    def test_polynomial_case(self):
        op = DelayOperator(n=2, terms=((0.0, np.diag([2.0, 3.0])),))
        res = find_root(op, 2.1)
        assert abs(res.root - 2.0) < 1e-10
        assert res.residual < 1e-12

    def test_scalar_delay_imaginary_root(self):
        # z' = -z(t - pi/2): Delta(i) = i + exp(-i pi/2) = 0
        op = DelayOperator(n=1, terms=((np.pi / 2, [[-1.0]]),))
        res = find_root(op, 0.9j)
        assert abs(res.root - 1j) < 1e-10

    def test_hopf_curve_point_by_construction(self):
        beta, tau_n, omega = -0.5, 4.0, 1.3
        alpha, tau_s = d3.hopf_curve("delta1", omega, beta, tau_n, sign=1, branch=1)
        op = d3.d3_operator(d3.D3ModelParams(alpha=float(alpha), beta=beta,
                                             tau_s=float(tau_s), tau_n=tau_n))
        res = find_root(op, 1j * omega * 1.01)
        assert abs(res.root - 1j * omega) < 1e-8
        assert res.residual < 1e-12

    def test_nonconvergence_reports_last_iterate(self):
        op = DelayOperator(n=1, terms=((np.pi / 2, [[-1.0]]),))
        with pytest.raises(RootFindingError) as err:
            find_root(op, 50.0 + 40.0j, max_iter=2)
        assert err.value.last_iterate is not None

    def test_secant_fallback_at_critical_point(self):
        # det Delta = lam^2 + 1 has zero derivative at the real axis seed
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        op = DelayOperator(n=2, terms=((0.0, A),))
        res = find_root(op, 0.0)
        assert res.used_secant
        assert res.residual < 1e-12
        assert abs(abs(res.root) - 1.0) < 1e-8

    def test_large_ring_stops_on_the_newton_step(self):
        # |det Delta| grows roughly like 3^N on this one-way ring, so at
        # N = 24 it stays far above the absolute tolerance even at a root
        op = _ring(24)
        res = find_root(op, 2j)
        s = np.linalg.svd(op.char_matrix(res.root), compute_uv=False)
        assert s[-1] < 1e-12 * s[0]


def _adjugate_loop(A):
    """Reference: one cofactor determinant per entry, the minors built with
    ``np.ix_`` (the implementation before the stacked gather)."""
    n = A.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    adj = np.empty_like(A)
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = A[np.ix_(idx != j, idx != i)]
            adj[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


def _ring(n):
    shift = np.roll(np.eye(n), 1, axis=0)
    return DelayOperator(n=n, terms=((0.0, -np.eye(n)), (1.0, 2.0 * shift)))


class TestAdjugateOracle:
    """The stacked adjugate is bitwise equal to the per-minor loop, so Newton
    iterates, roots and artifacts do not move."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_random_complex(self, n, rng):
        A = random_complex(rng, n, n)
        assert np.array_equal(_adjugate(A), _adjugate_loop(A))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("deficiency", [1, 2])
    def test_rank_deficient(self, n, deficiency, rng):
        rank = max(n - deficiency, 0)
        A = random_complex(rng, n, rank) @ random_complex(rng, rank, n)
        assert np.array_equal(_adjugate(A), _adjugate_loop(A))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_exactly_singular(self, n, rng):
        A = random_complex(rng, n, n)
        A[:, -1] = A[:, 0]          # two equal columns
        B = np.zeros((n, n), dtype=complex)
        B[0, 0] = 1.0
        for M in (A, B, np.zeros((n, n), dtype=complex)):
            assert np.array_equal(_adjugate(M), _adjugate_loop(M))

    @pytest.mark.parametrize("n", [8, 24])
    def test_char_matrix_at_ring_roots(self, n):
        op = _ring(n)
        for seed in (2j, 1.5j, -2j):
            D = op.char_matrix(find_root(op, seed).root)
            assert np.array_equal(_adjugate(D), _adjugate_loop(D))


class TestEigenbasis:
    def test_pure_ode_frame(self):
        op = DelayOperator(n=2, terms=((0.0, np.diag([1.0, -1.0])),))
        frame = eigenbasis(op, [1.0])
        assert frame.c == 1
        assert np.allclose(frame.B, [[1.0]])
        assert np.allclose(np.abs(frame.phi[0].direction), [1.0, 0.0])
        assert abs(bilinear_form(frame.psi[0], frame.phi[0], op) - 1.0) < 1e-12

    def test_simple_case_structure(self, simple_case):
        frame = simple_case.frame
        assert frame.c == 4
        assert np.allclose(frame.B, np.diag(frame.lambdas))
        for v in frame.phi:
            assert np.allclose(v.direction, [1.0, 1.0, 1.0])
        # normalized dual rows are symmetric too
        for w in frame.psi:
            assert np.max(np.abs(w.direction - np.mean(w.direction))) < 1e-10
        assert np.max(np.abs(frame.gram() - np.eye(4))) < 1e-10

    def test_double_case_structure(self, double_case):
        frame = double_case.frame
        assert frame.c == 8
        om = d3.OMEGA
        v = d3.V_ROT
        # seeded ordering: (v, vbar) at +i w, conjugates (vbar, v) at -i w
        assert np.allclose(frame.phi[0].direction, v)
        assert np.allclose(frame.phi[1].direction, v.conj())
        assert np.allclose(frame.phi[2].direction, v.conj())
        assert np.allclose(frame.phi[3].direction, v)
        # dual rows carry the rotation characters: mu (1, wbar, w) ...
        r0 = frame.psi[0].direction
        assert np.max(np.abs(r0 / r0[0] - np.array([1.0, om.conjugate(), om]))) < 1e-9
        r1 = frame.psi[1].direction
        assert np.max(np.abs(r1 / r1[0] - np.array([1.0, om, om.conjugate()]))) < 1e-9
        assert abs(r1[0] - r0[0]) < 1e-9      # same scalar mu on both rows
        # conjugate-pair convention for the -i w rows
        assert np.max(np.abs(frame.psi[2].direction - frame.psi[0].direction.conj())) < 1e-9
        assert np.max(np.abs(frame.psi[3].direction - frame.psi[1].direction.conj())) < 1e-9
        assert np.max(np.abs(frame.gram() - np.eye(8))) < 1e-9

    def test_phi_satisfies_reduced_ode(self, simple_case):
        frame = simple_case.frame
        # Phi'(theta) = Phi(theta) B for diagonal B, via finite differences
        h = 1e-6
        th = -0.37
        dPhi = (frame.Phi_at(th + h) - frame.Phi_at(th - h)) / (2 * h)
        assert np.max(np.abs(dPhi - frame.Phi_at(th) @ frame.B)) < 1e-6

    def test_defective_spectrum_rejected(self):
        # nilpotent Jordan block: geometric < algebraic multiplicity
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        op = DelayOperator(n=2, terms=((0.0, A),))
        with pytest.raises(FrameError, match="defective"):
            eigenbasis(op, [0.0])

    def test_not_a_root_rejected(self):
        op = DelayOperator(n=1, terms=((0.0, [[1.0]]),))
        with pytest.raises(FrameError):
            eigenbasis(op, [0.5])

    def test_seed_count_mismatch(self, simple_case):
        # the first-factor point has one-dimensional null spaces
        op = simple_case.op
        lam = 1j * simple_case.point.omega1
        with pytest.raises(FrameError, match="multiplicit"):
            eigenbasis(op, [lam], seeds={0: [d3.U_SYM, d3.V_ROT]})

    def test_seed_outside_null_space(self, double_case):
        point = double_case.point
        op = double_case.op
        lam = 1j * point.omega1
        with pytest.raises(FrameError, match="null space"):
            eigenbasis(op, [lam], seeds={0: [d3.V_ROT, d3.U_SYM]})


class TestInduceRepresentation:
    def test_trivial_group(self, simple_case):
        frame = eigenbasis(simple_case.op,
                           [1j * simple_case.point.omega1, -1j * simple_case.point.omega1],
                           seeds={0: [d3.U_SYM], 1: [d3.U_SYM]})
        rep1 = close_generators([np.eye(3)])
        framed = induce_representation(frame, rep1)
        assert framed.G.group.order == 1
        assert np.allclose(framed.G.matrices[0], np.eye(frame.c))

    def test_simple_case_trivial_action(self, simple_case):
        G = simple_case.frame.G
        for g in G.group.elements():
            assert np.max(np.abs(G.matrices[g] - np.eye(4))) < 1e-8

    def test_double_case_induced_action(self, double_case):
        frame = double_case.frame
        rep = double_case.rep
        kap, gam = rep.group.generator_indices
        om = d3.OMEGA
        diag = np.array([om, om.conjugate(), om.conjugate(), om,
                         om, om.conjugate(), om.conjugate(), om])
        assert np.max(np.abs(frame.G.matrices[gam] - np.diag(diag))) < 1e-8
        swap = np.kron(np.eye(4), np.array([[0, 1], [1, 0]]))
        assert np.max(np.abs(frame.G.matrices[kap] - swap)) < 1e-8

    def test_pairing_identity_and_commutation(self, double_case):
        frame = double_case.frame
        rep = double_case.rep
        op = frame.op
        for g in rep.group.elements():
            R = rep.matrices[g]
            H = np.empty((frame.c, frame.c), dtype=complex)
            for i, ps in enumerate(frame.psi):
                moved = ExpVector(ps.direction @ R, ps.exponent, side="row")
                for j, ph in enumerate(frame.phi):
                    H[i, j] = bilinear_form(moved, ph, op)
            assert np.max(np.abs(H - frame.G.matrices[g])) < 1e-9
            assert np.max(np.abs(frame.B @ frame.G.matrices[g]
                                 - frame.G.matrices[g] @ frame.B)) < 1e-10

    def test_non_equivariant_operator_rejected(self):
        op = DelayOperator(n=3, terms=((0.0, np.diag([1.0, 2.0, 3.0])),))
        frame = eigenbasis(op, [1.0])
        with pytest.raises(FrameError, match="equivariant"):
            induce_representation(frame, d3.triangle_rep())
