import json
import os
import warnings

import numpy as np
import pytest

from equnfold import d3, frames, invariants, unfolding
from equnfold._linalg import EIG_MATCH_TOL, NULLSPACE_RCOND, null_basis
from equnfold.delays import DelayOperator, bilinear_form, pairing_matrix
from equnfold.errors import FrameError, RootFindingError
from equnfold.frames import _det_derivative, eigenbasis, find_root, induce_representation
from equnfold.groups import close_generators
from equnfold.unfolding import select_delays

from conftest import random_complex, same_bits
from oracles import hopf_curve

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
        alpha, tau_s = hopf_curve("delta1", omega, beta, tau_n, sign=1, branch=1)
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

    def test_stops_at_the_first_non_finite_iterate(self, simple_case):
        # from 1.1399 the first Newton step lands far in the left half-plane,
        # where exp(-lam r) overflows and det Delta is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RootFindingError, match="non-finite") as err:
                find_root(simple_case.op, 1.1399)
        assert "after 1 iterations" in str(err.value)
        assert err.value.last_iterate is not None

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


def _ring(n, gain=2.0):
    shift = np.roll(np.eye(n), 1, axis=0)
    return DelayOperator(n=n, terms=((0.0, -np.eye(n)), (1.0, gain * shift)))


def _reference_derivative(D, Dp):
    """Reference Jacobi derivative from the full per-minor adjugate."""
    return np.trace(_adjugate_loop(D) @ Dp)


def _root_outcome(op, seed):
    """find_root's result, or the message and last iterate it raised with."""
    try:
        res = find_root(op, seed)
    except RootFindingError as exc:
        return str(exc), exc.last_iterate
    return res.root, res.residual, res.iterations, res.used_secant


def _random_operator(rng, n):
    return DelayOperator(n=n, terms=((0.0, random_complex(rng, n, n)),
                                     (0.7, random_complex(rng, n, n)),
                                     (1.3, random_complex(rng, n, n))))


class TestRootOracle:
    """find_root with the cofactors restricted to Delta'^T's support returns
    the roots, residuals, iteration counts and secant flags of find_root
    with the full adjugate, on sparse (ring) and dense Delta'."""

    def _assert_same_as_reference(self, op, seeds, monkeypatch):
        got = [_root_outcome(op, s) for s in seeds]
        with monkeypatch.context() as m:
            m.setattr(frames, "_det_derivative", _reference_derivative)
            want = [_root_outcome(op, s) for s in seeds]
        assert got == want

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12, 16, 24])
    def test_ring_ladder(self, n, monkeypatch):
        self._assert_same_as_reference(_ring(n), (2j, -2j, 1.5j), monkeypatch)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_random_dense_operator(self, n, rng, monkeypatch):
        op = _random_operator(rng, n)
        seeds = [complex(z) for z in random_complex(rng, 4)]
        self._assert_same_as_reference(op, seeds, monkeypatch)

    def test_d3_operator(self, monkeypatch):
        beta, tau_n, omega = -0.5, 4.0, 1.3
        alpha, tau_s = hopf_curve("delta1", omega, beta, tau_n, sign=1, branch=1)
        op = d3.d3_operator(d3.D3ModelParams(alpha=float(alpha), beta=beta,
                                             tau_s=float(tau_s), tau_n=tau_n))
        seeds = (1j * omega * 1.01, -1j * omega * 0.99, 0.1 + 2.0j, 0.0)
        self._assert_same_as_reference(op, seeds, monkeypatch)

    def test_secant_fallback(self, monkeypatch):
        # det Delta = lam^2 + 1: the derivative vanishes at the seed 0
        op = DelayOperator(n=2, terms=((0.0, np.array([[0.0, 1.0], [-1.0, 0.0]])),))
        self._assert_same_as_reference(op, (0.0, 0.5j), monkeypatch)
        assert find_root(op, 0.0).used_secant


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _real_operator(rng, n, lags):
    """A model with exactly real coefficients: an instantaneous term and
    ``lags`` delayed ones."""
    delays = np.concatenate(([0.0], rng.uniform(0.2, 2.0, lags)))
    return DelayOperator(n=n, terms=tuple((r, rng.standard_normal((n, n))) for r in delays))


class TestConjugateSeed:
    """On a model with exactly real coefficients, Newton's method from the
    conjugate seed reaches the conjugate root bit for bit, in as many steps:
    the fact ``unfold --config`` rests on when it solves one seed of each
    conjugate pair."""

    def _assert_mirrored(self, op, seed):
        a = find_root(op, seed)
        b = find_root(op, seed.conjugate())
        assert not (a.used_secant or b.used_secant)
        assert _bits(b.root) == _bits(a.root.conjugate())
        assert (b.iterations, b.residual) == (a.iterations, a.residual)

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12, 16, 24])
    def test_ring_ladder(self, n):
        for seed in (2j, 1.5j, 0.1 + 2.5j):
            self._assert_mirrored(_ring(n), seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_real_operator(self, n, rng):
        mirrored = 0
        for lags in (1, 2, 3):
            op = _real_operator(rng, n, lags)
            for seed in rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(0.5, 3.0, 4):
                try:
                    self._assert_mirrored(op, complex(seed))
                except RootFindingError:
                    continue
                mirrored += 1
        assert mirrored >= 6


class TestAdjugateOracle:
    """The restricted Jacobi derivative equals the trace against the
    per-minor adjugate loop exactly, so Newton iterates, roots and artifacts
    do not move."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_random_complex(self, n, rng):
        A, Ap = random_complex(rng, n, n), random_complex(rng, n, n)
        assert _det_derivative(A, Ap) == _reference_derivative(A, Ap)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("deficiency", [1, 2])
    def test_rank_deficient(self, n, deficiency, rng):
        rank = max(n - deficiency, 0)
        A = random_complex(rng, n, rank) @ random_complex(rng, rank, n)
        Ap = random_complex(rng, n, n)
        assert _det_derivative(A, Ap) == _reference_derivative(A, Ap)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_exactly_singular(self, n, rng):
        A = random_complex(rng, n, n)
        A[:, -1] = A[:, 0]          # two equal columns
        B = np.zeros((n, n), dtype=complex)
        B[0, 0] = 1.0
        Ap = random_complex(rng, n, n)
        for M in (A, B, np.zeros((n, n), dtype=complex)):
            assert _det_derivative(M, Ap) == _reference_derivative(M, Ap)

    @pytest.mark.parametrize("n", [8, 24])
    def test_char_matrix_at_ring_roots(self, n):
        op = _ring(n)
        for seed in (2j, 1.5j, -2j):
            lam = find_root(op, seed).root
            D, Dp = op.char_matrix(lam), op.char_matrix_deriv(lam)
            assert np.count_nonzero(Dp) == 2 * n
            assert _det_derivative(D, Dp) == _reference_derivative(D, Dp)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9])
    def test_randomly_masked_derivative(self, n, density, rng):
        for A in (random_complex(rng, n, n), _singular(rng, n)):
            Ap = random_complex(rng, n, n) * (rng.random((n, n)) < density)
            assert _det_derivative(A, Ap) == _reference_derivative(A, Ap)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_zero_derivative_matrix(self, n, rng):
        Z = np.zeros((n, n), dtype=complex)
        for A in (random_complex(rng, n, n), _singular(rng, n), Z):
            assert _det_derivative(A, Z) == 0


def _singular(rng, n):
    """A random complex matrix of rank n - 1: two equal columns, or 0 at n = 1."""
    A = random_complex(rng, n, n)
    A[:, -1] = A[:, 0] if n > 1 else 0.0
    return A


class TestEigenbasis:
    def test_pure_ode_frame(self):
        op = DelayOperator(n=2, terms=((0.0, np.diag([1.0, -1.0])),))
        frame = eigenbasis(op, [1.0])
        assert frame.c == 1
        assert np.allclose(frame.B, [[1.0]])
        assert np.allclose(np.abs(frame.phi[0]), [1.0, 0.0])
        assert abs(bilinear_form(frame.psi[0], 1.0, frame.phi[0], 1.0, op) - 1.0) < 1e-12

    def test_simple_case_structure(self, simple_case):
        frame = simple_case.frame
        assert frame.c == 4
        assert np.allclose(frame.B, np.diag(frame.lambdas))
        for v in frame.phi:
            assert np.allclose(v, [1.0, 1.0, 1.0])
        # normalized dual rows are symmetric too
        for w in frame.psi:
            assert np.max(np.abs(w - np.mean(w))) < 1e-10
        assert np.max(np.abs(frame.gram() - np.eye(4))) < 1e-10

    def test_double_case_structure(self, double_case):
        frame = double_case.frame
        assert frame.c == 8
        om = d3.OMEGA
        v = d3.V_ROT
        # seeded ordering: (v, vbar) at +i w, conjugates (vbar, v) at -i w
        assert np.allclose(frame.phi[0], v)
        assert np.allclose(frame.phi[1], v.conj())
        assert np.allclose(frame.phi[2], v.conj())
        assert np.allclose(frame.phi[3], v)
        # dual rows carry the rotation characters: mu (1, wbar, w) ...
        r0 = frame.psi[0]
        assert np.max(np.abs(r0 / r0[0] - np.array([1.0, om.conjugate(), om]))) < 1e-9
        r1 = frame.psi[1]
        assert np.max(np.abs(r1 / r1[0] - np.array([1.0, om, om.conjugate()]))) < 1e-9
        assert abs(r1[0] - r0[0]) < 1e-9      # same scalar mu on both rows
        # conjugate-pair convention for the -i w rows
        assert np.max(np.abs(frame.psi[2] - frame.psi[0].conj())) < 1e-9
        assert np.max(np.abs(frame.psi[3] - frame.psi[1].conj())) < 1e-9
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

    def test_bogdanov_takens_root_rejected(self):
        # Delta1(0) = Delta1'(0) = 0: a double root with a one-dimensional null
        # space, whose 1 x 1 Gram block (~1e-16) is singular against the size
        # of Delta' although it is its own largest singular value
        op = d3.d3_operator(d3.D3ModelParams(alpha=2.0, beta=-0.5, tau_s=1.0, tau_n=3.0))
        with pytest.raises(FrameError, match="defective .* Jordan chain"):
            eigenbasis(op, [0.0])

    def test_not_a_root_rejected(self):
        op = DelayOperator(n=1, terms=((0.0, [[1.0]]),))
        with pytest.raises(FrameError):
            eigenbasis(op, [0.5])

    def test_seed_count_mismatch(self, simple_case, simple_point):
        # the first-factor point has one-dimensional null spaces
        op = simple_case.op
        lam = 1j * simple_point.omega1
        with pytest.raises(FrameError, match="multiplicit"):
            eigenbasis(op, [lam], seeds={0: [d3.U_SYM, d3.V_ROT]})

    def test_seed_outside_null_space(self, double_case, double_point):
        point = double_point
        op = double_case.op
        lam = 1j * point.omega1
        with pytest.raises(FrameError, match="null space"):
            eigenbasis(op, [lam], seeds={0: [d3.V_ROT, d3.U_SYM]})

    def test_dependent_seeds_rejected(self, double_case, double_point):
        op = double_case.op
        lam = 1j * double_point.omega1
        with pytest.raises(FrameError, match="linearly dependent"):
            eigenbasis(op, [lam], seeds={0: [d3.V_ROT, 2 * d3.V_ROT]})


def _full_gram_eigenbasis(op, lambdas, seeds=None):
    """``(phi, psi, lambdas)`` of a frame normalized through the full c x c
    Gram matrix of every root's raw rows against every root's directions,
    of which the diagonal blocks are inverted: how eigenbasis once worked."""
    lambdas = [complex(l) for l in lambdas]
    seeds = dict(seeds or {})
    norm_sum = sum(float(np.linalg.norm(A, 2)) for _, A in op.terms)
    partner = [None] * len(lambdas)
    # the eigenvalue match of _linalg.eigen_groups, pair by pair
    match = EIG_MATCH_TOL * (norm_sum + max(map(abs, lambdas)))
    if op.is_real:
        for i, lam in enumerate(lambdas):
            for j in range(i):
                if abs(lambdas[j].conjugate() - lam) <= match:
                    partner[i] = j
                    break
    right, left_raw = {}, {}
    for i, lam in enumerate(lambdas):
        if partner[i] is not None and i not in seeds:
            right[i] = [u.conj() for u in right[partner[i]]]
            left_raw[i] = [w.conj() for w in left_raw[partner[i]]]
            continue
        D = op.char_matrix(lam)
        scale = invariants.char_scale(norm_sum, lam)
        if i in seeds:
            right[i] = [np.asarray(s, dtype=complex).reshape(-1) for s in seeds[i]]
        else:
            N = null_basis(D, scale, NULLSPACE_RCOND)
            right[i] = sorted((frames._phase_fix(u) for u in N.T), key=lambda u: (
                -abs(u[frames._first_significant(u)]), frames._first_significant(u)))
        L = null_basis(D.T, scale, NULLSPACE_RCOND)
        left_raw[i] = [frames._phase_fix(w) for w in L.T]
    phi, psi_raw, lams, block_slices = [], [], [], []
    for i, lam in enumerate(lambdas):
        m = len(right[i])
        block_slices.append(range(len(phi), len(phi) + m))
        phi.extend(right[i])
        psi_raw.extend(left_raw[i])
        lams.extend([lam] * m)
    phi = np.array(phi)
    K = pairing_matrix(np.array(psi_raw), lams, phi, lams, op)
    psi = [None] * len(lams)
    for blk in block_slices:
        idx = list(blk)
        Kbi = np.linalg.inv(K[np.ix_(idx, idx)])
        for r, i in enumerate(idx):
            psi[i] = sum(Kbi[r, s] * psi_raw[j] for s, j in enumerate(idx))
    return phi, np.array(psi), lams


class _Recorded(Exception):
    """Raised by the stand-in eigenbasis once it has its arguments."""


with open(os.path.join(os.path.dirname(__file__), "fixtures", "double_hopf_points.json")) as _fh:
    FIXTURE_POINTS = json.load(_fh)


class TestFullGramOracle:
    """A frame built one root at a time, each root's rows normalized by its
    own Gram block, has the bits of the full Gram matrix's diagonal blocks:
    the pairing of two roots' eigenspaces is never read."""

    def _assert_same_frame(self, op, lambdas, seeds=None):
        frame = eigenbasis(op, lambdas, seeds)
        phi, psi, lams = _full_gram_eigenbasis(op, lambdas, seeds)
        assert same_bits(frame.phi, phi) and same_bits(frame.psi, psi)
        assert list(map(_bits, frame.lambdas)) == list(map(_bits, lams))

    @pytest.mark.parametrize("case, index", [
        *((case, None) for case in ("simple", "double")),
        *((case, k) for case in ("simple", "double")
          for k in range(len(FIXTURE_POINTS[case]["points"])))])
    def test_d3_points(self, case, index, monkeypatch):
        """The presets (index None) and every fixture point, with run_case's
        roots and seeds."""
        calls = []

        def recording(op, lambdas, seeds):
            calls.append((op, lambdas, seeds))
            raise _Recorded

        monkeypatch.setattr(unfolding, "eigenbasis", recording)
        entry = FIXTURE_POINTS[case]
        point = None if index is None else d3.DoubleHopfPoint(
            factor=entry["factor"], beta=entry["beta"], tau_n=entry["tau_n"],
            **entry["points"][index])
        with pytest.raises(_Recorded):
            d3.run_case(case, point)
        self._assert_same_frame(*calls[0])

    @pytest.mark.parametrize("n", [3, 12, 24])
    @pytest.mark.parametrize("gain", [2.0, 2.0 + 1e-13j, 2.0 * np.exp(0.1j)],
                             ids=["real", "nearly-real", "complex"])
    def test_rings(self, n, gain):
        op = _ring(n, gain)
        self._assert_same_frame(op, [find_root(op, seed).root for seed in (2j, -2j)])


class TestFrameEvaluation:
    """Phi(theta) = Phi(0) exp(Lambda theta) and Psi(s) = exp(-Lambda s) Psi(0)
    take the bits of one exponential vector per column or row,
    ``u * np.exp(lam * t)``, the arithmetic every pinned artifact was made with."""

    @pytest.fixture(scope="class", params=["simple", "double", "ring3", "ring24"])
    def case(self, request):
        """A frame and its stored lags."""
        if request.param.startswith("ring"):
            op = _ring(int(request.param[4:]))
            frame = eigenbasis(op, [find_root(op, seed).root for seed in (2j, -2j)])
            return frame, select_delays(frame)
        r = request.getfixturevalue(f"{request.param}_case")
        return r.frame, r.assembly.family.delays

    def test_phi_matches_the_per_vector_exponentials(self, case):
        frame, lags = case
        lams = [complex(lam) for lam in frame.lambdas]
        samples = [*(-r for r in lags), *np.linspace(-frame.op.tau, 0.0, 9)]
        for t in samples:
            Phi = np.column_stack([u * np.exp(lam * t) for u, lam in zip(frame.phi, lams)])
            assert same_bits(frame.Phi_at(t), Phi) and frame.Phi_at(t).flags.c_contiguous, t


class TestInduceRepresentation:
    def test_trivial_group(self, simple_case, simple_point):
        frame = eigenbasis(simple_case.op,
                           [1j * simple_point.omega1, -1j * simple_point.omega1],
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
            for i, (w, lam) in enumerate(zip(frame.psi, frame.lambdas)):
                for j, (u, mu) in enumerate(zip(frame.phi, frame.lambdas)):
                    H[i, j] = bilinear_form(w @ R, lam, u, mu, op)
            assert np.max(np.abs(H - frame.G.matrices[g])) < 1e-9
            assert np.max(np.abs(frame.B @ frame.G.matrices[g]
                                 - frame.G.matrices[g] @ frame.B)) < 1e-10

    def test_non_equivariant_operator_rejected(self):
        op = DelayOperator(n=3, terms=((0.0, np.diag([1.0, 2.0, 3.0])),))
        frame = eigenbasis(op, [1.0])
        with pytest.raises(FrameError, match="^model.equivariance: residual"):
            induce_representation(frame, d3.triangle_rep())
