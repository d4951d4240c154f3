import json
import os

import numpy as np
import pytest

from equnfold import d3
from equnfold.errors import EqunfoldError
from equnfold.groups import equivariant_average

I3 = np.eye(3)
J3 = np.ones((3, 3))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestModel:
    def test_operator_terms(self):
        p = d3.D3ModelParams(alpha=1.5, beta=-0.25, tau_s=1.0, tau_n=2.0)
        op = d3.d3_operator(p)
        lags = sorted(r for r, _ in op.terms)
        assert lags == [0.0, 1.0, 2.0]
        assert d3.check_equivariance(op, d3.triangle_rep()) == 0.0

    def test_uncoupled_limit(self):
        p = d3.D3ModelParams(alpha=0.0, beta=0.0, tau_s=1.0, tau_n=2.0)
        op = d3.d3_operator(p)
        lam = 0.3 + 0.7j
        assert np.allclose(op.char_matrix(lam), (lam + 1.0) * I3)

    def test_eta_functionals(self):
        e1, e2 = d3.eta_pair(d3.V_ROT)
        assert abs(e1 - 3.0) < 1e-14 and abs(e2) < 1e-14
        e1, e2 = d3.eta_pair(d3.V_ROT.conj())
        assert abs(e1) < 1e-14 and abs(e2 - 3.0) < 1e-14
        assert np.allclose(d3.eta_pair(d3.U_SYM), (0.0, 0.0), atol=1e-14)


class TestHopfCurves:
    @pytest.mark.parametrize("factor", ["delta1", "delta2"])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("branch", [0, 1, 3])
    def test_curve_points_satisfy_factor(self, factor, sign, branch, rng):
        beta, tau_n = (-0.5, 4.0) if factor == "delta1" else (0.5, 3.0)
        for omega in rng.uniform(0.1, 5.0, 10):
            alpha, tau_s = d3.hopf_curve(factor, omega, beta, tau_n,
                                         sign=sign, branch=branch)
            val = d3.factor_value(factor, 1j * omega, float(alpha), beta,
                                  float(tau_s), tau_n)
            assert abs(val) < 1e-10

    def test_decoupled_limit(self, rng):
        for omega in rng.uniform(0.1, 4.0, 5):
            alpha, _ = d3.hopf_curve("delta1", omega, beta=0.0, tau_n=1.0, sign=1)
            assert abs(alpha - np.sqrt(1.0 + omega ** 2)) < 1e-12

    def test_sweep_shape(self):
        omegas = np.arange(0.5, 1.0, 0.1)
        curves = d3.sweep_curves("delta1", -0.5, 4.0, omegas, branches=(0, 1))
        assert set(curves) == {(1, 0), (1, 1), (-1, 0), (-1, 1)}
        assert curves[(1, 0)].shape == (len(omegas), 3)


class TestDoubleHopfLocation:
    def test_resonant_seed_rejected(self):
        with pytest.raises(EqunfoldError, match="coincide"):
            d3.find_double_hopf("delta1", -0.5, 4.0, (1.0, 1.0, 2.0, 2.0))

    @pytest.mark.parametrize("case", ["simple", "double"])
    def test_points_match_frozen_baseline(self, case):
        cfg = d3._CASE_DEFAULTS[case]
        points = d3.locate_double_hopf(cfg["factor"], cfg["beta"], cfg["tau_n"])
        assert points, "window should contain at least one crossing"
        for p in points:
            assert p.residual < 1e-10
            assert abs(p.omega1 - p.omega2) > 1e-6
        with open(os.path.join(FIXTURES, "double_hopf_points.json")) as fh:
            frozen = json.load(fh)[case]
        assert len(points) == len(frozen["points"])
        for p, q in zip(points, frozen["points"]):
            assert abs(p.alpha - q["alpha"]) < 1e-6
            assert abs(p.tau_s - q["tau_s"]) < 1e-6
            assert abs(p.omega1 - q["omega1"]) < 1e-6
            assert abs(p.omega2 - q["omega2"]) < 1e-6

    def test_one_sample_grid_rejected(self):
        with pytest.raises(EqunfoldError, match="two samples"):
            d3.locate_double_hopf("delta2", 0.5, 3.0, omegas=np.array([0.05]))

    def test_default_delays_are_generic(self, simple_case):
        point = simple_case.point
        delays = d3.default_delays(point)
        assert delays[:3] == [0.0, point.tau_s, point.tau_n]
        assert len(set(np.round(delays, 12))) == 4
        M = d3.exponential_delay_matrix(
            [1j * point.omega1, -1j * point.omega1,
             1j * point.omega2, -1j * point.omega2], delays)
        assert d3.scaled_det(M) > 1e-6


def _loop_intersections(P, Q):
    """Reference: the segment-by-segment loop the sorted sweep replaced."""
    A, Bp = P[:-1], P[1:]
    C, D = Q[:-1], Q[1:]
    r = Bp - A
    s = D - C
    hits = []
    for i in range(len(A)):
        denom = r[i, 0] * s[:, 1] - r[i, 1] * s[:, 0]
        dx = C[:, 0] - A[i, 0]
        dy = C[:, 1] - A[i, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (dx * s[:, 1] - dy * s[:, 0]) / denom
            u = (dx * r[i, 1] - dy * r[i, 0]) / denom
        ok = np.isfinite(t) & np.isfinite(u) & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
        for j in np.nonzero(ok)[0]:
            hits.append((i, int(j), float(t[j]), float(u[j]), A[i] + t[j] * r[i]))
    return hits


def _assert_same_hits(P, Q):
    """The sweep's hits equal the loop's exactly, in the same order; returns
    their number."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    ref = _loop_intersections(P, Q)
    i, j, t, u, pt = d3._segment_intersections(P, Q)
    assert list(zip(i.tolist(), j.tolist(), t.tolist(), u.tolist())) == \
        [(a, b, c, e) for a, b, c, e, _ in ref]
    assert np.array_equal(pt, np.array([p for *_, p in ref]).reshape(-1, 2))
    return len(ref)


class TestCrossingOracle:
    """The vectorized crossing detection returns exactly the loop's hits."""

    def test_random_polylines(self, rng):
        n = 0
        for _ in range(20):
            P = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 40)), 2))
            Q = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 40)), 2))
            n += _assert_same_hits(P, Q) + _assert_same_hits(P, P)
            walk = np.cumsum(rng.standard_normal((60, 2)) * [1.0, 30.0], axis=0)
            n += _assert_same_hits(walk, walk[::-1] + 0.5)
        assert n > 1000

    @pytest.mark.parametrize("unit", [1.0, 0.1, 1e6])
    def test_lattice_polylines(self, rng, unit):
        # vertices on a small lattice: shared endpoints, T-junctions,
        # collinear overlaps, parallel and axis-parallel segments abound
        n = 0
        for _ in range(40):
            P = rng.integers(-3, 4, (int(rng.integers(2, 12)), 2)) * unit
            Q = rng.integers(-3, 4, (int(rng.integers(2, 12)), 2)) * unit
            n += _assert_same_hits(P, Q) + _assert_same_hits(P, P)
        assert n > 100

    def test_adversarial_cases(self):
        cases = [
            # shared endpoints, and a polyline against itself
            ([(0, 0), (1, 1), (2, 0)], [(1, 1), (3, 3)]),
            ([(0, 0), (1, 1), (2, 0), (3, 1)], [(0, 0), (1, 1), (2, 0), (3, 1)]),
            # collinear segments, overlapping and disjoint, exact and rounded
            ([(0, 0), (2, 2), (4, 4)], [(1, 1), (3, 3)]),
            ([(0, 0), (1, 1)], [(2, 2), (3, 3)]),
            ([(0.1, 0.3), (0.4, 1.2)], [(0.2, 0.6), (0.7, 2.1)]),
            # parallel segments
            ([(0, 0), (4, 0)], [(0, 1), (4, 1)]),
            ([(0, 0), (1, 2)], [(1, 0), (2, 2)]),
            # axis-parallel: zero extent in one coordinate, T-junctions
            ([(0, -2), (0, 2)], [(-1, 0), (1, 0)]),
            ([(0, -2), (0, 2)], [(0, 0), (1, 0)]),
            ([(-1, 1), (1, 1)], [(0, 1), (0, 5), (3, 5)]),
            # zero-length segments
            ([(0, 0), (0, 0), (1, 1)], [(0, 1), (1, 0), (1, 0)]),
            # a tau_s-like wrap jump: long in the second coordinate only
            ([(1.0, 0.1), (1.001, 125.0), (1.002, 0.2), (1.003, 124.0)],
             [(0.9, 60.0), (1.1, 60.0), (0.9, 61.0), (1.1, 61.0)]),
            # a long segment in the sweep coordinate among short ones
            ([(-50.0, 0.0), (50.0, 1.0)],
             [(x, 0.5 + (-1) ** k) for k, x in enumerate(np.linspace(-40, 40, 30))]),
        ]
        n = sum(_assert_same_hits(P, Q) + _assert_same_hits(Q, P) for P, Q in cases)
        assert n > 40

    def test_rounding_hit_of_disjoint_parallel_segments_is_dropped(self):
        # P's first segment and Q's first segment lie on one line but do not
        # meet; the loop's near-zero denominator still put t = u = 1 in range
        P = np.array([[0, -3], [-1, -1], [1, 1]]) * 0.1
        Q = np.array([[-3, 3], [-2, 1], [2, -2], [-1, -2]]) * 0.1
        ref = _loop_intersections(P, Q)
        assert [(a, b) for a, b, *_ in ref] == [(0, 0), (0, 2), (1, 1)]
        assert np.max(np.abs(ref[0][4] - Q[1])) > 0.1       # not on Q's segment
        i, j, t, u, pt = d3._segment_intersections(P, Q)
        assert list(zip(i.tolist(), j.tolist(), t.tolist(), u.tolist())) == \
            [(a, b, c, e) for a, b, c, e, _ in ref[1:]]
        assert np.array_equal(pt, np.array([p for *_, p in ref[1:]]))

    @pytest.mark.parametrize("factor, beta, tau_n, step", [
        ("delta1", -0.5, 4.0, 0.005),
        ("delta2", 0.5, 3.0, 0.005),
        ("delta1", 0.61, 4.23, 0.0025),
        ("delta2", -0.18, 1.18, 0.0025),
    ])
    def test_hopf_curve_pairs(self, factor, beta, tau_n, step):
        curves = d3.sweep_curves(factor, beta, tau_n, np.arange(0.05, 5.0, step))
        keys = sorted(curves)
        n = sum(_assert_same_hits(curves[a][:, 1:3], curves[b][:, 1:3])
                for k, a in enumerate(keys) for b in keys[k:])
        assert n > 1000


class TestSimpleCase:
    def test_structure(self, simple_case):
        r = simple_case
        assert r.frame.c == 4
        for g in r.frame.G.group.elements():
            assert np.max(np.abs(r.frame.G.matrices[g] - np.eye(4))) < 1e-8
        th = r.assembly.theta
        assert th.selected_rows == (0, 1, 2, 3)
        off = th.theta - np.diag(np.diag(th.theta))
        assert np.max(np.abs(off)) < 1e-10
        assert np.min(np.abs(np.diag(th.theta))) > 1e-8

    def test_coefficient_patterns(self, simple_case):
        fam = simple_case.assembly.family
        patterns = [I3, I3, J3 - I3, J3 - I3]
        for row in fam.directions:
            for A, pat in zip(row, patterns):
                coef = np.vdot(pat, A) / np.vdot(pat, pat)
                assert np.max(np.abs(A - coef * pat)) < 1e-10

    def test_conjugate_pairs_and_real_family(self, simple_case):
        fam = simple_case.assembly.family
        for a, b in ((0, 1), (2, 3)):
            for j in range(4):
                assert np.max(np.abs(fam.directions[b][j]
                                     - fam.directions[a][j].conj())) < 1e-10
        s = np.linalg.svd(simple_case.complex_reparam, compute_uv=False)
        assert s[-1] > 1e-8 * s[0]
        s = np.linalg.svd(simple_case.real_reparam, compute_uv=False)
        assert s[-1] > 1e-8 * s[0]

    def test_versality_dimensions(self, simple_case):
        ver = simple_case.assembly.versality
        assert ver.mini_versal
        assert (ver.tangent_dim, ver.n_directions, ver.commutant_dim) == (12, 4, 16)


class TestDoubleCase:
    def test_structure(self, double_case):
        r = double_case
        assert r.frame.c == 8
        th = r.assembly.theta
        assert np.max(np.abs(th.theta[4:12])) < 1e-10
        assert np.max(np.abs(th.theta[12:16] - th.theta[0:4])) < 1e-10
        assert th.rank == 4 and th.selected_rows == (0, 1, 2, 3)
        for m in range(4, 12):
            assert np.max(np.abs(r.assembly.directions[m])) < 1e-10

    def test_projected_slots_match_table_pattern(self, double_case):
        # which of the two rotation functionals vanish on each solved vector
        expected_eta1 = [True, False, True, False,
                         False, True, False, True,
                         True, False, True, False,
                         False, True, False, True]
        for m, R in enumerate(double_case.assembly.r_matrices):
            col = np.argmax(np.abs(R).sum(axis=0))
            e1, e2 = d3.eta_pair(R[:, col])
            assert (abs(e1) > 1e-9) == expected_eta1[m]
            assert (abs(e2) > 1e-9) == (not expected_eta1[m])

    def test_single_column_projection_support(self, double_case, rng):
        # one nonzero column spreads exactly over its eigen-block pair,
        # each projected column parallel to the basis direction there
        rep = double_case.rep
        frame = double_case.frame
        G = frame.G
        for p in range(8):
            nu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            N = np.zeros((3, 8), dtype=complex)
            N[:, p] = nu
            Nbar = equivariant_average(rep, G, N)
            block = (p // 2 * 2, p // 2 * 2 + 1)
            for k in range(8):
                colnorm = np.linalg.norm(Nbar[:, k])
                if k in block:
                    direction = frame.phi[k].direction
                    cross = np.linalg.norm(
                        Nbar[:, k] - (direction.conj() @ Nbar[:, k])
                        / (direction.conj() @ direction) * direction)
                    assert cross < 1e-10
                else:
                    assert colnorm < 1e-12

    def test_coefficient_patterns(self, double_case):
        fam = double_case.assembly.family
        patterns = [I3, I3, J3 - I3, J3 - I3]
        for row in fam.directions:
            for A, pat in zip(row, patterns):
                coef = np.vdot(pat, A) / np.vdot(pat, pat)
                assert np.max(np.abs(A - coef * pat)) < 1e-10

    def test_versality_and_reparametrization(self, double_case):
        ver = double_case.assembly.versality
        assert ver.mini_versal
        assert (ver.tangent_dim, ver.n_directions, ver.commutant_dim) == (12, 4, 16)
        s = np.linalg.svd(double_case.real_reparam, compute_uv=False)
        assert s[-1] > 1e-8 * s[0]


class TestRunCaseGuards:
    def test_unknown_case(self):
        with pytest.raises(EqunfoldError):
            d3.run_case("triple")

    def test_factor_mismatch(self, simple_case, double_case):
        with pytest.raises(EqunfoldError, match="needs"):
            d3.run_case("simple", point=double_case.point)
        with pytest.raises(EqunfoldError, match="needs"):
            d3.run_case("double", point=simple_case.point)
