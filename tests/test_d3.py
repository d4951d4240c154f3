import json
import os

import numpy as np
import pytest

from equnfold import cli, d3
from equnfold._linalg import rank
from equnfold.delays import check_equivariance
from equnfold.errors import EqunfoldError
from equnfold.frames import ROOT_TOL
from equnfold.groups import equivariant_average
from equnfold.jsonio import build_artifact, canonical_json, encode_complex, model_to_doc, rep_to_doc
from equnfold.unfolding import lag_basis, realify, slot_reparametrization, slot_stacks
from equnfold.verify import verify_artifact

from oracles import exponential_delay_matrix, hopf_curve, scaled_det

I3 = np.eye(3)
J3 = np.ones((3, 3))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
EVERYWHERE = ((-np.inf, np.inf),) * 2    # a crossing window that keeps every segment
with open(os.path.join(FIXTURES, "double_hopf_points.json")) as _fh:
    FIXTURE_POINTS = json.load(_fh)


def eta_pair(v):
    """The two rotation-character functionals of a 3-vector: how a direction
    splits over the rotation eigenvectors (both vanish on the symmetric mode)."""
    v = np.asarray(v, dtype=complex).reshape(3)
    w = d3.OMEGA
    return (v[0] + w.conjugate() * v[1] + w * v[2],
            v[0] + w * v[1] + w.conjugate() * v[2])


class TestModel:
    def test_operator_terms(self):
        op = d3.d3_operator(alpha=1.5, beta=-0.25, tau_s=1.0, tau_n=2.0)
        lags = sorted(r for r, _ in op.terms)
        assert lags == [0.0, 1.0, 2.0]
        assert check_equivariance(op, d3.triangle_rep()) == 0.0

    def test_uncoupled_limit(self):
        op = d3.d3_operator(alpha=0.0, beta=0.0, tau_s=1.0, tau_n=2.0)
        lam = 0.3 + 0.7j
        assert np.allclose(op.char_matrix(lam), (lam + 1.0) * I3)

    def test_eta_functionals(self):
        e1, e2 = eta_pair(d3.V_ROT)
        assert abs(e1 - 3.0) < 1e-14 and abs(e2) < 1e-14
        e1, e2 = eta_pair(d3.V_ROT.conj())
        assert abs(e1) < 1e-14 and abs(e2 - 3.0) < 1e-14
        assert np.allclose(eta_pair(d3.U_SYM), (0.0, 0.0), atol=1e-14)


class TestHopfCurves:
    @pytest.mark.parametrize("factor", ["delta1", "delta2"])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("branch", [0, 1, 3])
    def test_curve_points_satisfy_factor(self, factor, sign, branch, rng):
        beta, tau_n = (-0.5, 4.0) if factor == "delta1" else (0.5, 3.0)
        for omega in rng.uniform(0.1, 5.0, 10):
            alpha, tau_s = hopf_curve(factor, omega, beta, tau_n, sign=sign, branch=branch)
            val = d3.factor_value(factor, 1j * omega, float(alpha), beta,
                                  float(tau_s), tau_n)
            assert abs(val) < 1e-10

    def test_decoupled_limit(self, rng):
        for omega in rng.uniform(0.1, 4.0, 5):
            alpha, _ = hopf_curve("delta1", omega, beta=0.0, tau_n=1.0, sign=1)
            assert abs(alpha - np.sqrt(1.0 + omega ** 2)) < 1e-12

    @pytest.mark.parametrize("branches", [(0,), (3,), (0, 1, 2, 3), tuple(range(-2, 6))])
    def test_sweep_equals_hopf_curve(self, rng, branches):
        # the sweep takes each sign's angle once; every branch is still
        # hopf_curve's, bit for bit
        for k in range(8):
            factor = ("delta1", "delta2")[k % 2]
            beta, tau_n = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 5.0)
            omegas = np.arange(0.05, 5.0, (0.02, 0.01, 0.005, 0.0025)[k % 4])
            curves = d3.sweep_curves(factor, beta, tau_n, omegas, branches=branches)
            assert list(curves) == [(sg, br) for sg in (1, -1) for br in branches]
            for (sg, br), rows in curves.items():
                alpha, tau_s = hopf_curve(factor, omegas, beta, tau_n, sign=sg, branch=br)
                assert rows.tobytes() == np.column_stack([omegas, alpha, tau_s]).tobytes()

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

    @pytest.mark.parametrize("tau_n, tau_s_window", [(-2.0, (0.0, 10.0)), (3.0, (-5.0, 10.0))],
                             ids=["tau-n", "tau-s-window"])
    def test_negative_lag_rejected(self, tau_n, tau_s_window):
        # once a point at tau_s = -0.4577, which no DelayOperator can hold
        with pytest.raises(EqunfoldError, match="a lag is never negative"):
            d3.locate_double_hopf("delta2", 0.5, tau_n, tau_s_window=tau_s_window)

    def test_unknown_factor_rejected_naming_both(self):
        with pytest.raises(EqunfoldError, match="unknown factor 'delta3'; use 'delta1' or 'delta2'"):
            d3.locate_double_hopf("delta3", 0.5, 3.0)

    def test_one_sample_grid_rejected(self):
        with pytest.raises(EqunfoldError, match="two samples"):
            d3.locate_double_hopf("delta2", 0.5, 3.0, omegas=np.array([0.05]))

    @pytest.mark.parametrize("omegas, message", [
        (np.geomspace(0.05, 5.0, 990), "equal steps"),
        (np.arange(0.05, 5.0, 0.005)[::-1], "equal steps"),
        (np.array([0.05, 0.1, 0.1, 0.15]), "equal steps"),
        (np.append(np.arange(0.05, 1.0, 0.01), 1.5), "equal steps"),
        (np.arange(0.0, 5.0, 0.005), "finite and positive"),
        (np.array([0.05, np.nan, 0.15]), "finite and positive"),
        (np.array([0.05, 0.1, np.inf]), "finite and positive"),
    ])
    def test_unusable_grid_rejected(self, omegas, message):
        # every seed frequency is interpolated with the first step
        with pytest.raises(EqunfoldError, match=message):
            d3.locate_double_hopf("delta2", 0.5, 3.0, omegas=omegas)

    def test_grid_coarser_than_the_coupling_phase_rejected(self):
        # at step * tau_n = 1.5 (the default grid at tau_n = 300) the sweep
        # ran for minutes over a cloud of spurious crossings
        with pytest.raises(EqunfoldError, match=r"undersamples exp\(-i omega tau_n\): step "
                           r"0\.01 x tau_n 150 exceeds 1\.0 rad per sample; use a step of "
                           r"at most 0\.00666667$"):
            d3.locate_double_hopf("delta1", 0.5, 150.0, omegas=np.arange(0.05, 5.0, 0.01))
        # the step it names passes, as does the bound itself in arange's steps
        for step, tau_n in ((0.00666667, 150.0), (0.01, 100.0)):
            d3.locate_double_hopf("delta1", 0.5, tau_n, omegas=np.arange(0.05, 5.0, step),
                                  branches=(0,), alpha_window=(0.0, 0.0))

    def test_fine_arange_grids_accepted(self):
        for step in (0.02, 0.005, 1e-4):
            d3.locate_double_hopf("delta1", -0.5, 4.0, omegas=np.arange(0.05, 5.0, step),
                                  branches=(0,), alpha_window=(0.0, 0.0))

    @pytest.mark.parametrize("factor, beta, tau_n, step", [
        ("delta1", 0.6799355610250828, 4.77872438043175, 0.0025),     # omega1 ~ 4.5e-23
        ("delta1", -0.9758738803124023, 4.324374246273145, 0.01),     # omega1 = omega2
    ])
    def test_zero_and_collided_frequencies_dropped(self, factor, beta, tau_n, step):
        points = d3.locate_double_hopf(factor, beta, tau_n,
                                       omegas=np.arange(0.05, 5.0, step))
        assert len(points) > 10
        for p in points:
            assert p.omega1 > 1e-6 and p.omega2 - p.omega1 > 1e-6

    def test_refinement_to_opposite_frequencies_rejected(self):
        # +omega and -omega are one pair of roots, not two frequencies
        p = d3.locate_double_hopf("delta2", 0.5, 3.0)[0]
        with pytest.raises(EqunfoldError, match="collide"):
            d3.find_double_hopf("delta2", 0.5, 3.0, (p.alpha, p.tau_s, p.omega1, -p.omega1))

    def test_default_delays_are_generic(self, simple_case, simple_point, double_case,
                                        double_point):
        for case, point in ((simple_case, simple_point), (double_case, double_point)):
            delays = d3.default_delays(case.op)
            assert delays[:3] == [0.0, point.tau_s, point.tau_n]
            assert delays[3] == 6 * case.op.tau / 7.0
            assert list(case.assembly.family.delays) == delays
            assert lag_basis(case.frame, delays)[1] == case.frame.c
            M = exponential_delay_matrix(
                [1j * point.omega1, -1j * point.omega1,
                 1j * point.omega2, -1j * point.omega2], delays)
            assert scaled_det(M) > 1e-6

    def test_default_delays_short_of_a_spectrum_end_in_the_rank_error(self, tmp_path, capsys):
        # three pairs of symmetric roots of the model with alpha = 0 (Delta1's
        # roots W_k(-2 e^2) / 2 - 1, k = 0, 1, 2): every direction is the
        # symmetric one, so four lags give the stacked basis rank 4 at most,
        # and the pipeline names the rank it reached
        op = d3.d3_operator(alpha=0.0, beta=-0.5, tau_s=1.0, tau_n=2.0)
        roots = [[-0.164, 1.108], [-0.690, 3.966], [-0.978, 7.070]]
        cfg = {"model": model_to_doc(op), "group": rep_to_doc(d3.triangle_rep()),
               "lambda_seeds": [[re, s * im] for re, im in roots for s in (1, -1)],
               "vector_seeds": [[encode_complex(d3.U_SYM)]] * 6,
               "delays": d3.default_delays(op)}
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["unfold", "--config", str(cfg_path), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "pipeline error: slots 0-5: stacked basis col(Phi(-r_j)) has rank 4 < 6; "
            "the lags are too few, or not generic for this spectrum\n")
        assert not out.exists()


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


def _segment_intersections(P, Q):
    """Crossings of two polylines in the plane: ``d3._crossings`` of
    ``[P, Q]`` in the whole plane, keeping only the pairs of a P segment and
    a Q segment.  Returns arrays ``(i, j, t, u, point)`` ordered by (i, j)."""
    a, b, i, j, t, u, pt = d3._crossings([P, Q], EVERYWHERE)
    cross = a < b
    return i[cross], j[cross], t[cross], u[cross], pt[cross]


def _assert_same_hits(P, Q):
    """The sweep's hits equal the loop's exactly, in the same order; returns
    their number."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    ref = _loop_intersections(P, Q)
    i, j, t, u, pt = _segment_intersections(P, Q)
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

    def test_tied_lower_alphas(self, rng):
        # every pair is found once, from whichever segment ranks lower, when
        # many segments share one lower alpha: a zigzag whose segments all
        # start at alpha 0, a comb of vertical segments, and exact copies
        zigzag = [(2.0 * (k % 2), 0.5 * k) for k in range(30)]
        comb = [(x, y) for k, x in enumerate(np.linspace(0.0, 2.0, 15))
                for y in ((-1.0, 20.0), (20.0, -1.0))[k % 2]]
        teeth = [(0.0, (-1) ** k * k) for k in range(20)]
        walk = np.cumsum(rng.standard_normal((60, 2)) * [1.0, 30.0], axis=0)
        curve = d3.sweep_curves("delta2", 0.5, 3.0, np.arange(0.05, 5.0, 0.02))[(1, 1)][:, 1:3]
        n = sum(_assert_same_hits(P, Q) for P, Q in [
            (zigzag, comb), (comb, zigzag), (zigzag, teeth), (teeth, comb),
            (zigzag, np.copy(zigzag)), (comb, np.copy(comb)), (walk, walk.copy()),
            (curve, curve.copy())])
        assert n > 500
        # a polyline with itself: both orders of each pair, neighbours skipped
        for P in (np.array(zigzag), np.array(comb), walk, curve):
            ref = [(i, j, t, u) for i, j, t, u, _ in _loop_intersections(P, P)
                   if abs(i - j) > 1]
            a, b, i, j, t, u, _ = d3._crossings([P], EVERYWHERE)
            assert list(zip(i.tolist(), j.tolist(), t.tolist(), u.tolist())) == ref

    def test_rounding_hit_of_disjoint_parallel_segments_is_dropped(self):
        # P's first segment and Q's first segment lie on one line but do not
        # meet; the loop's near-zero denominator still put t = u = 1 in range
        P = np.array([[0, -3], [-1, -1], [1, 1]]) * 0.1
        Q = np.array([[-3, 3], [-2, 1], [2, -2], [-1, -2]]) * 0.1
        ref = _loop_intersections(P, Q)
        assert [(a, b) for a, b, *_ in ref] == [(0, 0), (0, 2), (1, 1)]
        assert np.max(np.abs(ref[0][4] - Q[1])) > 0.1       # not on Q's segment
        i, j, t, u, pt = _segment_intersections(P, Q)
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


def _pair_loop_seeds(curves, omegas, alpha_window, tau_s_window):
    """Reference: ``_segment_intersections`` on every branch pair of whole
    curves, then the window and frequency filters.  It needs no
    non-adjacency filter: a branch's neighbouring segments meet only at the
    sample they share, where the two frequencies agree."""
    step = float(omegas[1] - omegas[0])
    keys = sorted(curves)
    rows = [np.empty((0, 4))]
    for k, a in enumerate(keys):
        for b in keys[k:]:
            i, j, t, u, pt = _segment_intersections(curves[a][:, 1:3], curves[b][:, 1:3])
            wA, wB = omegas[i] + t * step, omegas[j] + u * step
            a0, t0 = pt[:, 0], pt[:, 1]
            keep = ((np.abs(wA - wB) >= 1e-3)
                    & (alpha_window[0] <= a0) & (a0 <= alpha_window[1])
                    & (tau_s_window[0] < t0) & (t0 <= tau_s_window[1]))
            rows.append(np.column_stack([a0, t0, wA, wB])[keep])
    return np.concatenate(rows)


def _assert_same_seeds(factor, beta, tau_n, step, branches=(0, 1, 2, 3),
                       window=((-4.0, 4.0), (0.0, 10.0))):
    omegas = np.arange(0.05, 5.0, step)
    curves = d3.sweep_curves(factor, beta, tau_n, omegas, branches=branches)
    seeds = d3._crossing_seeds(curves, omegas, *window)
    ref = _pair_loop_seeds(curves, omegas, *window)
    assert seeds.shape == ref.shape
    assert seeds.tobytes() == ref.tobytes()
    return len(ref)


class TestCrossingSeeds:
    """The seeds built from branches prepared once, restricted to the window,
    are the per-pair loop's, bit for bit and in the same order."""

    @pytest.mark.parametrize("factor, beta, tau_n, step", [
        ("delta1", -0.5, 4.0, 0.005),              # the two fixture slices
        ("delta2", 0.5, 3.0, 0.005),
        ("delta1", 0.61, 4.23, 0.0025),
        ("delta2", -0.18, 1.18, 0.0025),
    ])
    def test_curve_slices(self, factor, beta, tau_n, step):
        _assert_same_seeds(factor, beta, tau_n, step)

    def test_seeded_slices(self, rng):
        n = 0
        for k in range(40):
            beta, tau_n = rng.uniform(-1.0, 1.0), rng.uniform(1.0, 5.0)
            n += _assert_same_seeds(("delta1", "delta2")[k % 2], beta, tau_n,
                                    (0.02, 0.01, 0.005, 0.0025)[k % 4])
        assert n > 100

    def test_no_branches_gives_no_seeds(self):
        assert d3.locate_double_hopf("delta1", -0.5, 4.0, branches=()) == []

    @pytest.mark.parametrize("factor, beta, tau_n, step, branches, window, some", [
        # a window far wider than the curves (the CLI accepts +-1e300), and
        # branches at negative tau_s
        ("delta1", -0.5, 4.0, 0.02, range(-2, 6), ((-1e300, 1e300), (-1e300, 1e300)), True),
        ("delta2", 0.61, 4.23, 0.0025, range(-2, 6), ((-1e300, 1e300), (-1e300, 1e300)), True),
        ("delta2", 0.5, 3.0, 0.0025, (0,), ((-1e300, 1e300), (-1e300, 1e300)), True),
        ("delta1", -0.18, 1.18, 0.02, (3,), ((-4.0, 4.0), (0.0, 10.0)), False),
        ("delta1", -0.5, 4.0, 0.0025, (3,), ((-1e300, 1e300), (0.0, 1e300)), True),
        # a window no segment meets
        ("delta2", 0.5, 3.0, 0.0025, (0, 1, 2, 3), ((50.0, 60.0), (0.0, 10.0)), False),
        ("delta1", -0.5, 4.0, 0.02, range(-2, 6), ((-4.0, 4.0), (-1e300, -1e299)), False),
    ])
    def test_wide_and_empty_windows_and_odd_branches(self, factor, beta, tau_n, step,
                                                     branches, window, some):
        assert (_assert_same_seeds(factor, beta, tau_n, step, tuple(branches), window) > 0) == some


def _numpy_find_double_hopf(factor, beta, tau_n, seed):
    """Reference: the Newton refinement of ``find_double_hopf`` in numpy
    scalar arithmetic (``np.exp``, numpy complex products, ``factor_value``)."""
    c = d3._factor_coupling(factor)
    x = np.array(seed, dtype=float)
    if abs(x[2] - x[3]) < 1e-6:
        raise EqunfoldError("seed frequencies coincide; not a non-resonant double Hopf")
    res = np.inf
    for _ in range(d3._REFINE_MAX_ITER):
        a, ts, o1, o2 = x
        F = np.empty(4)
        Jm = np.zeros((4, 4))
        for k, w in enumerate((o1, o2)):
            lam = 1j * w
            es = np.exp(-lam * ts)
            f = d3.factor_value(factor, lam, a, beta, ts, tau_n)
            F[2 * k] = f.real
            F[2 * k + 1] = f.imag
            dfda = -es
            dfdts = a * lam * es
            dfdw = 1j * (1.0 + a * ts * es + c * beta * tau_n * np.exp(-lam * tau_n))
            Jm[2 * k, 0], Jm[2 * k, 1] = dfda.real, dfdts.real
            Jm[2 * k + 1, 0], Jm[2 * k + 1, 1] = dfda.imag, dfdts.imag
            Jm[2 * k, 2 + k] = dfdw.real
            Jm[2 * k + 1, 2 + k] = dfdw.imag
        res = float(np.max(np.abs(F)))
        if res < d3._REFINE_TOL:
            break
        try:
            step = np.linalg.solve(Jm, F)
        except np.linalg.LinAlgError:
            raise EqunfoldError(f"singular Jacobian at {x} (residual {res:.3e})")
        x = x - step
    if res >= d3._REFINE_TOL:
        raise EqunfoldError(f"double-Hopf refinement stalled at residual {res:.3e}; trace ends at {x}")
    o1, o2 = sorted((abs(x[2]), abs(x[3])))
    if o1 < 1e-6:
        raise EqunfoldError(f"refined frequency {o1:.3e} is zero; not a double Hopf")
    if o2 - o1 < 1e-6:
        raise EqunfoldError("refined frequencies collide; not a non-resonant double Hopf")
    return d3.DoubleHopfPoint(factor=factor, beta=beta, tau_n=tau_n, alpha=float(x[0]),
                              tau_s=float(x[1]), omega1=float(o1), omega2=float(o2),
                              residual=res)


def _refinement(refine, factor, beta, tau_n, seed):
    """A refinement's outcome: each field of the point, floats in hex, or
    the error message."""
    try:
        p = refine(factor, beta, tau_n, seed)
    except EqunfoldError as exc:
        return ("error", str(exc))
    return tuple(v.hex() if isinstance(v, float) else v for v in tuple(p))


def _assert_same_refinements(factor, beta, tau_n, step):
    """Every seed of a slice refines to the reference's point or message
    exactly; returns how many seeds failed to refine."""
    omegas = np.arange(0.05, 5.0, step)
    curves = d3.sweep_curves(factor, beta, tau_n, omegas)
    failed = 0
    for seed in d3._crossing_seeds(curves, omegas, (-4.0, 4.0), (0.0, 10.0)):
        got = _refinement(d3.find_double_hopf, factor, beta, tau_n, seed)
        assert got == _refinement(_numpy_find_double_hopf, factor, beta, tau_n, seed)
        failed += got[0] == "error"
    return failed


class TestNewtonOracle:
    """The scalar Newton refinement gives the numpy-scalar one's points and
    messages bit for bit."""

    @pytest.mark.parametrize("case", ["simple", "double"])
    def test_fixture_slices(self, case):
        cfg = d3._CASE_DEFAULTS[case]
        _assert_same_refinements(cfg["factor"], cfg["beta"], cfg["tau_n"], 0.005)

    def test_seeded_slices(self, rng):
        failed = 0
        for k in range(40):
            beta, tau_n = rng.uniform(-1.0, 1.0), rng.uniform(1.0, 5.0)
            failed += _assert_same_refinements(("delta1", "delta2")[k % 2], beta, tau_n,
                                               (0.02, 0.01, 0.005, 0.0025)[k % 4])
        assert failed > 10          # stalled and rejected refinements are compared too

    @pytest.mark.parametrize("seed", [
        (1.0, 1.0, 2.0, 2.0),                       # coinciding frequencies
        (1.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1e-300, 2.0),                    # a singular Jacobian
        (1e300, 1e300, 1e300, -1e300),              # overflow to nan
        (-0.9, 2.5, 1.1, -1.1),
    ])
    def test_degenerate_seeds(self, seed):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _refinement(d3.find_double_hopf, "delta2", 0.5, 3.0, seed)
            ref = _refinement(_numpy_find_double_hopf, "delta2", 0.5, 3.0, seed)
        if seed[0] != 1e300:
            assert got == ref
            return
        # the trace overflows and the residual turns nan: the reference
        # returns an all-nan point, the refinement reports a stall
        assert ref[3:] == ("nan",) * 5                  # alpha, tau_s, omegas, residual
        assert got[0] == "error"
        assert got[1].startswith("double-Hopf refinement stalled at residual nan; trace ends at")


class TestSimpleCase:
    def test_conjugate_pairs_and_real_family(self, simple_case):
        fam = simple_case.assembly.family
        for a, b in ((0, 1), (2, 3)):
            for j in range(4):
                assert np.max(np.abs(fam.directions[b][j]
                                     - fam.directions[a][j].conj())) < 1e-10
        s = np.linalg.svd(slot_reparametrization(fam), compute_uv=False)
        assert s[-1] > 1e-8 * s[0]
        s = np.linalg.svd(realify(fam)[1], compute_uv=False)
        assert s[-1] > 1e-8 * s[0]

    def test_versality_dimensions(self, simple_case):
        ver = simple_case.assembly.versality
        assert ver.mini_versal
        assert (ver.tangent_dim, ver.n_directions, ver.commutant_dim) == (12, 4, 16)


class TestDoubleCase:
    def test_projected_slots_match_table_pattern(self, double_slots):
        # which of the two rotation functionals vanish on each solved vector
        expected_eta1 = [True, False, True, False,
                         False, True, False, True,
                         True, False, True, False,
                         False, True, False, True]
        for m, R in enumerate(double_slots[0]):
            col = np.argmax(np.abs(R).sum(axis=0))
            e1, e2 = eta_pair(R[:, col])
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
                    direction = frame.phi[k]
                    cross = np.linalg.norm(
                        Nbar[:, k] - (direction.conj() @ Nbar[:, k])
                        / (direction.conj() @ direction) * direction)
                    assert cross < 1e-10
                else:
                    assert colnorm < 1e-12

    def test_versality_and_reparametrization(self, double_case):
        ver = double_case.assembly.versality
        assert ver.mini_versal
        assert (ver.tangent_dim, ver.n_directions, ver.commutant_dim) == (12, 4, 16)
        s = np.linalg.svd(realify(double_case.assembly.family)[1], compute_uv=False)
        assert s[-1] > 1e-8 * s[0]


def _assert_case_structure(case, rep, frame, assembly):
    """The structural facts of a worked case: a trivial induced action and a
    diagonal Theta (simple), or Theta's zero/duplicate row profile and
    vanishing mixed-slot directions (double); all four rows selected, a
    mini-versal family whose codimension the character formula confirms,
    coefficients on the model's coupling pattern, and independent per-lag
    parameters, complex and realified."""
    c = frame.c
    theta = assembly.theta
    assert c == (4 if case == "simple" else 8)
    if case == "simple":
        for g in range(frame.G.group.order):
            assert np.max(np.abs(frame.G.matrices[g] - np.eye(c))) < 1e-8
        offdiag = np.max(np.abs(theta.theta - np.diag(np.diag(theta.theta))))
        assert offdiag < 1e-10 and np.min(np.abs(np.diag(theta.theta))) > 1e-8
        assert theta.selected_rows == (0, 1, 2, 3)
    else:
        assert theta.theta.shape[0] >= 12
        assert np.max(np.abs(theta.theta[4:12])) < 1e-10
        assert np.max(np.abs(theta.theta[12:16] - theta.theta[0:4])) < 1e-10
        assert theta.selected_rows == (0, 1, 2, 3)
        Bhats = slot_stacks(frame, rep)[2]
        for m in range(4, 12):
            assert np.max(np.abs(Bhats[m])) < 1e-10
    assert assembly.versality.mini_versal
    # the character formula of Z agrees with the rank that found it
    ver = assembly.versality
    assert abs(ver.codimension_formula - ver.codimension) < 1e-12
    fam = assembly.family
    patterns = [I3, I3, J3 - I3, J3 - I3]
    for row in fam.directions:
        for A, pat in zip(row, patterns):
            coef = np.vdot(pat, A) / np.vdot(pat, pat)
            assert np.max(np.abs(A - coef * pat)) < 1e-10
    E = slot_reparametrization(fam)
    assert rank(E, rcond=max(E.shape) * np.finfo(float).eps) == fam.n_parameters
    realify(fam)            # raises on an unpaired direction or a rank-deficient real family


class TestCaseStructure:
    """What the worked cases show, at the presets and at every fixture point."""

    def test_presets(self, simple_case, double_case):
        for case, r in (("simple", simple_case), ("double", double_case)):
            _assert_case_structure(case, r.rep, r.frame, r.assembly)

    @pytest.mark.parametrize("case, index", [
        (case, i) for case in ("simple", "double")
        for i in range(len(FIXTURE_POINTS[case]["points"]))])
    def test_fixture_point(self, case, index):
        entry = FIXTURE_POINTS[case]
        point = d3.DoubleHopfPoint(factor=entry["factor"], beta=entry["beta"],
                                   tau_n=entry["tau_n"], **entry["points"][index])
        r = d3.run_case(case, point)
        _assert_case_structure(case, r.rep, r.frame, r.assembly)


class TestRunCaseRoots:
    def test_located_point_off_the_root_tolerance_is_polished(self):
        # a Delta1 point of perfbench's unfold-warm seed 171: |det Delta(i omega)|
        # is 2.4e-10 there, above ROOT_TOL.  Unfolded at the located roots,
        # the projection identity of slot 2 missed its bound (1.139e-10
        # against 1e-10); Newton moves each root by ~4e-11 and the family is
        # mini-versal and verifies
        point = d3.DoubleHopfPoint(
            factor="delta1", beta=0.5631165922348742, tau_n=3.247304212666019,
            alpha=-3.679217190592752, tau_s=0.7630437007967816,
            omega1=2.4165885608743864, omega2=2.8618561294488116, residual=0.0)
        lams = [1j * point.omega1, -1j * point.omega1, 1j * point.omega2, -1j * point.omega2]
        r = d3.run_case("simple", point)
        assert max(abs(np.linalg.det(r.op.char_matrix(lam))) for lam in lams) > ROOT_TOL
        assert r.frame.lambdas != tuple(lams)
        assert r.assembly.versality.mini_versal
        report = verify_artifact(json.loads(canonical_json(build_artifact(*r))))
        assert report.ok, report.lines()


class TestRunCaseGuards:
    def test_unknown_case(self, simple_point):
        with pytest.raises(EqunfoldError):
            d3.run_case("triple", simple_point)

    def test_factor_mismatch(self, simple_point, double_point):
        with pytest.raises(EqunfoldError, match="needs"):
            d3.run_case("simple", point=double_point)
        with pytest.raises(EqunfoldError, match="needs"):
            d3.run_case("double", point=simple_point)

    def test_coinciding_tau_s_and_tau_n(self, simple_point):
        point = simple_point._replace(tau_s=simple_point.tau_n)
        with pytest.raises(EqunfoldError, match="^tau_s and tau_n coincide; unfolding lags "
                                                "would collide$"):
            d3.run_case("simple", point=point)
