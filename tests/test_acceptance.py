"""Acceptance suite: one test per criterion, stated tolerance and runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.
"""

import copy
import time

import numpy as np

from equnfold import d3
from equnfold.delays import DelayOperator, bilinear_form
from equnfold.groups import commutant_basis, equivariant_average
from equnfold.unfolding import (jordan_codimension, orbit_geometry, realify,
                                semisimple_jordan_spec)
from equnfold.verify import verify_artifact

from oracles import bilinear_form_quadrature, exponential_delay_matrix, scaled_det
from test_groups import act8_rep
from test_unfolding import random_jordan

I3 = np.eye(3)
J3 = np.ones((3, 3))


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def report(n, label, detail, seconds, budget):
    print(f"PASS criterion {n} ({label}): {detail} [{seconds:.2f}s < {budget:.0f}s]")


def test_criterion_1_characteristic_factorization():
    rng = np.random.default_rng(1)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            a, b = rng.uniform(-3, 3, 2)
            ts, tn = rng.uniform(0.05, 5, 2)
            lam = complex(*rng.uniform(-3, 3, 2))
            p = d3.D3ModelParams(alpha=a, beta=b, tau_s=ts, tau_n=tn)
            det = np.linalg.det(d3.d3_operator(p).char_matrix(lam))
            ref = (d3.factor_value("delta1", lam, a, b, ts, tn)
                   * d3.factor_value("delta2", lam, a, b, ts, tn) ** 2)
            worst = max(worst, abs(det - ref) / (1.0 + abs(det)))
    assert worst < 1e-10
    assert t.seconds < 1.0
    report(1, "factorization", f"max relative residual {worst:.2e} over 1000 samples",
           t.seconds, 1)


def test_criterion_2_projection_algebra():
    rng = np.random.default_rng(2)
    with Timer() as t:
        worst = 0.0
        for rep in (d3.triangle_rep(), act8_rep()):
            d = rep.dim
            comm = commutant_basis(rep)
            for _ in range(100):
                M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                PM = equivariant_average(rep, rep, M)
                worst = max(worst, float(np.max(np.abs(
                    equivariant_average(rep, rep, PM) - PM))))
                for g in rep.group.elements():
                    R = rep.matrices[g]
                    worst = max(worst, float(np.max(np.abs(R @ PM - PM @ R))))
                coef = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
                A = sum(c * K for c, K in zip(coef, comm))
                worst = max(worst, float(np.max(np.abs(
                    equivariant_average(rep, rep, A @ M) - A @ PM))))
                worst = max(worst, float(np.max(np.abs(
                    equivariant_average(rep, rep, M @ A) - PM @ A))))
    assert worst < 1e-12
    assert t.seconds < 1.0
    report(2, "projection algebra", f"max identity residual {worst:.2e}",
           t.seconds, 1)


def test_criterion_3_codimension_formula():
    rng = np.random.default_rng(3)
    with Timer() as t:
        w1, w2 = 1.3, 2.7
        B4 = np.diag([1j * w1, -1j * w1, 1j * w2, -1j * w2])
        geo4 = orbit_geometry(B4, semisimple_jordan_spec(np.diag(B4)))
        B8 = np.diag(np.repeat([1j * w1, -1j * w1, 1j * w2, -1j * w2], 2))
        geo8 = orbit_geometry(B8, semisimple_jordan_spec(np.diag(B8)))
        assert geo4.delta == 4 and geo8.delta == 16
        checked = 0
        while checked < 50:
            c = int(rng.integers(2, 9))
            B, spec = random_jordan(rng, c)
            geo = orbit_geometry(B, spec)
            assert geo.delta == jordan_codimension(spec)
            checked += 1
    assert t.seconds < 5.0
    report(3, "codimension formula",
           f"worked cases 4/16 plus {checked} random Jordan structures",
           t.seconds, 5)


def test_criterion_4_simple_case_end_to_end():
    with Timer() as t:
        point = d3.default_point("simple")
        r = d3.run_case("simple", point)
        assert r.frame.c == 4
        for g in r.frame.G.group.elements():
            assert np.max(np.abs(r.frame.G.matrices[g] - np.eye(4))) < 1e-8
        th = r.assembly.theta
        assert np.max(np.abs(th.theta - np.diag(np.diag(th.theta)))) < 1e-8
        assert np.min(np.abs(np.diag(th.theta))) > 1e-8
        assert th.selected_rows == (0, 1, 2, 3)
        patterns = [I3, I3, J3 - I3, J3 - I3]
        for row in r.assembly.family.directions:
            for A, pat in zip(row, patterns):
                coef = np.vdot(pat, A) / np.vdot(pat, pat)
                assert np.max(np.abs(A - coef * pat)) < 1e-8
        ver = r.assembly.versality
        assert ver.mini_versal
        assert (ver.tangent_dim, ver.n_directions, ver.commutant_dim) == (12, 4, 16)
    assert t.seconds < 10.0
    report(4, "simple case",
           f"alpha*={point.alpha:.4f} tau_s*={point.tau_s:.4f}, "
           f"c=4, trivial action, diagonal Theta, 12+4=16",
           t.seconds, 10)


def test_criterion_5_double_case_end_to_end():
    with Timer() as t:
        point = d3.default_point("double")
        r = d3.run_case("double", point)
        frame = r.frame
        assert frame.c == 8
        kap, gam = r.rep.group.generator_indices
        om = d3.OMEGA
        diag = np.array([om, om.conjugate(), om.conjugate(), om,
                         om, om.conjugate(), om.conjugate(), om])
        assert np.max(np.abs(frame.G.matrices[gam] - np.diag(diag))) < 1e-8
        swap = np.kron(np.eye(4), np.array([[0, 1], [1, 0]]))
        assert np.max(np.abs(frame.G.matrices[kap] - swap)) < 1e-8
        for m in range(4, 12):
            assert np.max(np.abs(r.assembly.directions[m])) < 1e-8
        th = r.assembly.theta
        assert th.rank == 4
        assert np.max(np.abs(th.theta[12:16] - th.theta[0:4])) < 1e-8
        patterns = [I3, I3, J3 - I3, J3 - I3]
        for row in r.assembly.family.directions:
            for A, pat in zip(row, patterns):
                coef = np.vdot(pat, A) / np.vdot(pat, pat)
                assert np.max(np.abs(A - coef * pat)) < 1e-8
        ver = r.assembly.versality
        assert ver.mini_versal and ver.n_directions == 4
        s = np.linalg.svd(realify(r.assembly.family)[1], compute_uv=False)
        assert s[-1] > 1e-8 * s[0]
    assert t.seconds < 30.0
    report(5, "double case",
           f"alpha*={point.alpha:.4f} tau_s*={point.tau_s:.4f}, c=8, "
           f"block action matched, slots 5..12 vanish, Theta rank 4",
           t.seconds, 30)


def test_criterion_6_oracle_equivalence(double_case):
    rng = np.random.default_rng(6)
    with Timer() as t:
        worst = 0.0
        for _ in range(200):
            nterms = int(rng.integers(1, 4))
            delays = np.unique(np.round(rng.uniform(0.0, 5.0, nterms), 6))
            n = int(rng.integers(1, 4))
            op = DelayOperator(n=n, terms=tuple(
                (float(r), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                for r in delays))
            lam = complex(*rng.uniform(-1, 1, 2)) * 7
            mu = complex(*rng.uniform(-1, 1, 2)) * 7
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            closed = bilinear_form(w, lam, u, mu, op)
            quad = bilinear_form_quadrature(w, lam, u, mu, op, npoints=64)
            worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
        assert worst < 1e-6
        frame = double_case.frame
        stacked = np.vstack([frame.Phi_at(-r) for r in double_case.assembly.family.delays])
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        assert rank == 8
    assert t.seconds < 10.0
    report(6, "oracle equivalence",
           f"max closed-vs-quadrature deviation {worst:.2e}; stacked rank 8",
           t.seconds, 10)


def test_criterion_7_singularity_guard(double_case, double_point):
    with Timer() as t:
        point = double_point
        lams = [1j * point.omega1, -1j * point.omega1,
                1j * point.omega2, -1j * point.omega2]
        coincident = [0.0, point.tau_s, point.tau_s, point.tau_n]
        M_bad = exponential_delay_matrix(lams, coincident)
        assert abs(np.linalg.det(M_bad)) < 1e-12
        M_good = exponential_delay_matrix(lams, list(double_case.assembly.family.delays))
        good = scaled_det(M_good)
        assert good > 1e-6
    assert t.seconds < 1.0
    report(7, "singularity guard",
           f"coincident |det| {abs(np.linalg.det(M_bad)):.1e}, generic scaled det {good:.2e}",
           t.seconds, 1)


def test_criterion_8_fault_injection(simple_case, simple_artifact):
    rng = np.random.default_rng(8)
    with Timer() as t:
        detected_perturb = 0
        detected_missing = 0
        trials = 20
        for _ in range(trials):
            # equivariance-breaking single-entry perturbation of 1e-3
            doc = copy.deepcopy(simple_artifact)
            m = int(rng.integers(0, 4))
            j = int(rng.integers(0, 4))
            k, l = (int(x) for x in rng.integers(0, 3, 2))
            doc["unfolding"]["coefficients"][m][j][k][l][0] += 1e-3 * (1 if rng.random() < 0.5 else -1)
            rep = verify_artifact(doc)
            failed = {c.name for c in rep.failed()}
            if not rep.ok and "family.coefficient_equivariance" in failed:
                detected_perturb += 1

            # a direction deleted from the mini-versal set
            doc = copy.deepcopy(simple_artifact)
            drop = int(rng.integers(0, 4))
            for key in ("coefficients", "selected_rows"):
                doc["unfolding"][key] = [v for i, v in enumerate(doc["unfolding"][key]) if i != drop]
            doc["unfolding"]["parameters"] = [
                v for i, v in enumerate(doc["unfolding"]["parameters"]) if i != drop]
            rep = verify_artifact(doc)
            failed = {c.name for c in rep.failed()}
            if not rep.ok and "versality.span" in failed:
                detected_missing += 1
        assert detected_perturb == trials
        assert detected_missing == trials
    assert t.seconds < 10.0
    report(8, "fault injection",
           f"{detected_perturb}/{trials} perturbations and "
           f"{detected_missing}/{trials} deletions detected",
           t.seconds, 10)
