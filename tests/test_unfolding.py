import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equnfold import d3, invariants
from equnfold._linalg import LAG_MATCH_TOL, RANK_RCOND, eigen_groups, rank, svd_rank
from equnfold.delays import DelayOperator, lag_sum
from equnfold.errors import EqunfoldError
from equnfold.frames import SpectralFrame
from equnfold.groups import (Representation, close_generators, commutant_basis,
                             equivariant_average)
from equnfold.invariants import BY_NAME
from equnfold.jsonio import build_artifact, canonical_json, config_from_doc, encode_complex
from equnfold.unfolding import (REALIZATION_TOL, OrbitGeometry, UnfoldingFamily,
                                assemble_gamma_unfolding,
                                build_R_matrices, check_lags,
                                lag_basis, orbit_geometry, realify, select_delays, slot_stacks,
                                solve_delay_realization, theta_extract, unfold,
                                verify_gamma_versality)
from equnfold.verify import verify_artifact

from conftest import random_complex, same_bits
from oracles import exponential_delay_matrix, jordan_codimension, scaled_det
from test_d3 import FIXTURE_POINTS

I3 = np.eye(3)
J3 = np.ones((3, 3))


def random_jordan(rng, c):
    """A Jordan matrix of size c with a random block structure."""
    spec = []
    blocks = []
    remaining = c
    k = 0
    while remaining > 0:
        g = int(rng.integers(1, remaining + 1))
        sizes = []
        left = g
        while left > 0:
            b = int(rng.integers(1, left + 1))
            sizes.append(b)
            left -= b
        lam = (5.0 * k + rng.uniform(0, 1)) + 1j * rng.uniform(-1, 1)
        spec.append((lam, tuple(sizes)))
        for s in sizes:
            blocks.append(lam * np.eye(s) + np.eye(s, k=1))
        remaining -= g
        k += 1
    n = sum(b.shape[0] for b in blocks)
    B = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        s = b.shape[0]
        B[pos:pos + s, pos:pos + s] = b
        pos += s
    return B, spec


class TestJordanCodimension:
    def test_worked_case_codimensions(self):
        simple = [(1j, (1,)), (-1j, (1,)), (2j, (1,)), (-2j, (1,))]
        double = [(1j, (1, 1)), (-1j, (1, 1)), (2j, (1, 1)), (-2j, (1, 1))]
        assert jordan_codimension(simple) == 4
        assert jordan_codimension(double) == 16

    def test_single_jordan_block(self):
        # one block of size n costs n; n 1x1 blocks cost n^2
        assert jordan_codimension([(0.0, (4,))]) == 4
        assert jordan_codimension([(0.0, (1, 1, 1, 1))]) == 16


def complement(geo):
    """The complement columns of ``geo.basis``, as c x c matrices."""
    c = len(geo.B)
    return geo.basis[:, geo.tangent_dim:].T.reshape(-1, c, c)


class TestOrbitGeometry:
    def test_distinct_diagonal(self):
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        assert geo.delta == 4
        expected = [np.zeros((4, 4)) for _ in range(4)]
        for i in range(4):
            expected[i][i, i] = 1.0
        for W, E in zip(complement(geo), expected):
            assert np.allclose(W, E)
        assert geo.basis.flags.c_contiguous

    def test_double_diagonal_slot_order(self):
        B = np.diag([1j, 1j, -1j, -1j, 2j, 2j, -2j, -2j])
        geo = orbit_geometry(B)
        assert geo.delta == 16
        positions = [tuple(int(x) for x in np.argwhere(np.abs(W) > 0.5)[0])
                     for W in complement(geo)]
        assert positions[:4] == [(0, 0), (2, 2), (4, 4), (6, 6)]
        assert positions[4:8] == [(1, 0), (3, 2), (5, 4), (7, 6)]
        assert positions[8:12] == [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert positions[12:] == [(1, 1), (3, 3), (5, 5), (7, 7)]

    def test_zero_matrix(self):
        c = 3
        B = np.zeros((c, c))
        geo = orbit_geometry(B)
        assert geo.delta == c * c
        assert geo.tangent_dim == 0

    def test_rank_matches_formula_on_random_specs(self, rng):
        for _ in range(20):
            c = int(rng.integers(2, 9))
            B, spec = random_jordan(rng, c)
            geo = orbit_geometry(B)
            assert geo.delta == jordan_codimension(spec)

    @pytest.mark.parametrize("lams, slots, rank_delta", [
        ((10.0, 10.0 + 5e-9, 11.0), 5, 3), ((-1.0, 1.0, 1.0 + 1.5e-9), 3, 5)],
        ids=["groups-merge-a-pair", "ad-rank-merges-a-pair"])
    def test_slot_count_disagreeing_with_rank_is_rejected(self, lams, slots, rank_delta):
        # eigen_groups and the rank of ad_B cut near eigenvalues at different
        # scales: a pair one calls one block and the other two fails the check
        with pytest.raises(EqunfoldError, match=f"complement dimension {slots} "
                                                 f"!= codimension {rank_delta}"):
            orbit_geometry(np.diag(lams))

    def test_nondiagonal_complement_coordinates(self, rng):
        # away from diagonal form the complement comes from an SVD basis;
        # its own elements must have identity Theta coordinates
        B, _ = random_jordan(rng, 5)
        assert np.max(np.abs(B - np.diag(np.diag(B)))) > 0.5   # truly non-diagonal
        geo = orbit_geometry(B)
        report = theta_extract(geo, list(complement(geo)))
        assert np.max(np.abs(report.theta - np.eye(geo.delta))) < 1e-9
        assert report.selected_rows == tuple(range(geo.delta))

    def test_conjugated_jordan_matrix(self, rng):
        # a well-conditioned similarity keeps the rank tests and the
        # codimension intact even though B is dense
        J, spec = random_jordan(rng, 6)
        S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        B = S @ J @ np.linalg.inv(S)
        geo = orbit_geometry(B)
        assert geo.delta == jordan_codimension(spec)
        assert np.linalg.matrix_rank(geo.basis) == 36
        assert geo.basis.flags.c_contiguous


class TestGammaOrbitGeometry:
    """The orbit geometry restricted to Mat^Gamma, as ``verify_gamma_versality``
    reports it for an empty direction family."""

    def test_trivial_group_reduces_to_plain_geometry(self):
        B = np.diag([1j, -1j, 2j, -2j])
        rep1 = close_generators([np.eye(4)])
        ver = verify_gamma_versality(orbit_geometry(B), rep1, [])
        assert ver.commutant_dim == 16
        assert ver.tangent_dim == 12
        assert ver.codimension == 4

    def test_simple_case_dimensions(self, simple_case):
        frame = simple_case.frame
        ver = verify_gamma_versality(orbit_geometry(frame.B), frame.G, [])
        assert (ver.commutant_dim, ver.tangent_dim, ver.codimension) == (16, 12, 4)

    def test_double_case_dimensions(self, double_case):
        frame = double_case.frame
        ver = verify_gamma_versality(orbit_geometry(frame.B), frame.G, [])
        assert (ver.commutant_dim, ver.tangent_dim, ver.codimension) == (16, 12, 4)

    def test_appendix_rank_nullity(self, double_case):
        ver = verify_gamma_versality(orbit_geometry(double_case.frame.B), double_case.frame.G, [])
        assert ver.commutant_dim == ver.tangent_dim + ver.codimension

    def test_noncommuting_matrix_rejected(self, simple_case):
        G = simple_case.frame.G
        B = np.diag([1.0, 2.0, 3.0, 4.0])
        bad = B.copy()
        bad[0, 1] = 1.0
        # B itself commutes with a trivial action, so force a real group
        rep = d3.triangle_rep()
        geometry = orbit_geometry(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 1.0]]))
        with pytest.raises(EqunfoldError, match=r"^frame.B_commutes_with_G: residual 1.000e\+00 "):
            verify_gamma_versality(geometry, rep, [])

    def test_commutant_cut_checked_by_characters(self):
        # a delta2 point whose induced G carries errors near 1e-10: twelve
        # constraint singular values at 6.5e-11..2.8e-10 are noise, below
        # the cut at the representation tolerance, so the commutant has the
        # 16 matrices of the character formula and the family is minimal
        point = d3.DoubleHopfPoint(
            factor="delta2", beta=-0.6692187347605176, tau_n=4.612060677412268,
            alpha=-3.836239627070401, tau_s=0.5972620017503194,
            omega1=3.0492224800348477, omega2=3.3817111720009483, residual=0.0)
        r = d3.run_case("double", point)
        ver = r.assembly.versality
        assert ver.mini_versal and (ver.n_directions, ver.commutant_dim) == (4, 16)
        doc = json.loads(canonical_json(build_artifact(r.op, r.rep, r.frame, r.assembly)))
        report = verify_artifact(doc)
        assert report.ok, report.lines()

    def test_misplaced_commutant_cut_fails_by_name(self, double_case, monkeypatch):
        # a cutoff above every constraint singular value counts all 64 as null
        monkeypatch.setattr("equnfold.groups.REP_TOL", 2.0)
        with pytest.raises(EqunfoldError,
                           match="commutant dimension 64 by rank disagrees with 16 by the character"):
            verify_gamma_versality(orbit_geometry(double_case.frame.B), double_case.frame.G, [])

    def test_misplaced_codimension_cut_fails_by_name(self, double_case, monkeypatch):
        # a cutoff above every commutator image's singular value finds no
        # tangent space, so all 16 commuting matrices would count toward Z;
        # the geometry is built at the true cutoff
        geometry = orbit_geometry(double_case.frame.B)
        monkeypatch.setattr("equnfold.unfolding.svd_rank",
                            lambda A, scale=0.0: svd_rank(A, scale, rcond=2.0))
        with pytest.raises(EqunfoldError, match=r"^versality.codimension_formula \(Z = 16 "
                                                 r"by rank disagrees with 4 by the character"):
            verify_gamma_versality(geometry, double_case.frame.G, [])

    @pytest.mark.parametrize("entry, formula", [(0.5, "0.25"), (1e200, "inf")])
    def test_character_sum_not_an_integer_is_a_disagreement(self, entry, formula):
        # a 1 x 1 "representation" of the trivial group: rank finds one
        # commuting matrix, but |tr|^2 is 0.25, or overflows
        G = Representation(group=close_generators([[[1.0]]]).group, matrices=[[[entry]]])
        with pytest.raises(EqunfoldError, match=f"disagrees with {formula} by the character"):
            verify_gamma_versality(orbit_geometry(np.zeros((1, 1))), G, [])


class TestProjectDirections:
    def test_equivariant_direction_unchanged(self, double_case):
        G = double_case.frame.G
        comm = commutant_basis(G)
        D = comm[0] + 0.5 * comm[3]
        out = equivariant_average(G, G, D)
        assert np.max(np.abs(out - D)) < 1e-12

    def test_trivial_projection(self, rng):
        rep1 = close_generators([np.eye(4)])
        D = rng.standard_normal((4, 4))
        out = equivariant_average(rep1, rep1, D)
        assert np.max(np.abs(out - D)) < 1e-14

    def test_double_case_kills_mixed_slots(self, double_case, double_slots):
        # projecting the sixteen raw center directions annihilates the
        # eight off-diagonal block slots and reproduces the slots' Bhat
        frame = double_case.frame
        Rs, _, Bhats, _ = double_slots
        raw = [frame.psi @ R for R in Rs]
        projected = equivariant_average(frame.G, frame.G, np.array(raw))
        for m, P in enumerate(projected):
            assert np.max(np.abs(P - Bhats[m])) < 1e-12
            if 4 <= m < 12:
                assert np.max(np.abs(P)) < 1e-12


_DIAGONAL_GEOMETRY = orbit_geometry(np.diag([1j, -1j, 2j, -2j]))


@st.composite
def planted_thetas(draw):
    """Theta over the four diagonal slots of ``_DIAGONAL_GEOMETRY``: zero
    rows, independent rows (orthogonal, each of norm 10^e, e in -5..0) and
    rows that combine earlier independent ones with integer weights in
    -2..2, times 10^e, e in -2..2.  Every entry is at most 800, so an
    independent row keeps at least 1e-5 / 800 of max|Theta|, far from the
    cut 1e-9 (up to 2e-9 for the rank rule, whose cut may follow s_1).
    Returns Theta and the rows a correct choice keeps."""
    delta = _DIAGONAL_GEOMETRY.delta
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    Q = np.linalg.qr(random_complex(rng, delta, delta))[0]
    rows, independent = [], []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["zero", "independent", "combination"]))
        if kind == "independent" and len(independent) < delta:
            rows.append(10.0 ** draw(st.integers(-5, 0)) * Q[len(independent)])
            independent.append(i)
        elif kind == "combination" and independent:
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(independent),
                                    max_size=len(independent)))
            rows.append(10.0 ** draw(st.integers(-2, 2))
                        * (np.array(weights) @ np.array(rows)[independent]))
        else:
            rows.append(np.zeros(delta, dtype=complex))
    return np.array(rows, dtype=complex).reshape(-1, delta), tuple(independent)


class TestThetaExtract:
    @settings(max_examples=200, deadline=None)
    @given(planted_thetas())
    def test_rank_rule_keeps_the_planted_rows(self, planted):
        # each row of Theta as the diagonal direction of its four slots; the
        # rank rule keeps the planted independent rows, as Gram-Schmidt does
        theta, independent = planted
        report = theta_extract(_DIAGONAL_GEOMETRY, [np.diag(row) for row in theta])
        assert np.max(np.abs(report.theta - theta), initial=0.0) <= \
            1e-13 * np.max(np.abs(theta), initial=1.0)
        assert report.selected_rows == _gram_schmidt_rows(report.theta) == independent

    def test_omega_basis_gives_identity(self):
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        report = theta_extract(geo, list(complement(geo)))
        assert np.max(np.abs(report.theta - np.eye(4))) < 1e-12
        assert report.selected_rows == (0, 1, 2, 3)

    def test_earliest_rows_win(self):
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        W = complement(geo)
        dirs = [W[0], W[0], W[1]]
        report = theta_extract(geo, dirs)
        assert report.selected_rows == (0, 2)

    def test_tangent_directions_select_nothing(self):
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        Y = np.arange(16.0).reshape(4, 4)
        report = theta_extract(geo, [B @ Y - Y @ B])
        assert report.selected_rows == ()
        assert np.max(np.abs(report.theta)) < 1e-9

    def test_broken_complement_detected(self):
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        # hand-build a geometry whose "complement" sits inside the tangent space
        t = geo.tangent_dim
        bad = OrbitGeometry(B=geo.B, basis=geo.basis[:, [*range(t), 0, 1, 2, 3]], tangent_dim=t)
        assert bad.delta == 4
        with pytest.raises(EqunfoldError, match=r"^theta.decomposition \(direction 0\): residual"):
            theta_extract(bad, [complement(geo)[0]])

    def test_singular_basis_detected_by_the_solve(self):
        # the same broken basis, given only tangent directions, which it does
        # span: every residual vanishes, and the rank the solve finds for the
        # basis refuses the ambiguous Theta (orbit_geometry no longer ranks it)
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        t = geo.tangent_dim
        bad = OrbitGeometry(B=geo.B, basis=geo.basis[:, [*range(t), 0, 1, 2, 3]], tangent_dim=t)
        Y = np.arange(16.0).reshape(4, 4)
        with pytest.raises(EqunfoldError,
                           match=r"^tangent \+ complement do not span the matrix space$"):
            theta_extract(bad, [B @ Y - Y @ B, 2j * (B @ Y.T - Y.T @ B)])

    def test_non_finite_direction_named(self):
        # a non-finite direction is kept out of the joint least-squares solve,
        # so its own residual is non-finite and theta.decomposition names it
        B = np.diag([1j, -1j, 2j, -2j])
        geo = orbit_geometry(B)
        W = complement(geo)
        D = W[1].copy()
        D[0, 0] = np.nan
        for bad, shown in ((D, "nan"), (np.where(D == D, D, np.inf), "inf")):
            with pytest.raises(EqunfoldError,
                               match=rf"^theta.decomposition \(direction 1\): residual {shown}"):
                theta_extract(geo, [W[0], bad])


def scalar_frame(psi0=2.0, lam=0.5):
    """Hand-built one-dimensional frame with a prescribed Psi(0)."""
    op = DelayOperator(n=1, terms=((0.0, [[lam]]),))
    u = 1.0 / psi0
    return SpectralFrame(op=op, lambdas=(complex(lam),), phi=np.array([[u]], dtype=complex),
                         psi=np.array([[psi0]], dtype=complex))


class TestBuildRMatrices:
    def test_scalar_minimal_norm(self):
        frame = scalar_frame(psi0=2.0)
        geo = orbit_geometry(frame.B)
        (R,) = build_R_matrices(frame, geo)
        assert np.allclose(R, [[0.5]])

    def test_simple_case_normalization_and_conjugates(self, simple_case, simple_slots):
        frame = simple_case.frame
        Rs = simple_slots[0]
        for j, R in enumerate(Rs):
            col = R[:, j]
            assert abs(frame.psi[j] @ col - 1.0) < 1e-10     # Pi_j(v_j) = 1
            others = [k for k in range(4) if k != j]
            assert np.max(np.abs(R[:, others])) == 0.0
        assert np.max(np.abs(Rs[1][:, 1] - Rs[0][:, 0].conj())) < 1e-12
        assert np.max(np.abs(Rs[3][:, 3] - Rs[2][:, 2].conj())) < 1e-12

    def test_double_case_block_projections(self, double_case, double_slots):
        frame = double_case.frame
        Rs = double_slots[0]
        # slot m = 0 targets row 1 of block (rows 0, 1): Pi_1(v) = (1, 0)
        v = Rs[0][:, 0]
        assert np.max(np.abs(frame.psi[:2] @ v - np.array([1.0, 0.0]))) < 1e-10
        # slot m = 12 targets row 2 of block (rows 0, 1) in column 1
        v = Rs[12][:, 1]
        assert np.max(np.abs(frame.psi[:2] @ v - np.array([0.0, 1.0]))) < 1e-10

    def test_realizes_complement_mod_tangent(self, simple_case):
        frame = simple_case.frame
        geo = orbit_geometry(frame.B)
        Rs = build_R_matrices(frame, geo)
        report = theta_extract(geo, [frame.psi @ R for R in Rs])
        assert np.max(np.abs(report.theta - np.eye(4))) < 1e-9


def _gram_schmidt_rows(theta):
    """Reference: Theta's rows chosen by Gram-Schmidt (the implementation
    before the rank rule), each row kept when its residual against the rows
    already kept exceeds ``RANK_RCOND * max|Theta|``."""
    scale = float(np.max(np.abs(theta), initial=0.0))
    selected, basis = [], []
    for i, row in enumerate(theta):
        row = row.copy()
        for q in basis:
            row = row - (q.conj() @ row) * q
        if scale > 0 and np.linalg.norm(row) > RANK_RCOND * scale:
            selected.append(i)
            basis.append(row / np.linalg.norm(row))
    return tuple(selected)


def _theta_extract_per_direction(geometry, directions):
    """Reference: one least-squares solve per direction (the implementation
    before the stacked solve), then the Gram-Schmidt row choice.  Returns
    Theta, the residuals and the selected rows."""
    S = geometry.basis
    t = geometry.tangent_dim
    theta = np.zeros((len(directions), geometry.delta), dtype=complex)
    residuals = []
    for i, D in enumerate(directions):
        v = np.asarray(D, dtype=complex).reshape(-1)
        x, *_ = np.linalg.lstsq(S, v, rcond=None)
        residuals.append(float(np.linalg.norm(S @ x - v)))
        theta[i] = x[t:]
    return theta, tuple(residuals), _gram_schmidt_rows(theta)


def _build_R_per_slot(frame, geometry):
    """Reference: one rank test and one least-squares solve per slot, each
    against a unit vector (the implementation before the per-block solve)."""
    blocks = eigen_groups(np.array(frame.lambdas))
    Rs = []
    for W in complement(geometry):
        ((r, ccol),) = np.argwhere(np.abs(W) > 1e-12)
        block = next(b for b in blocks if r in b)
        Pi = frame.psi[block, :]
        assert rank(Pi) == len(block)
        e = np.zeros(len(block), dtype=complex)
        e[block.index(r)] = 1.0
        v, *_ = np.linalg.lstsq(Pi, e, rcond=None)
        R = np.zeros((frame.op.n, frame.c), dtype=complex)
        R[:, ccol] = v
        Rs.append(R)
    return Rs


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_as_per_system_solves(frame, directions=None, assembly=None, rep=None):
    """``build_R_matrices`` and ``theta_extract`` give, bit for bit, what one
    solve per slot and one per direction give.  Given ``assembly`` and its
    group action ``rep`` instead of directions, the directions are its
    frame's slot stacks' (Bhat, of :func:`slot_stacks`), and the stacks' R
    and Theta report and the assembly's report must give it too.
    Multi-right-hand-side least squares matching single solves is a property
    of the LAPACK build; a failure names the site that lost it."""
    geometry = orbit_geometry(frame.B)
    stacks, reports = [build_R_matrices(frame, geometry)], []
    if assembly is not None:
        Rs, _, directions, theta = slot_stacks(frame, rep, geometry)
        stacks.append(Rs)
        reports += [theta, assembly.theta]
    ref_Rs = _build_R_per_slot(frame, geometry)
    ref_theta, ref_residuals, ref_selected = _theta_extract_per_direction(geometry, directions)
    reports.append(theta_extract(geometry, directions))
    for Rs in stacks:
        assert len(Rs) == len(ref_Rs)
        for m, (R, R_ref) in enumerate(zip(Rs, ref_Rs)):
            assert _same_bits(R, R_ref), f"build_R_matrices: slot {m} differs from its own solve"
    for report in reports:
        assert _same_bits(report.theta, ref_theta), "theta_extract: Theta differs"
        assert _same_bits(report.residuals, ref_residuals), "theta_extract: residuals differ"
        assert report.selected_rows == ref_selected, \
            "theta_extract: the rank rule and Gram-Schmidt choose different rows"


def _ring_case(n):
    """``unfold --config`` on the n-cell one-way ring u_j' = -u_j + 2 u_{j-1}(t - 1):
    its group action, frame and assembly."""
    shift = np.roll(np.eye(n), 1, axis=0)
    _, rep, frame, assembly = unfold(**config_from_doc({
        "model": {"n": n, "terms": [{"delay": 0.0, "matrix": encode_complex(-np.eye(n))},
                                    {"delay": 1.0, "matrix": encode_complex(2.0 * shift)}]},
        "group": {"generators": [encode_complex(shift)]},
        "lambda_seeds": [[0.0, 2.0], [0.0, -2.0]],
    }))
    return rep, frame, assembly


def _solve_per_row(Phis, R, sparsity=None):
    """Reference: the delay realization of one target with one least-squares
    call per row and its checks (the implementation before the stacked
    solve), given ``Phis[j] = Phi(-r_j)``."""
    n = R.shape[0]
    masks = [np.ones((n, n), dtype=bool) if m is None else np.asarray(m, dtype=bool)
             for m in (sparsity or [None] * len(Phis))]
    As = [np.zeros((n, n), dtype=complex) for _ in Phis]
    bound = REALIZATION_TOL * max(1.0, float(np.max(np.abs(R))))
    for i in range(n):
        cols, meta = [], []
        for j, mask in enumerate(masks):
            for l in np.nonzero(mask[i])[0]:
                cols.append(Phis[j][l, :])
                meta.append((j, int(l)))
        if not cols:
            if np.max(np.abs(R[i, :])) > bound:
                raise EqunfoldError(f"sparsity mask leaves row {i} empty but target is nonzero")
            continue
        Msys = np.array(cols).T
        x, *_ = np.linalg.lstsq(Msys, R[i, :], rcond=None)
        res = float(np.linalg.norm(Msys @ x - R[i, :]))
        if res > bound:
            raise EqunfoldError(f"sparsity mask infeasible: row {i} least-squares residual {res:.3e}")
        for (j, l), val in zip(meta, x):
            As[j][i, l] = val
    res = float(np.max(np.abs(sum(A @ P for A, P in zip(As, Phis)) - R)))
    if res > bound:
        raise EqunfoldError(f"reconstruction residual {res:.3e} exceeds tolerance")
    return np.array(As)


def _realize_slots_reference(Phis, Rs):
    """Reference: the unmasked realization of a ``(p, n, c)`` stack in one
    least-squares call (the stacked solve before masks were stacked too)."""
    p, n, c = Rs.shape
    X, *_ = np.linalg.lstsq(np.vstack(Phis).T, Rs.reshape(p * n, c).T, rcond=None)
    return X.reshape(len(Phis), n, p, n).transpose(2, 0, 3, 1)


def _error(call):
    """The message ``call()`` raises as an EqunfoldError, or None."""
    try:
        call()
    except EqunfoldError as exc:
        return str(exc)
    return None


def _residual_free(message):
    return re.sub(r"residual \S+", "residual", message)


def _assert_realization_matches_references(frame, delays, Rs, sparsity=None):
    """``solve_delay_realization`` on the ``(p, n, c)`` stack ``Rs``, and on
    each target alone (a stack of one), gives the per-row reference's
    coefficients bit for bit, or the reference's first error (its residual
    value aside) prefixed with the failing target; without masks the stack
    also gives the one-call reference's coefficients."""
    Phis = lag_basis(frame, delays)[0]
    Rs = np.asarray(Rs, dtype=complex)
    errors = [_error(lambda: _solve_per_row(Phis, R, sparsity)) for R in Rs]
    for k, R in enumerate(Rs):
        if errors[k] is None:
            got = solve_delay_realization(Phis, R[None], sparsity=sparsity)[0]
            assert np.array_equal(got, _solve_per_row(Phis, R, sparsity)), f"target {k}"
        else:
            got = _error(lambda: solve_delay_realization(Phis, R[None], sparsity=sparsity))
            assert _residual_free(got) == _residual_free(f"target 0: {errors[k]}")
    first = next((k for k, e in enumerate(errors) if e is not None), None)
    if first is None:
        got = solve_delay_realization(Phis, Rs, sparsity=sparsity)
        ref = np.array([_solve_per_row(Phis, R, sparsity) for R in Rs])
        assert got.shape == (len(Rs), len(delays), frame.op.n, frame.op.n)
        assert np.array_equal(got, ref)
        if sparsity is None:
            assert np.array_equal(got, _realize_slots_reference(Phis, Rs))
    else:
        got = _error(lambda: solve_delay_realization(Phis, Rs, sparsity=sparsity))
        assert _residual_free(got) == _residual_free(f"target {first}: {errors[first]}")
    return errors


def _assert_assembly_matches_references(frame, rep, assembly, sparsity=None):
    """Both realizations of an assembly agree with the references on the raw
    and projected stacks, and the family's coefficients are the averaged
    per-row realizations of the selected projected slots."""
    delays = assembly.family.delays
    Phis = [frame.Phi_at(-r) for r in delays]
    R, Rbars, _, _ = slot_stacks(frame, rep, orbit_geometry(frame.B))
    for Rs in (R, Rbars):
        for masks in (None,) if sparsity is None else (None, sparsity):
            _assert_realization_matches_references(frame, delays, Rs, masks)
    for row, m in zip(assembly.family.directions, assembly.theta.selected_rows):
        ref = equivariant_average(rep, rep, _solve_per_row(Phis, Rbars[m], sparsity))
        assert np.array_equal(np.array(row), ref), f"slot {m}"


class TestStackedSolvesMatchPerSystemSolves:
    def test_presets(self, simple_case, double_case):
        for r in (simple_case, double_case):
            _assert_same_as_per_system_solves(r.frame, assembly=r.assembly, rep=r.rep)
            _assert_assembly_matches_references(r.frame, r.rep, r.assembly, d3.structure_masks())

    def test_random_masks(self, simple_case, double_case, rng):
        # random per-lag masks with one row empty at every lag; targets that
        # the masks realize (that row zero) and generic ones, alone and mixed
        outcomes = set()
        for r in (simple_case, double_case):
            frame, delays = r.frame, r.assembly.family.delays
            n, c, J = frame.op.n, frame.c, len(delays)
            Phis = [frame.Phi_at(-x) for x in delays]
            for _ in range(8):
                masks = rng.random((J, n, n)) < 0.6
                masks[:, int(rng.integers(n))] = False
                A = random_complex(rng, 3, J, n, n) * masks
                realizable = sum(A[:, j] @ P for j, P in enumerate(Phis))
                generic = random_complex(rng, 3, n, c)
                for Rs in (realizable, generic, np.concatenate([realizable, generic])):
                    errors = _assert_realization_matches_references(frame, delays, Rs,
                                                                    list(masks))
                    outcomes.update(e.split(" row")[0] if e else "solved" for e in errors)
        assert outcomes == {"solved", "sparsity mask leaves", "sparsity mask infeasible:"}

    @pytest.mark.parametrize("case, index", [
        (case, i) for case in ("simple", "double")
        for i in range(len(FIXTURE_POINTS[case]["points"]))])
    def test_fixture_point(self, case, index):
        entry = FIXTURE_POINTS[case]
        point = d3.DoubleHopfPoint(factor=entry["factor"], beta=entry["beta"],
                                   tau_n=entry["tau_n"], **entry["points"][index])
        r = d3.run_case(case, point)
        _assert_same_as_per_system_solves(r.frame, assembly=r.assembly, rep=r.rep)
        _assert_assembly_matches_references(r.frame, r.rep, r.assembly, d3.structure_masks())

    @pytest.mark.parametrize("n", range(3, 25))
    def test_ring_ladder(self, n):
        rep, frame, assembly = _ring_case(n)
        ver = assembly.versality
        assert abs(ver.codimension_formula - ver.codimension) < 1e-12
        _assert_same_as_per_system_solves(frame, assembly=assembly, rep=rep)
        _assert_assembly_matches_references(frame, rep, assembly)

    @staticmethod
    def _random_frame(rng, n, sizes):
        """A hand-built frame over dense random data: eigenvalue k repeated
        ``sizes[k]`` times (at most n, so each block's Psi(0) rows are
        independent), dense psi and phi directions, a dense operator."""
        def dense(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lams = np.repeat(dense(len(sizes)), sizes)
        rng.shuffle(lams)
        return SpectralFrame(
            op=DelayOperator(n=n, terms=((0.0, dense(n, n)),)), lambdas=tuple(lams),
            phi=np.array([dense(n) for _ in lams]), psi=np.array([dense(n) for _ in lams]))

    def test_random_dense(self, rng):
        # c <= 8, the range of every pinned artifact (test_large_basis_agrees_to_rounding)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            sizes = rng.integers(1, n + 1, int(rng.integers(1, 4)))
            while sizes.sum() > 8:
                sizes = sizes[:-1]
            frame = self._random_frame(rng, n, sizes)
            c = frame.c
            shape = (int(rng.integers(1, 2 * c + 1)), c, c)
            directions = list(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            _assert_same_as_per_system_solves(frame, directions)

    def test_random_dense_large_blocks(self, rng):
        for n, sizes in [(12, [12]), (24, [3, 8, 1])]:
            frame = self._random_frame(rng, n, sizes)
            geometry = orbit_geometry(frame.B)
            for m, (R, R_ref) in enumerate(zip(build_R_matrices(frame, geometry),
                                               _build_R_per_slot(frame, geometry))):
                assert _same_bits(R, R_ref), f"build_R_matrices: slot {m} differs"

    def test_large_basis_agrees_to_rounding(self, rng):
        # From c = 9 (an 81 x 81 basis) on, the multi-right-hand-side path of
        # the LAPACK build may take other BLAS kernels than single solves:
        # Theta then agrees with one solve per direction only to rounding
        for c in (9, 12):
            lams = rng.standard_normal(c) + 1j * rng.standard_normal(c)
            geometry = orbit_geometry(np.diag(lams))
            directions = list(rng.standard_normal((9, c, c)) + 1j * rng.standard_normal((9, c, c)))
            report = theta_extract(geometry, directions)
            theta, residuals, selected = _theta_extract_per_direction(geometry, directions)
            assert np.max(np.abs(report.theta - theta)) <= 1e-13 * np.max(np.abs(theta))
            assert max(report.residuals) <= 1e-13 and report.selected_rows == selected

    def test_no_directions(self, simple_case):
        _assert_same_as_per_system_solves(simple_case.frame, [])
        geometry = orbit_geometry(simple_case.frame.B)
        report = theta_extract(geometry, [])
        assert report.theta.shape == (0, geometry.delta)
        assert report.residuals == () and report.selected_rows == ()


def _center_directions_loop(psi, A, Phis):
    """Reference: one sum of ``Psi(0) A_j Phi(-r_j)`` per parameter row of the
    ``(p, J, n, n)`` coefficients A (the implementation before
    ``delays.lag_sum``)."""
    return np.array([sum(psi @ Aj @ P for Aj, P in zip(row, Phis))
                     for row in A]).reshape(len(A), len(psi), len(psi))


class TestLagSumOracle:
    """``lag_sum(psi @ A, Phis)``, the center directions of the projection
    identity and of ``verify``, takes the bits of the per-row loop it
    replaces, on the lag basis as one array (the build) or as a list (``verify``)."""

    @staticmethod
    def _assert_same(psi, A, Phis):
        for lags in (np.asarray(Phis), list(Phis)):
            assert _same_bits(lag_sum(psi @ A, lags), _center_directions_loop(psi, A, lags))

    def _assert_case(self, r):
        # the family's coefficients (verify) and the averaged raw realization
        # of every slot (the projection identity)
        frame, rep, family = r.frame, r.rep, r.assembly.family
        Phis = lag_basis(frame, family.delays)[0]
        A_raw = solve_delay_realization(Phis, slot_stacks(frame, rep, orbit_geometry(frame.B))[0])
        for A in (family.directions, equivariant_average(rep, rep, A_raw)):
            self._assert_same(frame.psi, A, Phis)

    def test_presets(self, simple_case, double_case):
        for r in (simple_case, double_case):
            self._assert_case(r)

    @pytest.mark.parametrize("case, index", [
        (case, i) for case in ("simple", "double")
        for i in range(len(FIXTURE_POINTS[case]["points"]))])
    def test_fixture_point(self, case, index):
        entry = FIXTURE_POINTS[case]
        self._assert_case(d3.run_case(case, d3.DoubleHopfPoint(
            factor=entry["factor"], beta=entry["beta"], tau_n=entry["tau_n"],
            **entry["points"][index])))

    def test_random_stacks(self, rng):
        for _ in range(40):
            n, c, J, p = (int(rng.integers(1, k)) for k in (7, 9, 5, 7))
            self._assert_same(random_complex(rng, c, n), random_complex(rng, p, J, n, n),
                              random_complex(rng, J, n, c))


class TestExponentialDelayMatrix:
    def test_equal_delays_singular(self):
        lams = [1j, -1j, 2j, -2j]
        M = exponential_delay_matrix(lams, [0.0, 1.0, 1.0, 3.0])
        assert abs(np.linalg.det(M)) < 1e-12

    def test_equal_frequencies_singular(self):
        M = exponential_delay_matrix([1j, -1j, 1j, -1j], [0.0, 1.0, 2.0, 3.0])
        assert abs(np.linalg.det(M)) < 1e-12

    def test_generic_delays_well_conditioned(self):
        M = exponential_delay_matrix([1j, -1j, 2j, -2j], [0.0, 1.0, 2.0, 3.0])
        assert scaled_det(M) > 1e-6

    def test_unit_target_solve(self):
        # distinct frequencies 1, 2 and integer lags: solve M s = e_1
        M = exponential_delay_matrix([1j, -1j, 2j, -2j], [0.0, 1.0, 2.0, 3.0])
        s = np.linalg.solve(M, np.array([1.0, 0, 0, 0]))
        assert np.linalg.norm(M @ s - np.array([1.0, 0, 0, 0])) < 1e-10


class TestSolveDelayRealization:
    def test_random_target(self, simple_case, rng):
        frame = simple_case.frame
        delays = simple_case.assembly.family.delays
        R = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        (As,) = solve_delay_realization(lag_basis(frame, delays)[0], R[None])
        recon = sum(A @ frame.Phi_at(-r) for A, r in zip(As, delays))
        assert np.max(np.abs(recon - R)) < 1e-9

    def test_coincident_delays_rejected(self, simple_case, simple_point):
        # a lag that repeats another within LAG_MATCH_TOL is refused by name,
        # whatever the rank of the stacked basis
        frame = simple_case.frame
        tau_s = simple_point.tau_s
        for lags in ([0.0, tau_s, tau_s, 3.0], [0.0, tau_s, tau_s * (1 + 1e-15), 3.0]):
            with pytest.raises(EqunfoldError, match=r"^lags\[2\] = \S+ repeats an earlier lag$"):
                lag_basis(frame, lags)
        assert lag_basis(frame, [0.0, tau_s, tau_s * (1 + 1e-12), 3.0])[1] < 4

    def test_infeasible_mask_rejected(self, double_case, double_slots):
        # a raw single-column slot cannot be realized under the structural
        # masks in the double case: eight equations, six unknowns per row
        frame = double_case.frame
        Phis = lag_basis(frame, double_case.assembly.family.delays)[0]
        R = double_slots[0][:1]
        with pytest.raises(EqunfoldError, match="^target 0: sparsity mask infeasible"):
            solve_delay_realization(Phis, R, sparsity=d3.structure_masks())

    def test_empty_row(self, simple_case, rng):
        # row 1 is masked out at every lag: a zero target row gives a zero
        # coefficient row, a nonzero one is refused, naming its target
        frame, delays = simple_case.frame, simple_case.assembly.family.delays
        Phis = lag_basis(frame, delays)[0]
        masks = [np.ones((3, 3), dtype=bool) for _ in delays]
        for m in masks:
            m[1] = False
        A = random_complex(rng, len(delays), 3, 3) * np.array(masks)
        R = sum(Aj @ frame.Phi_at(-r) for Aj, r in zip(A, delays))
        assert not np.any(R[1])
        (As,) = solve_delay_realization(Phis, R[None], sparsity=masks)
        assert not np.any(As[:, 1]) and np.all(As[:, [0, 2]] != 0)
        bad = R.copy()
        bad[1, 2] = 1e-3
        with pytest.raises(EqunfoldError,
                           match=r"^target 1: sparsity mask leaves row 1 empty but target is "
                                 r"nonzero$"):
            solve_delay_realization(Phis, np.array([R, bad]), sparsity=masks)

    def test_target_must_be_a_stack(self, simple_case):
        Phis = lag_basis(simple_case.frame, simple_case.assembly.family.delays)[0]
        for R in (np.zeros((3, 4)), np.zeros((1, 3, 3))):
            with pytest.raises(EqunfoldError, match=r"^target shape .* != \(p, 3, 4\)$"):
                solve_delay_realization(Phis, R)

    def test_lag_outside_horizon_rejected(self, simple_case):
        frame = simple_case.frame
        tau = frame.op.tau
        for k, lags in ((3, [0.0, 1.0, 2.0, tau + 1.0]), (1, [0.0, -1e-300, 2.0, 3.0])):
            with pytest.raises(EqunfoldError,
                               match=rf"^lags\[{k}\] = \S+ lies outside the history horizon"):
                lag_basis(frame, lags)
        # a lag that is one lag with tau is inside, relative to tau
        assert lag_basis(frame, [0.0, 1.0, 2.0, np.nextafter(tau, np.inf)])[1] == 4
        with pytest.raises(EqunfoldError, match=r"^lags\[1\] = 1.5e-12 lies outside"):
            check_lags([0.0, 1.5e-12], 1e-12)


class TestAssembledPipeline:
    def test_coinciding_lags_name_the_slots(self, simple_case, simple_point):
        p = simple_point
        with pytest.raises(EqunfoldError, match=r"^slots 0-3: lags\[2\] = \S+ repeats an earlier"):
            assemble_gamma_unfolding(simple_case.frame, simple_case.rep,
                                     [0.0, p.tau_s, p.tau_s, p.tau_n])
        with pytest.raises(EqunfoldError, match=r"^slots 0-3: stacked basis .* rank \d < 4; "
                                                 r"the lags are too few"):
            assemble_gamma_unfolding(simple_case.frame, simple_case.rep, [0.0])

    def test_projection_identity_failure_names_the_slot(self, double_case):
        # a frame whose induced action is trivial although rho is not: the
        # averaged coefficients no longer land on the averaged slot
        frame = double_case.frame
        trivial = Representation(frame.G.group, np.broadcast_to(
            np.eye(frame.c), frame.G.matrices.shape))
        with pytest.raises(EqunfoldError,
                           match=r"^directions.projection_identity \(slot \d+\): residual"):
            assemble_gamma_unfolding(frame._replace(G=trivial), double_case.rep,
                                     double_case.assembly.family.delays,
                                     sparsity=d3.structure_masks())

    def test_tangent_space_projection_identity(self, double_case, rng):
        # the commutant projection maps the full tangent space onto the
        # equivariant one, spanned by the images [B, K] of the commutant:
        # mutual containment via projection residuals
        frame = double_case.frame
        B = frame.B
        geo = orbit_geometry(B)
        T = geo.basis[:, :geo.tangent_dim]
        TG = np.column_stack([(B @ K - K @ B).reshape(-1) for K in commutant_basis(frame.G)])
        assert rank(TG, scale=np.linalg.norm(B, 2)) == \
            verify_gamma_versality(geo, frame.G, []).tangent_dim == 12
        # project full tangent basis, check containment in equivariant tangent
        for k in range(T.shape[1]):
            D = equivariant_average(frame.G, frame.G, T[:, k].reshape(8, 8))
            v = D.reshape(-1)
            resid = v - TG @ np.linalg.lstsq(TG, v, rcond=None)[0]
            assert np.linalg.norm(resid) < 1e-10
        # and conversely the equivariant tangent is fixed by the projection
        for k in range(TG.shape[1]):
            D = TG[:, k].reshape(8, 8)
            assert np.max(np.abs(equivariant_average(frame.G, frame.G, D) - D)) < 1e-10

    def test_center_projection_commutes_with_reduction(self, double_case, rng):
        # for equivariant A the center direction of pi(A) equals the
        # commutant projection of the center direction of A
        frame = double_case.frame
        rep = double_case.rep
        tau_star = double_case.assembly.family.delays[2]
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = equivariant_average(frame.G, frame.G,
                                  frame.psi @ A @ frame.Phi_at(-tau_star))
        rhs = frame.psi @ equivariant_average(rep, rep, A) @ frame.Phi_at(-tau_star)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_reconstruction_and_equivariance(self, simple_case, simple_slots):
        asm = simple_case.assembly
        frame = simple_case.frame
        fam = asm.family
        residual = BY_NAME["family.coefficient_equivariance"].residual
        assert residual(simple_case.rep, fam.directions) < 1e-10
        for m, slot in enumerate(asm.theta.selected_rows):
            recon = sum(A @ frame.Phi_at(-r)
                        for A, r in zip(fam.directions[m], fam.delays))
            assert np.max(np.abs(recon - simple_slots[1][slot])) < 1e-9

    def test_direct_sums(self, double_case):
        frame = double_case.frame
        geo = orbit_geometry(frame.B)
        assert np.linalg.matrix_rank(geo.basis) == frame.c ** 2
        ver = double_case.assembly.versality
        assert ver.achieved_rank == ver.commutant_dim

    def test_family_as_operator(self, simple_case):
        # alpha = 0 is the base operator, exactly (adding 0 A turns the base's
        # -0.0 entries into +0.0): the lag 24/7 that only the family has is
        # dropped there, and kept at a nonzero alpha
        fam = simple_case.assembly.family
        base_lags = [r for r, _ in fam.base.terms]
        assert 24 / 7 in fam.delays and 24 / 7 not in base_lags
        op0 = fam.as_operator(np.zeros(fam.n_parameters))
        assert [r for r, _ in op0.terms] == base_lags
        assert all(np.array_equal(A0, A) for (_, A0), (_, A) in zip(op0.terms, fam.base.terms))
        op1 = fam.as_operator([1e-3, 0, 0, 0])
        assert [r for r, _ in op1.terms] == sorted({*fam.delays, *base_lags})
        with pytest.raises(EqunfoldError, match=r"^expected 4 parameters$"):
            fam.as_operator(np.zeros(3))

    def test_family_operator_is_linear_in_alpha(self, simple_case, rng):
        fam = simple_case.assembly.family
        base = dict(fam.base.terms)
        lags = sorted({*fam.delays, *base})

        def shift(alpha):
            """L(alpha) - L(0), one (n, n) block per lag."""
            terms = dict(fam.as_operator(alpha).terms)
            return np.array([terms[r] - base.get(r, 0.0) for r in lags])

        for _ in range(3):
            a, b = random_complex(rng, 2, fam.n_parameters)
            lhs = shift(a + b)
            assert np.abs(lhs - shift(a) - shift(b)).max() <= 1e-15 * np.abs(lhs).max()

    def test_family_lag_within_match_tol_merges_into_the_base_lag(self, simple_case):
        fam = simple_case.assembly.family
        delays = list(fam.delays)
        assert delays[1] in dict(fam.base.terms)
        delays[1] += 0.5 * LAG_MATCH_TOL
        near = UnfoldingFamily(base=fam.base, delays=delays, directions=fam.directions,
                               names=fam.names)
        assert near.delays[1] != fam.delays[1]
        alpha = np.ones(fam.n_parameters)
        merged, exact = near.as_operator(alpha), fam.as_operator(alpha)
        assert [r for r, _ in merged.terms] == [r for r, _ in exact.terms]
        assert all(same_bits(A, B) for (_, A), (_, B) in zip(merged.terms, exact.terms))

    def test_family_lag_merges_with_base_lag_at_any_magnitude(self):
        base = DelayOperator(n=1, terms=((0.0, [[-1.0]]), (1e3, [[0.5]])))
        fam = UnfoldingFamily(base=base, delays=(np.nextafter(1e3, 2e3),),
                              directions=[[[[1.0]]]], names=("a",))
        op = fam.as_operator([1.0])
        assert [r for r, _ in op.terms] == [0.0, 1e3]
        assert op.terms[1][1][0, 0] == 1.5

    def test_coefficient_equivariance_is_relative_to_its_size(self):
        rep = d3.triangle_rep()
        A = 1e6 * (np.eye(3) + np.ones((3, 3)))     # commutes with every permutation
        A[0, 0] += 1e-6                             # 1e-12 of |A| off
        invariants.check("family.coefficient_equivariance", rep, np.array([[A]]))
        A[0, 0] += 1e-3                             # 1e-9 of |A| off
        with pytest.raises(EqunfoldError, match="residual"):
            invariants.check("family.coefficient_equivariance", rep, np.array([[A]]))


class TestRealify:
    def test_real_directions_unchanged(self, simple_case):
        fam = simple_case.assembly.family
        # rows 0 and 2 are not conjugates of one another, so their real
        # parts stay independent
        real_dirs = tuple(tuple(A.real.astype(complex) for A in row)
                          for row in (fam.directions[0], fam.directions[2]))
        f2 = UnfoldingFamily(base=fam.base, delays=fam.delays,
                             directions=real_dirs, names=("p1", "p2"))
        out, _ = realify(f2)
        assert out.names == ("p1", "p2")
        for row_in, row_out in zip(f2.directions, out.directions):
            for A, B in zip(row_in, row_out):
                assert np.max(np.abs(A - B)) == 0.0

    def test_unpaired_direction_rejected(self, simple_case):
        fam = simple_case.assembly.family
        f2 = UnfoldingFamily(base=fam.base, delays=fam.delays,
                             directions=(fam.directions[0],), names=("p1",))
        with pytest.raises(EqunfoldError, match="conjugate"):
            realify(f2)

    def test_simple_case_reparametrization(self, simple_case):
        real_family, E = realify(simple_case.assembly.family)
        assert E.shape == (4, 4)
        s = np.linalg.svd(E, compute_uv=False)
        assert s[-1] > 1e-8 * s[0]
        # all real-family coefficients are real matrices
        for row in real_family.directions:
            for A in row:
                assert np.max(np.abs(A.imag)) < 1e-12


class TestVerifyGammaVersality:
    def test_simple_case_passes(self, simple_case, simple_slots):
        asm = simple_case.assembly
        frame = simple_case.frame
        sel = [simple_slots[2][m] for m in asm.theta.selected_rows]
        rep = verify_gamma_versality(orbit_geometry(frame.B), frame.G, sel)
        assert rep.versal and rep.mini_versal
        assert (rep.tangent_dim, rep.n_directions, rep.commutant_dim) == (12, 4, 16)

    def test_double_case_passes(self, double_case, double_slots):
        asm = double_case.assembly
        frame = double_case.frame
        sel = [double_slots[2][m] for m in asm.theta.selected_rows]
        rep = verify_gamma_versality(orbit_geometry(frame.B), frame.G, sel)
        assert rep.versal and rep.mini_versal
        assert (rep.tangent_dim, rep.n_directions, rep.commutant_dim) == (12, 4, 16)

    def test_tangent_directions_fail_with_deficiency(self, simple_case):
        frame = simple_case.frame
        comm = commutant_basis(frame.G)
        dirs = []
        for K in comm:
            C = frame.B @ K - K @ frame.B
            if np.max(np.abs(C)) > 1e-8:
                dirs.append(C)
            if len(dirs) == 4:
                break
        report = verify_gamma_versality(orbit_geometry(frame.B), frame.G, dirs)
        assert not report.versal
        assert report.commutant_dim - report.achieved_rank == 4


class TestSelectDelays:
    def test_extends_native_lags(self, simple_case):
        frame = simple_case.frame
        lags = select_delays(frame)
        assert 0.0 in lags
        assert len(lags) >= 4
        stacked = np.vstack([frame.Phi_at(-r) for r in lags])
        assert np.linalg.matrix_rank(stacked) == frame.c
