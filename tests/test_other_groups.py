"""The pipeline on symmetry groups other than the worked example's.

A swap-symmetric pair of cells (order-2 group, trivial induced action) and
a one-directional ring of three cells (order-3 rotation group, complex
characters, zero equivariant tangent space) both run end to end, which
pins down that nothing in the machinery is specific to the 6-element
triangle group.
"""

import numpy as np
import pytest

from equnfold.delays import DelayOperator, check_equivariance
from equnfold.frames import eigenbasis, find_root, induce_representation
from equnfold.groups import close_generators
from equnfold.jsonio import build_artifact
from equnfold.unfolding import (assemble_gamma_unfolding, realify, select_delays,
                                verify_gamma_versality)
from equnfold.verify import verify_artifact

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
SHIFT = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.fixture(scope="module")
def swap_pair():
    """Two mutually coupled cells; coupling gain tuned near a Hopf root."""
    op = DelayOperator(n=2, terms=((0.0, -np.eye(2)), (1.0, -2.2618363 * SWAP)))
    rep = close_generators([SWAP])
    root = find_root(op, 2.03j).root
    frame = eigenbasis(op, [root, root.conjugate()])
    frame = induce_representation(frame, rep)
    return op, rep, frame


@pytest.fixture(scope="module")
def rotation_ring():
    """One-directional three-cell ring: rotation symmetry only."""
    op = DelayOperator(n=3, terms=((0.0, -np.eye(3)), (1.0, -2.0 * SHIFT)))
    rep = close_generators([SHIFT])
    assert rep.group.order == 3
    # a root of the omega-character factor: lam + 1 + 2 omega exp(-lam) = 0
    om = np.exp(2j * np.pi / 3)
    val = lambda lam: lam + 1.0 - (-2.0) * om * np.exp(-lam)
    root = None
    for seed in (1j, 2j, 1 + 2j, 0.5 + 1j):
        res = find_root(op, seed)
        if abs(val(res.root)) < 1e-9:
            root = res.root
            break
    assert root is not None, "no root of the rotation-character factor found"
    frame = eigenbasis(op, [root, root.conjugate()])
    frame = induce_representation(frame, rep)
    return op, rep, frame


class TestSwapPair:
    def test_trivial_center_action(self, swap_pair):
        op, rep, frame = swap_pair
        assert frame.c == 2
        assert check_equivariance(op, rep) == 0.0
        for g in rep.group.elements():
            assert np.max(np.abs(frame.G.matrices[g] - np.eye(2))) < 1e-10

    def test_mini_versal_pair(self, swap_pair):
        op, rep, frame = swap_pair
        delays = select_delays(frame)
        asm = assemble_gamma_unfolding(frame, rep, delays)
        assert asm.versality.mini_versal
        assert (asm.versality.tangent_dim, asm.versality.n_directions,
                asm.versality.commutant_dim) == (2, 2, 4)
        real_fam, E = realify(asm.family)
        assert real_fam.n_parameters == 2
        assert np.linalg.matrix_rank(E) == 2

    def test_artifact_verifies(self, swap_pair):
        op, rep, frame = swap_pair
        asm = assemble_gamma_unfolding(frame, rep, select_delays(frame))
        doc = build_artifact(op, rep, frame, asm)
        report = verify_artifact(doc)
        assert report.ok, [c.name for c in report.failed()]


class TestRotationRing:
    def test_complex_characters(self, rotation_ring):
        op, rep, frame = rotation_ring
        assert frame.c == 2
        gam = rep.group.generator_indices[0]
        G = frame.G.matrices[gam]
        om = np.exp(2j * np.pi / 3)
        assert np.max(np.abs(G - np.diag([om, om.conjugate()]))) < 1e-8

    def test_zero_equivariant_tangent(self, rotation_ring):
        # B is diagonal and the commutant is diagonal, so the equivariant
        # orbit is a point: the whole 2-dimensional commutant must be
        # unfolded by parameters
        op, rep, frame = rotation_ring
        ver = verify_gamma_versality(frame.B, frame.G, [])
        assert ver.commutant_dim == 2
        assert ver.tangent_dim == 0
        assert ver.codimension == 2

    def test_mini_versal_ring(self, rotation_ring):
        op, rep, frame = rotation_ring
        delays = select_delays(frame)
        asm = assemble_gamma_unfolding(frame, rep, delays)
        assert asm.versality.mini_versal
        assert asm.versality.n_directions == 2
        fam = asm.family
        # coefficients commute with the shift: circulant structure
        for row in fam.directions:
            for A in row:
                assert np.max(np.abs(SHIFT @ A - A @ SHIFT)) < 1e-10
        real_fam, E = realify(fam)
        assert real_fam.n_parameters == 2
        assert np.linalg.matrix_rank(E) == 2

    def test_artifact_verifies(self, rotation_ring):
        op, rep, frame = rotation_ring
        asm = assemble_gamma_unfolding(frame, rep, select_delays(frame))
        doc = build_artifact(op, rep, frame, asm)
        report = verify_artifact(doc)
        assert report.ok, [c.name for c in report.failed()]
