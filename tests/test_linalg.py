import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equnfold
from equnfold._linalg import RANK_RCOND, null_basis, rank, scaled, svd_rank


def _inline_tolerances(source):
    """(line, value) of every float literal with 0 < |x| <= 1e-3 outside an
    UPPERCASE module-level assignment; docstrings are strings, never floats."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if targets and all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
            named.update(map(id, ast.walk(node)))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) <= 1e-3 and id(node) not in named]


def test_every_tolerance_is_a_named_constant():
    # one tolerance policy: a bound is defined once, by name, and read by name
    package = pathlib.Path(equnfold.__file__).parent
    found = {path.name: _inline_tolerances(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_inline_tolerance_finder():
    source = ('"""Docstring with 1e-9."""\nTOL = 1e-9\n_PAD = -2e-4\nlower = 1e-6\n'
              'def f(x, tol=1e-12):\n    return x < 1e-3 * 1e-2 or x > 0.5\n')
    assert _inline_tolerances(source) == [(4, 1e-6), (5, 1e-12), (6, 1e-3)]


def test_scaled_bound():
    assert scaled(1e-9, 0.25) == 1e-9                  # absolute below magnitude 1
    assert scaled(1e-9, 1e6) == 1e-9 * 1e6             # relative above it
    assert scaled(1e-9, np.nan) == 1e-9                # NaN counts as 1, as in max(1, nan)
    assert scaled(1e-9, np.array([0.0, 4.0])).tolist() == [1e-9, 4e-9]


@pytest.mark.parametrize("A, scale, expected", [
    (np.zeros((3, 0)), 0.0, 0),                        # empty
    (np.zeros((0, 0)), 1.0, 0),
    (np.zeros((3, 3)), 0.0, 0),                        # all zero, no cutoff
    (np.diag([1.0, 1e-9]), 0.0, 1),                    # at the cutoff: strict >
    (np.diag([1.0, 2e-9]), 0.0, 2),                    # just above it
    (np.diag([1e-10, 1e-20]), 0.0, 1),                 # relative to s_1 alone ...
    (np.diag([1e-10, 1e-20]), 1.0, 0),                 # ... or to the larger scale
    (np.diag([1.0, 2e-9]), 1e-3, 2),                   # a smaller scale changes nothing
    (np.diag([4.0, 3e-9, 0.0]), 2.0, 1),               # cutoff rcond * max(2, 4)
])
def test_rank_rule(A, scale, expected):
    assert rank(A, scale=scale) == expected


def test_stack_is_ranked_per_matrix():
    stack = np.array([np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([1.0, 1e-9])])
    r = rank(stack)
    assert r.tolist() == [2, 1, 0, 1]
    assert rank(stack, scale=1e12).tolist() == [0, 0, 0, 0]
    assert rank(np.zeros((4, 2, 0))).tolist() == [0, 0, 0, 0]


def test_svd_rank_splits_range_and_null_space():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    U, Vh, r = svd_rank(A)
    assert r == 1 and U.shape == (2, 2) and Vh.shape == (3, 3)
    assert np.max(np.abs(A @ Vh[r:].conj().T)) < 1e-14
    N = null_basis(A)
    assert N.shape == (3, 2)


def _unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


@st.composite
def ranked_matrices(draw):
    """A = P diag(s) Q with a known rank r: nonzero singular values in
    [1e-5, 1] * big, the rest zero or at most 1e-16 * big, and a scale of at
    most 1e3 * big, so every cutoff lies far from every singular value."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    big = 10.0 ** draw(st.integers(-8, 8))
    logs = draw(st.lists(st.floats(-5, 0), min_size=r, max_size=r))
    noise = draw(st.lists(st.sampled_from([0.0, 1e-17, 1e-16]),
                          min_size=min(m, n) - r, max_size=min(m, n) - r))
    # with no nonzero singular value only a scale tells noise from rank
    scale = big * draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3] if r else [1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = big * np.array([10.0 ** x for x in logs] + noise)
    S = np.zeros((m, n))
    S[np.arange(len(s)), np.arange(len(s))] = s
    return _unitary(rng, m) @ S @ _unitary(rng, n), scale, r, rng


@settings(max_examples=80, deadline=None)
@given(ranked_matrices(), st.floats(-6, 6))
def test_rank_is_invariant_under_scaling_and_unitaries(case, log_s):
    A, scale, r, rng = case
    s = 10.0 ** log_s
    assert rank(A, scale=scale) == r
    assert rank(s * A, scale=s * scale) == r
    assert rank(_unitary(rng, A.shape[0]) @ A @ _unitary(rng, A.shape[1]), scale=scale) == r


@settings(max_examples=80, deadline=None)
@given(ranked_matrices())
def test_null_basis_is_orthonormal_and_annihilated(case):
    A, scale, r, _ = case
    N = null_basis(A, scale=scale)
    n = A.shape[1]
    assert N.shape == (n, n - r)
    assert np.max(np.abs(N.conj().T @ N - np.eye(n - r)), initial=0.0) < 1e-12
    if n > r:
        s1 = np.linalg.norm(A, 2)
        assert np.linalg.norm(A @ N, 2) <= RANK_RCOND * max(scale, s1) + 1e-13 * s1
