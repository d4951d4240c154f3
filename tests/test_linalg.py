import ast
import importlib
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equnfold
from equnfold import d3, invariants
from equnfold._linalg import (EIG_MATCH_TOL, RANK_RCOND, REP_TOL, ad_matrix, eigen_groups, lstsq,
                              null_basis, rank, scaled, svd_rank)
from equnfold.errors import EqunfoldError
from equnfold.invariants import INVARIANTS
from equnfold.jsonio import build_artifact, canonical_json
from equnfold.verify import verify_artifact

from conftest import random_complex, same_bits


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


# the numpy.linalg routines that cut a rank, or read one off singular values
RANK_ROUTINES = ("lstsq", "svd", "qr", "matrix_rank", "pinv")


def _rank_routines(source):
    """Sorted (line, name) of every use of a routine of ``RANK_ROUTINES``: an
    attribute of that name (``np.linalg.svd``) or a name imported from a
    ``linalg`` package (``from numpy.linalg import pinv``)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in RANK_ROUTINES:
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") \
                and not node.level:
            hits += [(node.lineno, a.name) for a in node.names if a.name in RANK_ROUTINES]
    return sorted(hits)


def test_every_rank_cut_is_in_linalg():
    # one rank rule: outside _linalg, a rank, a null space or a least-squares
    # solve goes through its helpers, which cut by _linalg._count
    package = pathlib.Path(equnfold.__file__).parent
    found = {path.name: _rank_routines(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "_linalg.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert {name for _, name in _rank_routines((package / "_linalg.py").read_text())} == \
        {"lstsq", "svd", "qr"}


def test_rank_routine_finder():
    source = ("import numpy as np\nfrom numpy.linalg import pinv, norm\n"
              "x = np.linalg.lstsq(a, b)\ny = la.matrix_rank(a)\nz = svd_rank(a)\n"
              "s = np.linalg.svd\nfrom ._linalg import lstsq\n")
    assert _rank_routines(source) == [(2, "pinv"), (3, "lstsq"), (4, "matrix_rank"), (6, "svd")]


PACKAGE = pathlib.Path(equnfold.__file__).parent
README = PACKAGE.parents[1] / "README.md"
# the names of the module-level floats the README table must list
TOLERANCE_SUFFIXES = ("_TOL", "_RCOND", "_GAP", "_FLOOR", "_PAD", "_STEP", "_RADIUS")


def _readme_constants():
    """``(module, NAME)`` of every row of the README "Tolerances" constants
    table; a row ``module.A``, ``B`` names B in that module too."""
    section = README.read_text().split("\n## Tolerances\n")[1].split("\n## ")[0]
    table = section.split("\n| constant |")[1].split("\n\n")[0]
    rows = set()
    for line in table.splitlines()[2:]:        # the rest of the header, then its rule
        module = None
        for name in re.findall(r"`([\w.]+)`", line.split("|")[1]):
            if "." in name:
                module, name = name.split(".")
            rows.add((module, name))
    return rows


def _module_floats(tree):
    """The names of the module-level assignments of a float literal."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            names += [t.id for t in node.targets if type(value) is float]
    return names


def test_readme_tolerance_table_names_float_constants():
    rows = _readme_constants()
    assert len(rows) > 20
    missing = [f"{module}.{name}" for module, name in sorted(rows)
               if type(getattr(importlib.import_module(f"equnfold.{module}"), name, None))
               is not float]
    assert missing == []


def test_every_tolerance_constant_has_a_readme_row():
    rows = _readme_constants()
    defined = {(path.stem, name) for path in PACKAGE.glob("*.py")
               for name in _module_floats(ast.parse(path.read_text()))}
    assert sorted(d for d in defined if d[1].endswith(TOLERANCE_SUFFIXES)
                  and d not in rows) == []


def _evaluated_by(monkeypatch):
    """``{entry name: "build" | "verify" | "both"}`` as the code has it on both
    presets: "build" when ``d3.run_case`` passes the entry to
    ``invariants.check`` (every caller goes through the module), "verify" when
    it is a line of ``verify_artifact``'s report."""
    built, lines = set(), set()
    check = invariants.check

    def recording(name, *args, **kwargs):
        built.add(name)
        return check(name, *args, **kwargs)

    for case in ("simple", "double"):
        with monkeypatch.context() as m:
            m.setattr(invariants, "check", recording)
            result = d3.run_case(case, d3.default_point(case))
        doc = json.loads(canonical_json(build_artifact(*result)))
        lines.update(c.name for c in verify_artifact(doc).checks)
    return {name: {(True, False): "build", (False, True): "verify", (True, True): "both"}
            [name in built, name in lines] for name in built | (lines & invariants.BY_NAME.keys())}


def test_readme_invariant_table_is_the_invariant_table(monkeypatch):
    # one row per entry of invariants.INVARIANTS, in its order, each with the
    # entry's base tolerance as a number and, where the row names one, as
    # that constant, and with who evaluates it as the code does
    section = README.read_text().split("\n## Tolerances\n")[1].split("\n## ")[0]
    table = section.split("\n| invariant |")[1].split("\n\n")[0]
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in table.splitlines()[2:]]
    assert [re.fullmatch(r" `([\w.]+)` ", row[0])[1] for row in rows] == \
        [inv.name for inv in INVARIANTS]
    for (name, tol, *_), inv in zip(rows, INVARIANTS):
        assert float(tol.split()[-1]) == inv.tol, name
        for constant in re.findall(r"`([\w.]+)`", tol):
            module, _, attr = constant.rpartition(".")
            value = getattr(importlib.import_module(f"equnfold.{module or 'invariants'}"), attr)
            assert value == inv.tol, name
    assert {inv.name: row[-1].strip() for row, inv in zip(rows, INVARIANTS)} == \
        _evaluated_by(monkeypatch)


@pytest.mark.parametrize("values, scale, expected", [
    ([], 0.0, []),
    ([0j, 0j, 1j], 0.0, [[0, 1], [2]]),                 # exact repeats, at scale 0 too: <=
    ([1.0, 2.0, 1.0 + 1e-10], 0.0, [[0, 2], [1]]),      # first-seen order
    ([1.0, 1.0 + 0.9e-9], 0.0, [[0, 1]]),               # within tol * max |values|
    ([1.0, 1.0 + 1.1e-9], 0.0, [[0], [1]]),             # beyond it
    ([1.0, 1.0 + 1.5e-9], 1.0, [[0, 1]]),               # within tol * (scale + max |values|)
    ([1e-9j, -1e-9j], 0.0, [[0], [1]]),                 # two roots relative to themselves ...
    ([1e-9j, -1e-9j], 3.0, [[0, 1]]),                   # ... one at the scale of Delta
    ([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9], 0.0, [[0, 1], [2]]),  # against a group's first value
])
def test_eigen_group_rule(values, scale, expected):
    assert EIG_MATCH_TOL == 1e-9
    assert eigen_groups(values, scale) == expected


# parts on either side of the bound: 0, 1 or -2.5 moved by multiples of 1e-10
_NEAR = st.builds(lambda a, k: a + k * 1e-10, st.sampled_from([0.0, 1.0, -2.5]),
                  st.integers(-30, 30))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(complex, _NEAR, _NEAR), max_size=6), st.floats(0.0, 10.0),
       st.integers(-40, 40))
def test_eigen_groups_are_covariant_under_time_rescaling(values, scale, k):
    # t -> t / s scales every root and sum ||A_k||_2 by s; s = 2^k does it exactly
    s = 2.0 ** k
    assert eigen_groups([s * v for v in values], s * scale) == eigen_groups(values, scale)


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


@pytest.mark.parametrize("A", [
    np.diag([1.0, 1e-9]), np.diag([1.0, 2e-9]), np.zeros((3, 3)),
    np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-12]]),
    np.array([[1.0, 1j], [2.0, 3.0], [0.0, 1.0]]),
])
def test_lstsq_cuts_by_the_rank_rule(A):
    # gelsd's own cut at RANK_RCOND keeps exactly the singular values that
    # the rule counts, so its solution is the one on the rule's rank
    B = np.arange(2.0 * len(A)).reshape(len(A), 2)
    x, r = lstsq(A, B)
    assert r == rank(A)
    U, Vh, _ = svd_rank(A)
    s = np.linalg.svd(A, compute_uv=False)[:r]
    assert np.allclose(x, Vh[:r].conj().T @ ((U[:, :r].conj().T @ B) / s[:, None]), atol=1e-12)


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


@pytest.mark.parametrize("which", ["simple", "double", "three_generators"])
def test_tall_null_basis_keeps_the_direct_svd_bits(which, request):
    # a tall A is ranked by its QR factor R; gesdd takes that route itself,
    # so the null rows and the rank are the direct SVD's, bit for bit (a
    # LAPACK build without this property fails here by name)
    if which == "three_generators":
        mats = d3.triangle_rep().matrices[1:4]
    else:
        G = request.getfixturevalue(f"{which}_case").frame.G
        mats = G.matrices[list(G.group.generator_indices)]
    # the stacked commutator operators of ``commutant_basis``, at its scale
    A = np.vstack([ad_matrix(R) for R in mats])
    scale = max(1.0, *(float(np.linalg.norm(R, 2)) for R in mats))
    m, n = A.shape
    assert m >= 2 * n
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(s > REP_TOL * max(scale, s[0])))
    N = null_basis(A, scale, REP_TOL)
    # d3:simple's G is the identity up to rounding: every row of Vh is null
    assert r < n and (r == 0) == (which == "simple") and N.shape == (n, n - r)
    assert same_bits(N.T, Vh[r:].conj())


def test_only_a_matrix_twice_as_tall_as_wide_is_ranked_by_its_qr_factor(monkeypatch, rng):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda A, mode: calls.append(A.shape) or qr(A, mode))
    for shape in ((6, 6), (3, 6), (11, 6), (12, 6), (13, 6), (5, 0)):
        null_basis(random_complex(rng, *shape))
    assert calls == [(12, 6), (13, 6)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
@pytest.mark.parametrize("shape", [(3, 8), (4, 4), (16, 4), (2, 3, 3)],
                         ids=["wide", "square", "tall", "stack"])
def test_non_finite_matrix_is_refused_before_lapack(monkeypatch, rng, shape, bad):
    # LAPACK on such a matrix may raise, print an illegal-value line, return
    # non-finite singular values or, for a wide complex one, not return; as a
    # right-hand side of gelsd, one inf turns every column of x to NaN.  The
    # refusal comes first, so no LAPACK routine is reached
    def unreachable(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    for name in ("svd", "lstsq", "qr"):
        monkeypatch.setattr(np.linalg, name, unreachable)
    A = random_complex(rng, *shape)
    A[..., -1, 1] = bad
    helpers = [lambda: rank(A)]
    if len(shape) == 2:
        helpers += [lambda: svd_rank(A), lambda: lstsq(A, np.ones(shape[0])),
                    lambda: lstsq(np.eye(shape[0]), A), lambda: null_basis(A)]
    for helper in helpers:
        with pytest.raises(EqunfoldError, match="non-finite entry has no numerical rank"):
            helper()


def test_overflowed_qr_factor_is_refused_before_its_svd(monkeypatch):
    # a finite tall A whose column norm exceeds the largest float has an
    # infinite R: the SVD of R is refused as the SVD of A would be
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("LAPACK reached"))
    with pytest.raises(EqunfoldError, match="non-finite entry"):
        null_basis(np.full((8, 2), 1e308 + 0j))
