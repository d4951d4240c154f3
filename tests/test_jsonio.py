import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equnfold.delays import DelayOperator
from equnfold.errors import SchemaError
from equnfold.jsonio import (MINI_FIELDS, SPAN_FIELDS, build_artifact, canonical_json,
                             config_from_doc, decode_complex, encode_complex, frame_from_doc,
                             frame_to_doc, items, model_from_doc, model_to_doc, pair_complex,
                             parse_artifact, rep_from_doc, rep_to_doc)
from equnfold.unfolding import unfold

from conftest import random_complex, same_bits
from test_cli import FIXTURES


class TestValueCodecs:
    def test_matrix_roundtrip(self, rng):
        M = random_complex(rng, 3, 4)
        assert np.array_equal(decode_complex(encode_complex(M), "matrix", 2), M)

    def test_malformed_pair_rejected(self):
        with pytest.raises(SchemaError):
            decode_complex([[[1.0, 2.0, 3.0]]], "matrix", 2)


class TestModelCodec:
    def test_roundtrip(self, rng):
        op = DelayOperator(n=2, terms=((0.0, random_complex(rng, 2, 2)),
                                       (1.5, random_complex(rng, 2, 2))))
        doc = model_to_doc(op)
        op2 = model_from_doc(doc)
        assert op2.n == op.n
        for (r1, A1), (r2, A2) in zip(op.terms, op2.terms):
            assert r1 == r2
            assert np.array_equal(A1, A2)

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            model_from_doc({"terms": []})


class TestGroupCodec:
    def test_generator_form_roundtrip(self, simple_case):
        rep = simple_case.rep
        doc = rep_to_doc(rep)
        assert "generators" in doc
        rep2 = rep_from_doc(doc)
        assert rep2.group.order == rep.group.order
        assert np.allclose(rep2.matrices, rep.matrices)

    def test_table_form_is_a_schema_error(self, simple_case):
        # a group is read from its generators only; a multiplication table
        # with every element's matrix is no longer a second form
        rep = simple_case.rep
        doc = {"mul_table": rep.group.mul_table.tolist(), "matrices": encode_complex(rep.matrices)}
        with pytest.raises(SchemaError, match=r"^group\.generators is required$"):
            rep_from_doc(doc)

    def test_neither_form_rejected(self):
        with pytest.raises(SchemaError, match=r"^group\.generators is required$"):
            rep_from_doc({"order": 6})


class TestFrameCodec:
    def test_roundtrip_preserves_residuals(self, double_case):
        frame = double_case.frame
        doc = frame_to_doc(frame)
        frame2 = frame_from_doc(doc, frame.op, group=double_case.rep.group)
        assert frame2.c == frame.c
        assert np.array_equal(frame2.B, frame.B)
        assert np.max(np.abs(frame2.gram() - np.eye(frame.c))) < 1e-9
        for g in range(double_case.rep.group.order):
            assert np.array_equal(frame2.G.matrices[g], frame.G.matrices[g])


def same_stored_bits(a, b):
    """Whether two complex arrays have the same bits but for the sign of a
    zero: canonical JSON writes -0.0 as ``-0``, which reads back as 0."""
    return same_bits(np.asarray(a, dtype=complex) + 0.0, np.asarray(b, dtype=complex) + 0.0)


class TestArtifactCodec:
    @pytest.fixture(scope="class")
    def ring3_result(self):
        with open(f"{FIXTURES}/ring3_config.json") as fh:
            return unfold(**config_from_doc(json.load(fh)))

    @pytest.mark.parametrize("case", ["simple_case", "double_case", "ring3_result"])
    def test_roundtrip_returns_every_stored_array_bit_for_bit(self, request, case):
        op, rep, frame, assembly = request.getfixturevalue(case)
        text = canonical_json(build_artifact(op, rep, frame, assembly))
        op2, rep2, frame2, family, selected, theta, stored = parse_artifact(json.loads(text))
        assert op2.n == op.n and len(op2.terms) == len(op.terms)
        for (r, A), (r2, A2) in zip(op.terms, op2.terms):
            assert r2 == r and same_stored_bits(A2, A)
        assert same_stored_bits(rep2.matrices, rep.matrices)
        assert rep2.group.generator_indices == rep.group.generator_indices
        for name in ("lambdas", "phi", "psi", "B"):
            assert same_stored_bits(getattr(frame2, name), getattr(frame, name)), name
        assert same_stored_bits(frame2.G.matrices, frame.G.matrices)
        fam = assembly.family
        assert (family.delays, family.names) == (fam.delays, fam.names)
        assert same_stored_bits(family.directions, fam.directions)
        assert same_stored_bits(theta, assembly.theta.theta)
        ver, rows = assembly.versality, tuple(assembly.theta.selected_rows)
        assert tuple(selected) == rows
        assert stored == {"theta.selected_rows": rows, "theta.rank": len(rows),
                          **{f"report.versality.{key}": getattr(ver, key)
                             for key in SPAN_FIELDS | MINI_FIELDS}}


class TestCanonicalText:
    def test_full_precision_roundtrip(self, rng):
        import json
        vals = rng.standard_normal(50).tolist() + [1e-300, 1e300, 3.0, -0.0]
        text = canonical_json(vals)
        assert json.loads(text) == pytest.approx(vals, abs=0.0)

    def test_numpy_scalars_and_arrays(self):
        # documents hold Python values; np.float64 is a float
        assert canonical_json({"a": np.float64(0.5)}) == '{"a":0.5}'
        for value, name in ((np.int64(3), "int64"), (np.bool_(True), "bool"),
                            (np.arange(2.0), "ndarray"), (np.float32(0.5), "float32")):
            with pytest.raises(SchemaError, match=f"^cannot serialize {name}$"):
                canonical_json({"a": [value]})


# ------------------------------------------------- oracles for the codecs

def _canonical_json_per_float(obj):
    """Reference serializer: one recursive call and one ``format`` per float
    (the implementation before pair rows were formatted at once)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise SchemaError("non-finite number cannot be serialized")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_json_per_float(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _canonical_json_per_float(obj[k])
                              for k in sorted(obj)) + "}"
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def _decode_cmatrix_per_entry(doc, path="matrix"):
    """Reference decoder: one ``pair_complex`` per entry, each given its path."""
    rows = items(doc, path, lambda row, p: items(row, p, pair_complex))
    try:
        return np.array(rows, dtype=complex)
    except ValueError as exc:
        raise SchemaError(f"malformed complex matrix {path}: {exc}") from exc


def _outcome(f, *args):
    """A call's result, or the type and message of the schema error it raised."""
    try:
        return f(*args)
    except SchemaError as exc:
        return (SchemaError, str(exc))


def _bits(a):
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1, 1e16, 1e22]
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
pairs = st.lists(floats, min_size=2, max_size=2)
pair_rows = st.lists(pairs, max_size=8)
# leaves that must leave a list of pairs on the per-float path
odd_leaves = (st.integers(-10 ** 30, 10 ** 30) | st.booleans() | st.none()
              | st.text(max_size=3) | floats.map(np.float64))
documents = st.recursive(
    floats | odd_leaves | pair_rows,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=30)


def _complex_arrays(shape):
    return st.lists(floats, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)).map(
        lambda xs: np.array(xs).view(complex).reshape(shape))


array_shapes = st.lists(st.integers(1, 4), max_size=3).map(tuple)     # 0-d to 3-d


class TestCanonicalJsonOracle:
    """Pair rows formatted at once give the per-float serializer's text."""

    @settings(max_examples=200, deadline=None)
    @given(pair_rows)
    def test_pair_rows(self, doc):
        assert canonical_json(doc) == _canonical_json_per_float(doc)

    @settings(max_examples=200, deadline=None)
    @given(documents)
    def test_documents(self, doc):
        assert _outcome(canonical_json, doc) == _outcome(_canonical_json_per_float, doc)

    @settings(max_examples=100, deadline=None)
    @given(array_shapes.flatmap(_complex_arrays))
    def test_encoded_matrices(self, A):
        doc = {"a": encode_complex(A), "v": encode_complex(A.reshape(-1)),
               "z": [encode_complex(z) for z in A.reshape(-1)]}
        assert doc["v"] == doc["z"] == [[z.real, z.imag] for z in A.reshape(-1).tolist()]
        assert canonical_json(doc) == _canonical_json_per_float(doc)
        assert np.array_equal(_bits(decode_complex(doc["a"], "a", A.ndim)), _bits(A))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(pairs, min_size=1, max_size=6), st.data(),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_pair_raises_as_before(self, doc, data, bad):
        k = data.draw(st.integers(0, 2 * len(doc) - 1))
        doc[k // 2][k % 2] = bad
        expected = _outcome(_canonical_json_per_float, doc)
        assert expected == (SchemaError, "non-finite number cannot be serialized")
        assert _outcome(canonical_json, doc) == expected
        assert _outcome(canonical_json, {"a": [doc]}) == expected


class TestDecodeOracle:
    """The array decoder returns the per-entry decoder's bits, and rejects
    what it rejects with the same message."""

    @settings(max_examples=100, deadline=None)
    @given(array_shapes.flatmap(_complex_arrays))
    def test_roundtrip_is_bitwise(self, A):
        assert np.array_equal(_bits(decode_complex(encode_complex(A), "a", A.ndim)), _bits(A))
        # through the text, -0.0 is written "-0" and parses as the int 0
        M = A.reshape(-1, A.shape[-1] if A.ndim else 1)
        parsed = json.loads(canonical_json(encode_complex(M)))
        assert np.array_equal(_bits(decode_complex(parsed, "matrix", 2)),
                              _bits(_decode_cmatrix_per_entry(parsed)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.lists(st.integers(-2 ** 70, 2 ** 70) | floats,
                                      min_size=2, max_size=2), min_size=2, max_size=2),
                    min_size=1, max_size=3))
    def test_int_entries_convert_as_float_does(self, doc):
        assert np.array_equal(_bits(decode_complex(doc, "matrix", 2)),
                              _bits(_decode_cmatrix_per_entry(doc)))

    @pytest.mark.parametrize("doc", [
        [[[None, 1.0]]],                      # np.asarray(..., float) would give NaN
        [[[1.0, 2.0, 3.0]]],                  # three-element pair
        [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]],    # ragged rows
        [[[1.0, 2.0], [3.0]]],                # ragged pair
        [[[10 ** 400, 0.0]]],                 # int beyond float
        [[[[1.0, 2.0], [3.0, 4.0]]]],         # nested one level deeper
        [[["x", 1.0]]],
        [[[True, 0.0], [0.0, 0.0]]],          # np.array reads true as 1.0
        [[[1, 0], [0, False]]],               # and false as 0
        [[5.0]],
        [5.0],
        5.0,
        None,
    ], ids=["none", "triple", "ragged-rows", "ragged-pair", "huge-int", "deeper", "string",
            "bool-among-floats", "bool-among-ints", "bare-number-row", "bare-number-list",
            "number", "null"])
    def test_defects_rejected_as_before(self, doc):
        expected = _outcome(_decode_cmatrix_per_entry, doc)
        assert expected[0] is SchemaError
        assert _outcome(decode_complex, doc, "matrix", 2) == expected
