"""JSON interchange: canonical serialization and the artifact schema.

Complex numbers travel as two-element ``[re, im]`` arrays; matrices as
nested arrays of such pairs.  Serialization is canonical: keys sorted,
floats printed with 17 significant digits (full round-trip precision), no
incidental whitespace, so identical inputs produce byte-identical files.
Writes go through a temp-file rename and are atomic.
"""

import contextlib
import functools
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .delays import DelayOperator, ExpVector
from .errors import SchemaError, StructuralError
from .frames import SpectralFrame
from .groups import FiniteGroup, Representation, close_generators

SCHEMA = "equivar-unfold/1"


# ---------------------------------------------------------------- canonical

def _fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise SchemaError("non-finite number cannot be serialized")
    return format(x, ".17g")


@functools.lru_cache(maxsize=64)
def _pair_row_template(n):
    return "[" + ",".join(["[%.17g,%.17g]"] * n) + "]"


def _pair_row_text(obj):
    """The text of a list of ``[re, im]`` float pairs, formatted in one ``%``
    operation (``%.17g`` prints what ``format(x, ".17g")`` prints); None when
    ``obj`` is not such a list."""
    try:
        if set(map(len, obj)) != {2}:
            return None
    except TypeError:
        return None
    flat = tuple(itertools.chain.from_iterable(obj))
    if set(map(type, flat)) != {float}:
        return None
    if not all(map(math.isfinite, flat)):
        raise SchemaError("non-finite number cannot be serialized")
    return _pair_row_template(len(obj)) % flat


def canonical_json(obj):
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    # a record (a NamedTuple: named fields) is a tuple but not a list
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        text = _pair_row_text(obj)
        if text is None:
            text = "[" + ",".join(canonical_json(v) for v in obj) + "]"
        return text
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise SchemaError(f"non-string key {k!r}")
            items.append(json.dumps(k) + ":" + canonical_json(obj[k]))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, complex):
        raise SchemaError("encode complex values as [re, im] pairs first")
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def write_text_atomic(path, text):
    """Write through a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, doc):
    """Write canonical JSON atomically."""
    write_text_atomic(path, canonical_json(doc) + "\n")


def read_json(path):
    """Parse a JSON file; malformed text is a :class:`SchemaError`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: malformed JSON at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
        except ValueError as exc:   # an integer literal longer than int() converts
            raise SchemaError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ readers
#
# Every value read from a document is read by one of these, given the JSON
# path of the value (``model.terms[1].delay``); a schema error names it.

def invalid(path, expected, value):
    """The schema error for ``value`` at ``path``, which is not ``expected``."""
    got = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
    return SchemaError(f"{path} must be {expected}, got {got}")


def field(doc, path, key, default=None):
    """``(value, path)`` of ``key`` in the object at ``path`` ("" for the
    document itself).  A key that is absent or null takes ``default``; with
    no default, the key is required."""
    if not isinstance(doc, dict):
        raise invalid(path, "an object", doc)
    child = f"{path}.{key}" if path else key
    value = default if doc.get(key) is None else doc[key]
    if value is None:
        raise SchemaError(f"{child} is required")
    return value, child


def number(x, path):
    """A finite float.  A bool or a string is not a number, and an integer
    beyond the float range is not finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise invalid(path, "a number", x)
    try:
        x = float(x)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"non-finite entry in {path}")
    return x


def integer(x, path):
    """A non-negative int; a bool or a float (0.9, or 3.0) is not one."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise invalid(path, "a non-negative integer", x)
    return x


def boolean(x, path):
    """A JSON true or false; 0 and 1 are not one."""
    if not isinstance(x, bool):
        raise invalid(path, "true or false", x)
    return x


def items(doc, path, read):
    """The list at ``path``, each entry read by ``read(entry, f"{path}[k]")``."""
    if not isinstance(doc, list):
        raise invalid(path, "a list", doc)
    return [read(x, f"{path}[{k}]") for k, x in enumerate(doc)]


# ------------------------------------------------------------- value codecs

def complex_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_complex(p, path):
    if not isinstance(p, list) or len(p) != 2:
        raise invalid(path, "a [re, im] pair", p)
    return complex(number(p[0], f"{path}[0]"), number(p[1], f"{path}[1]"))


def _encode_pairs(a):
    """Nested ``[re, im]`` lists of a complex array; the same Python floats
    that :func:`complex_pair` gives entry by entry."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def _holds_bool(doc, depth):
    """Whether the nested lists ``doc``, ``depth`` deep, hold a bool: numpy
    reads ``true`` as 1.0."""
    for _ in range(depth - 1):
        doc = itertools.chain.from_iterable(doc)
    return bool in set(map(type, doc))


def _decode_pairs(doc, path, ndim):
    """The complex array of a document of ``[re, im]`` pairs nested ``ndim``
    lists deep.  A finite numeric document of that shape is converted at
    once; anything else (None, bool or string entries, ints beyond 64 bits,
    ragged rows, non-finite entries) is read entry by entry, which names the
    entry at fault."""
    try:
        a = np.array(doc)
    except ValueError:              # ragged: read entry by entry below
        a = np.array(None)
    if a.dtype.kind in "fiu" and a.ndim == ndim + 1 and a.shape[-1] == 2:
        a = np.ascontiguousarray(a, dtype=float)
        if np.isfinite(a).all() and not _holds_bool(doc, a.ndim):
            return a.view(complex)[..., 0]
    read = pair_complex
    for _ in range(ndim):
        read = functools.partial(items, read=read)
    try:
        return np.array(read(doc, path), dtype=complex)
    except ValueError as exc:       # rows of different lengths
        raise SchemaError(f"malformed complex matrix {path}: {exc}") from exc


def encode_cvector(v):
    return _encode_pairs(np.ravel(v))


def decode_cvector(doc, path="vector"):
    return _decode_pairs(doc, path, 1)


def encode_cmatrix(M):
    return _encode_pairs(M)


def decode_cmatrix(doc, path="matrix"):
    return _decode_pairs(doc, path, 2)


# ------------------------------------------------------------ domain codecs

@contextlib.contextmanager
def document_errors():
    """Report a structural defect of a document being decoded (an empty model,
    a non-square generator) as the schema error it is; also a decorator."""
    try:
        yield
    except StructuralError as exc:
        raise SchemaError(str(exc)) from exc


def decode_cmatrix_stack(doc, path, shape=None):
    """A non-empty list of finite complex matrices of one shape (``shape``,
    else the first matrix's) as a stack.  Shapes are compared before
    stacking, so a ragged list is a schema error, not a numpy one."""
    mats = items(doc, path, decode_cmatrix)
    if not mats:
        raise SchemaError(f"{path} must be a non-empty list of matrices")
    shape = shape or mats[0].shape
    for k, M in enumerate(mats):
        if M.shape != shape:
            raise SchemaError(f"{path}[{k}] has shape {M.shape}, expected {shape}")
    return np.array(mats)


def model_to_doc(op):
    return {
        "n": int(op.n),
        "terms": [{"delay": float(r), "matrix": encode_cmatrix(A)} for r, A in op.terms],
    }


@document_errors()
def model_from_doc(doc, path="model"):
    def term(t, p):
        return number(*field(t, p, "delay")), decode_cmatrix(*field(t, p, "matrix"))
    return DelayOperator(n=integer(*field(doc, path, "n")),
                         terms=tuple(items(*field(doc, path, "terms"), term)))


def rep_to_doc(rep):
    gens = rep.group.generator_indices
    if gens:
        return {"generators": [encode_cmatrix(rep.matrices[g]) for g in gens]}
    return {
        "mul_table": rep.group.mul_table.tolist(),
        "matrices": [encode_cmatrix(M) for M in rep.matrices],
    }


@document_errors()
def rep_from_doc(doc, path="group"):
    generators, generators_path = field(doc, path, "generators", [])
    if generators != []:
        return close_generators(decode_cmatrix_stack(generators, generators_path))
    table, table_path = field(doc, path, "mul_table")
    table = items(table, table_path, lambda row, p: items(row, p, integer))
    if any(len(row) != len(table) or max(row) >= len(table) for row in table):
        raise SchemaError(f"{table_path} must be a square table of element indices")
    return Representation(group=FiniteGroup.from_mul_table(table),
                          matrices=decode_cmatrix_stack(*field(doc, path, "matrices")))


def frame_to_doc(frame):
    return {
        "eigenvalues": [complex_pair(l) for l in frame.lambdas],
        "phi_directions": [encode_cvector(v.direction) for v in frame.phi],
        "psi_directions": [encode_cvector(v.direction) for v in frame.psi],
        "reduced_matrix": encode_cmatrix(frame.B),
        "induced_rep": _encode_pairs(frame.G.matrices),
    }


@document_errors()
def frame_from_doc(doc, op, group, path="frame"):
    """The frame at ``path`` of a document, with its induced representation
    of ``group``."""
    lams = items(*field(doc, path, "eigenvalues"), pair_complex)
    phis = items(*field(doc, path, "phi_directions"), decode_cvector)
    psis = items(*field(doc, path, "psi_directions"), decode_cvector)
    B = decode_cmatrix(*field(doc, path, "reduced_matrix"))
    c = len(lams)
    if [v.shape for v in phis + psis] != [(op.n,)] * (2 * c) or B.shape != (c, c):
        raise SchemaError(f"a frame over {c} eigenvalues needs {c} phi and {c} psi directions "
                          f"of length n = {op.n} and a {c} x {c} reduced matrix")
    G = Representation(group=group, matrices=decode_cmatrix_stack(
        *field(doc, path, "induced_rep"), shape=(c, c)))
    return SpectralFrame(op=op, lambdas=tuple(lams),
                         phi=tuple(ExpVector(v, l, side="column") for v, l in zip(phis, lams)),
                         psi=tuple(ExpVector(v, l, side="row") for v, l in zip(psis, lams)),
                         B=B, G=G)


def build_artifact(op, rep, frame, assembly, meta=None):
    """Assemble the cmd-unfold output document."""
    fam = assembly.family
    theta = assembly.theta
    ver = assembly.versality
    doc = {
        "schema": SCHEMA,
        "model": model_to_doc(op),
        "group": rep_to_doc(rep),
        "frame": frame_to_doc(frame),
        "unfolding": {
            "delays": [float(r) for r in fam.delays],
            "parameters": list(fam.names),
            "coefficients": _encode_pairs(fam.directions),
            "selected_rows": [int(i) for i in theta.selected_rows],
        },
        "theta": {
            "matrix": encode_cmatrix(theta.theta),
            "row_residuals": [float(r) for r in theta.residuals],
            "selected_rows": [int(i) for i in theta.selected_rows],
            "rank": int(theta.rank),
        },
        "report": {
            "versality": {
                "versal": bool(ver.versal),
                "mini_versal": bool(ver.mini_versal),
                "commutant_dim": int(ver.commutant_dim),
                "tangent_dim": int(ver.tangent_dim),
                "codimension": int(ver.codimension),
                "achieved_rank": int(ver.achieved_rank),
                "n_directions": int(ver.n_directions),
                "max_equivariance_residual": float(ver.max_equivariance_residual),
            },
        },
    }
    if meta:
        doc["meta"] = meta
    return doc
