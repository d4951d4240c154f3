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
    if isinstance(obj, (list, tuple)):
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


# ------------------------------------------------------------- value codecs

def complex_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_complex(p):
    try:
        re, im = p
        return complex(float(re), float(im))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"expected a [re, im] pair, got {p!r}") from exc


def _encode_pairs(a):
    """Nested ``[re, im]`` lists of a complex array; the same Python floats
    that :func:`complex_pair` gives entry by entry."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def _decode_pairs(doc, ndim):
    """The complex array of a numeric document of shape ``(..., 2)`` with
    ``ndim`` complex axes, viewed as complex; None for anything else (None
    or string entries, ints beyond 64 bits, ragged rows), which the per-entry
    decoders handle and report."""
    try:
        a = np.array(doc)
    except ValueError:
        return None
    if a.dtype.kind not in "fiu" or a.ndim != ndim + 1 or a.shape[-1] != 2:
        return None
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def encode_cvector(v):
    return _encode_pairs(np.ravel(v))


def decode_cvector(doc):
    v = _decode_pairs(doc, 1)
    if v is not None:
        return v
    try:
        return np.array([pair_complex(p) for p in doc], dtype=complex)
    except TypeError as exc:        # a number where the list of pairs belongs
        raise SchemaError(f"malformed complex vector: {exc}") from exc


def encode_cmatrix(M):
    return _encode_pairs(M)


def decode_cmatrix(doc):
    M = _decode_pairs(doc, 2)
    if M is not None:
        return M
    try:
        return np.array([[pair_complex(p) for p in row] for row in doc], dtype=complex)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"malformed complex matrix: {exc}") from exc


# ------------------------------------------------------------ domain codecs

@contextlib.contextmanager
def document_errors():
    """Report a structural defect of a document being decoded (an empty model,
    a non-square generator) as the schema error it is; also a decorator."""
    try:
        yield
    except StructuralError as exc:
        raise SchemaError(str(exc)) from exc


def require_finite(what, *values):
    if not all(np.all(np.isfinite(v)) for v in values):
        raise SchemaError(f"non-finite entry in {what}")


def decode_cmatrix_stack(doc, path, shape=None):
    """A non-empty list of finite complex matrices of one shape (``shape``,
    else the first matrix's) as a stack; errors name ``path``, the list's
    place in the document.  Shapes are compared before stacking, so a
    ragged list is a schema error, not a numpy one."""
    if not isinstance(doc, list) or not doc:
        raise SchemaError(f"{path} must be a non-empty list of matrices")
    mats = [decode_cmatrix(M) for M in doc]
    shape = shape or mats[0].shape
    for k, M in enumerate(mats):
        if M.shape != shape:
            raise SchemaError(f"{path}[{k}] has shape {M.shape}, expected {shape}")
        require_finite(f"{path}[{k}]", M)
    return np.array(mats)


def model_to_doc(op):
    return {
        "n": int(op.n),
        "terms": [{"delay": float(r), "matrix": encode_cmatrix(A)} for r, A in op.terms],
    }


@document_errors()
def model_from_doc(doc):
    try:
        n = int(doc["n"])
        terms = tuple((float(t["delay"]), decode_cmatrix(t["matrix"])) for t in doc["terms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from exc
    for r, A in terms:
        require_finite(f"the model term at delay {r}", r, A)
    return DelayOperator(n=n, terms=terms)


def rep_to_doc(rep):
    gens = rep.group.generator_indices
    if gens:
        return {"generators": [encode_cmatrix(rep.matrices[g]) for g in gens]}
    return {
        "mul_table": rep.group.mul_table.tolist(),
        "matrices": [encode_cmatrix(M) for M in rep.matrices],
    }


@document_errors()
def rep_from_doc(doc):
    if not isinstance(doc, dict):
        raise SchemaError("group document must be a JSON object")
    if "generators" in doc:
        return close_generators(decode_cmatrix_stack(doc["generators"], "group.generators"))
    if "mul_table" in doc and "matrices" in doc:
        group = FiniteGroup.from_mul_table(doc["mul_table"])
        return Representation(group=group,
                              matrices=decode_cmatrix_stack(doc["matrices"], "group.matrices"))
    raise SchemaError("group document needs 'generators' or 'mul_table'+'matrices'")


def frame_to_doc(frame):
    doc = {
        "eigenvalues": [complex_pair(l) for l in frame.lambdas],
        "phi_directions": [encode_cvector(v.direction) for v in frame.phi],
        "psi_directions": [encode_cvector(v.direction) for v in frame.psi],
        "reduced_matrix": encode_cmatrix(frame.B),
    }
    if frame.G is not None:
        doc["induced_rep"] = [encode_cmatrix(M) for M in frame.G.matrices]
    return doc


@document_errors()
def frame_from_doc(doc, op, group=None):
    try:
        lams = [pair_complex(p) for p in doc["eigenvalues"]]
        phi = tuple(ExpVector(decode_cvector(v), l, side="column")
                    for v, l in zip(doc["phi_directions"], lams))
        psi = tuple(ExpVector(decode_cvector(v), l, side="row")
                    for v, l in zip(doc["psi_directions"], lams))
        B = decode_cmatrix(doc["reduced_matrix"])
    except KeyError as exc:
        raise SchemaError(f"frame document missing {exc}") from exc
    except TypeError as exc:        # a number where a list belongs
        raise SchemaError(f"malformed frame document: {exc}") from exc
    c = len(lams)
    if [v.direction.shape for v in phi + psi] != [(op.n,)] * (2 * c) or B.shape != (c, c):
        raise SchemaError(f"a frame over {c} eigenvalues needs {c} phi and {c} psi directions "
                          f"of length n = {op.n} and a {c} x {c} reduced matrix")
    require_finite("the frame", lams, B, *(v.direction for v in phi + psi))
    G = None
    if "induced_rep" in doc:
        if group is None:
            raise SchemaError("induced representation present but no group supplied")
        G = Representation(group=group, matrices=decode_cmatrix_stack(
            doc["induced_rep"], "frame.induced_rep", shape=(c, c)))
    return SpectralFrame(op=op, lambdas=tuple(lams), phi=phi, psi=psi, B=B, G=G)


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
            "coefficients": [[encode_cmatrix(A) for A in row] for row in fam.directions],
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
