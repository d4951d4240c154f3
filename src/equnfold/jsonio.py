"""JSON interchange: canonical serialization and the artifact schema.

Complex numbers travel as two-element ``[re, im]`` arrays; matrices as
nested arrays of such pairs.  Serialization is canonical: keys sorted,
floats printed with 17 significant digits (full round-trip precision), no
incidental whitespace, so identical inputs produce byte-identical files.
Writes go through a temp-file rename and are atomic.
"""

import json
import math
import os
import tempfile

import numpy as np

from .delays import DelayOperator, ExpVector
from .errors import SchemaError
from .frames import SpectralFrame
from .groups import FiniteGroup, Representation, close_generators

SCHEMA = "equivar-unfold/1"


# ---------------------------------------------------------------- canonical

def _fmt_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise SchemaError("non-finite number cannot be serialized")
    return format(x, ".17g")


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
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
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
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"expected a [re, im] pair, got {p!r}") from exc


def encode_cvector(v):
    return [complex_pair(z) for z in np.asarray(v, dtype=complex).reshape(-1)]


def decode_cvector(doc):
    return np.array([pair_complex(p) for p in doc], dtype=complex)


def encode_cmatrix(M):
    M = np.asarray(M, dtype=complex)
    return [[complex_pair(z) for z in row] for row in M]


def decode_cmatrix(doc):
    try:
        return np.array([[pair_complex(p) for p in row] for row in doc], dtype=complex)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"malformed complex matrix: {exc}") from exc


# ------------------------------------------------------------ domain codecs

def model_to_doc(op):
    return {
        "n": int(op.n),
        "terms": [{"delay": float(r), "matrix": encode_cmatrix(A)} for r, A in op.terms],
    }


def model_from_doc(doc):
    try:
        n = int(doc["n"])
        terms = tuple((float(t["delay"]), decode_cmatrix(t["matrix"])) for t in doc["terms"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from exc
    for r, A in terms:
        if not (math.isfinite(r) and np.all(np.isfinite(A))):
            raise SchemaError(f"non-finite delay or matrix entry in the model term at delay {r}")
    return DelayOperator(n=n, terms=terms)


def rep_to_doc(rep):
    gens = rep.group.generator_indices
    if gens:
        return {"generators": [encode_cmatrix(rep.matrices[g]) for g in gens]}
    return {
        "mul_table": rep.group.mul_table.tolist(),
        "matrices": [encode_cmatrix(M) for M in rep.matrices],
    }


def rep_from_doc(doc):
    if "generators" in doc:
        return close_generators([decode_cmatrix(g) for g in doc["generators"]])
    if "mul_table" in doc and "matrices" in doc:
        group = FiniteGroup.from_mul_table(doc["mul_table"])
        mats = np.array([decode_cmatrix(M) for M in doc["matrices"]])
        return Representation(group=group, matrices=mats)
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
    if len(phi) != len(lams) or len(psi) != len(lams):
        raise SchemaError("frame direction counts disagree with eigenvalue count")
    G = None
    if "induced_rep" in doc:
        if group is None:
            raise SchemaError("induced representation present but no group supplied")
        mats = np.array([decode_cmatrix(M) for M in doc["induced_rep"]])
        G = Representation(group=group, matrices=mats)
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
