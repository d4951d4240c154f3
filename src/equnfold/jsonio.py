"""JSON interchange: the one module that knows an output's format, for the
``unfold`` config, the artifact and its ``meta``, the ``double-hopf`` and
``verify --report`` documents, and the ``curves`` CSV.  Complex numbers
travel as two-element ``[re, im]`` arrays; matrices as nested arrays of such
pairs.  Serialization is
canonical: keys sorted, floats printed with 17 significant digits (full
round-trip precision), no incidental whitespace, so identical inputs produce
byte-identical files.  Writes go through a temp-file rename and are atomic.
"""

import functools
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .delays import DelayOperator, check_dims
from .errors import SchemaError, document_errors
from .frames import ROOT_TOL, SpectralFrame
from .groups import Representation, close_generators
from .unfolding import UnfoldingFamily, check_lags, check_sparsity

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
    """The text of a list of finite ``[re, im]`` float pairs, formatted in one
    ``%`` operation (``%.17g`` prints what ``format(x, ".17g")`` prints); None
    when ``obj`` is not such a list."""
    try:
        if set(map(len, obj)) != {2}:
            return None
    except TypeError:
        return None
    flat = tuple(itertools.chain.from_iterable(obj))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    return _pair_row_template(len(obj)) % flat


def canonical_json(obj):
    """Deterministic JSON text (sorted keys, 17-significant-digit floats) of the
    Python values a document holds; of numpy's, only ``np.float64``, a float."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    # a record (a NamedTuple: named fields) is a tuple but not a list
    if isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        text = _pair_row_text(obj)
        if text is None:
            text = "[" + ",".join(canonical_json(v) for v in obj) + "]"
        return text
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj):
            if not isinstance(k, str):
                raise SchemaError(f"non-string key {k!r}")
            items.append(json.dumps(k) + ":" + canonical_json(obj[k]))
        return "{" + ",".join(items) + "}"
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def write_text_atomic(path, text):
    """Write through a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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
    """Parse a JSON file, UTF-8 text (RFC 8259) whatever the locale; malformed
    text is a :class:`SchemaError`."""
    with open(path, encoding="utf-8") as fh:
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


def string(x, path):
    """A JSON string."""
    if not isinstance(x, str):
        raise invalid(path, "a string", x)
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

def pair_complex(p, path):
    if not isinstance(p, list) or len(p) != 2:
        raise invalid(path, "a [re, im] pair", p)
    return complex(number(p[0], f"{path}[0]"), number(p[1], f"{path}[1]"))


def encode_complex(a):
    """Nested ``[re, im]`` lists of a complex array of any shape (a scalar is
    one pair), holding the Python floats of its real and imaginary parts."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def _holds_bool(doc, depth):
    """Whether the nested lists ``doc``, ``depth`` deep, hold a bool: numpy
    reads ``true`` as 1.0."""
    for _ in range(depth - 1):
        doc = itertools.chain.from_iterable(doc)
    return bool in set(map(type, doc))


def decode_complex(doc, path, ndim):
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


# ------------------------------------------------------------ domain codecs

def decode_cmatrix_stack(doc, path, shape=None):
    """A non-empty list of finite complex matrices of one shape (``shape``,
    else the first matrix's) as a stack.  Shapes are compared before
    stacking, so a ragged list is a schema error, not a numpy one."""
    mats = items(doc, path, functools.partial(decode_complex, ndim=2))
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
        "terms": [{"delay": float(r), "matrix": encode_complex(A)} for r, A in op.terms],
    }


@document_errors("model")
def model_from_doc(doc, path="model"):
    def term(t, p):
        return number(*field(t, p, "delay")), decode_complex(*field(t, p, "matrix"), 2)
    return DelayOperator(n=integer(*field(doc, path, "n")),
                         terms=tuple(items(*field(doc, path, "terms"), term)))


def rep_to_doc(rep):
    return {"generators": encode_complex(rep.matrices[list(rep.group.generator_indices)])}


@document_errors("group")
def rep_from_doc(doc, path="group"):
    """The representation that the matrices ``generators`` generate."""
    return close_generators(decode_cmatrix_stack(*field(doc, path, "generators")))


def frame_to_doc(frame):
    return {
        "eigenvalues": encode_complex(frame.lambdas),
        "phi_directions": encode_complex(frame.phi),
        "psi_directions": encode_complex(frame.psi),
        "reduced_matrix": encode_complex(frame.B),
        "induced_rep": encode_complex(frame.G.matrices),
    }


@document_errors("frame")
def frame_from_doc(doc, op, group, path="frame"):
    """The frame at ``path`` of a document, with its induced representation
    of ``group``, and its stored reduced matrix, which ``verify`` checks."""
    lams = items(*field(doc, path, "eigenvalues"), pair_complex)
    if not lams:
        raise SchemaError(f"{path}.eigenvalues must not be empty")
    # one vector at a time, so that an error names its direction
    vector = functools.partial(decode_complex, ndim=1)
    phis = items(*field(doc, path, "phi_directions"), vector)
    psis = items(*field(doc, path, "psi_directions"), vector)
    B = decode_complex(*field(doc, path, "reduced_matrix"), 2)
    c = len(lams)
    if [v.shape for v in phis + psis] != [(op.n,)] * (2 * c) or B.shape != (c, c):
        raise SchemaError(f"a frame over {c} eigenvalues needs {c} phi and {c} psi directions "
                          f"of length n = {op.n} and a {c} x {c} reduced matrix")
    G = Representation(group=group, matrices=decode_cmatrix_stack(
        *field(doc, path, "induced_rep"), shape=(c, c)))
    return SpectralFrame(op=op, lambdas=tuple(lams), phi=np.array(phis).reshape(c, op.n),
                         psi=np.array(psis).reshape(c, op.n), G=G), B


# ------------------------------------------------------------------- config

CONFIG_KEYS = ("model", "group", "lambda_seeds", "vector_seeds", "delays", "sparsity",
               "tolerances")


def _check_keys(doc, path, keys):
    """A misspelled key would otherwise be ignored, and its default used."""
    for key in doc:
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} in {path}; expected one of {', '.join(keys)}")


def _mask_entry(x, path):
    if not (isinstance(x, int) and x in (0, 1)):      # a bool is an int
        raise invalid(path, "0, 1, true or false", x)
    return bool(x)


def _mask(doc, path):
    """A lag's 0/1 mask, or None for an unrestricted lag."""
    if doc is None:
        return None
    rows = items(doc, path, lambda row, p: items(row, p, _mask_entry))
    if len(set(map(len, rows))) > 1:
        raise SchemaError(f"{path} has rows of different lengths")
    return np.array(rows, dtype=bool)


def _vectors(doc, path, n):
    """A root seed's null vectors, the rows of an (m, n) array, or None."""
    if doc is None:
        return None
    U = decode_complex(doc, path, 2)
    if U.shape[1:] != (n,):
        raise SchemaError(f"{path} must hold vectors of length n = {n}, got shape {U.shape}")
    return U


def _model_and_group(doc):
    """A config's or an artifact's operator and representation, of one dimension."""
    op = model_from_doc(*field(doc, "", "model"))
    rep = rep_from_doc(*field(doc, "", "group"))
    with document_errors("group"):
        check_dims(op, rep)
    return op, rep


def config_from_doc(cfg):
    """The keyword arguments of :func:`~equnfold.unfolding.unfold` that a
    config document holds.  ``lambda_seeds`` is a list of ``[re, im]``
    pairs.  An absent or null key is unspecified, and a list, ``[]``
    included, is that list; ``sparsity`` needs ``delays``, the lags that its
    masks mask, and is checked against them here."""
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    _check_keys(cfg, "config", CONFIG_KEYS)
    seeds = items(*field(cfg, "", "lambda_seeds"), pair_complex)
    op, rep = _model_and_group(cfg)
    vectors, path = field(cfg, "", "vector_seeds", [None] * len(seeds))
    vectors = items(vectors, path, lambda doc, p: _vectors(doc, p, op.n))
    if len(vectors) != len(seeds):
        raise SchemaError(f"{path} has {len(vectors)} entries; lambda_seeds has {len(seeds)}")
    tolerances, path = field(cfg, "", "tolerances", {})
    root_tol = number(*field(tolerances, path, "root_tol", ROOT_TOL))
    _check_keys(tolerances, path, ("root_tol",))
    if not root_tol > 0:
        raise SchemaError("tolerances must be positive")
    # no lags: the pipeline selects them; no masks: every entry is free
    delays = None if cfg.get("delays") is None else items(cfg["delays"], "delays", number)
    sparsity = None if cfg.get("sparsity") is None else items(cfg["sparsity"], "sparsity", _mask)
    if sparsity is not None:
        if delays is None:
            raise SchemaError("sparsity needs delays: a mask is for the lag at its place "
                              "in delays")
        with document_errors("sparsity"):
            check_sparsity(sparsity, len(delays), op.n)
    return {"op": op, "rep": rep, "lambda_seeds": seeds, "vector_seeds": vectors,
            "delays": delays, "sparsity": sparsity, "root_tol": root_tol}


# ----------------------------------------------------------------- artifact

# the stored decisions (report.versality.<key>, with their readers) that the
# lines versality.span and versality.mini compare with the recomputed ones
SPAN_FIELDS = {"versal": boolean, "commutant_dim": integer, "tangent_dim": integer,
               "achieved_rank": integer, "n_directions": integer}
MINI_FIELDS = {"mini_versal": boolean, "codimension": integer}


def build_artifact(op, rep, frame, assembly, meta=None):
    """Assemble the cmd-unfold output document."""
    fam, theta, ver = assembly.family, assembly.theta, assembly.versality
    doc = {
        "schema": SCHEMA,
        "model": model_to_doc(op),
        "group": rep_to_doc(rep),
        "frame": frame_to_doc(frame),
        "unfolding": {
            "delays": [float(r) for r in fam.delays],
            "parameters": list(fam.names),
            "coefficients": encode_complex(fam.directions),
            "selected_rows": [int(i) for i in theta.selected_rows],
        },
        "theta": {
            "matrix": encode_complex(theta.theta),
            "row_residuals": [float(r) for r in theta.residuals],
            "selected_rows": [int(i) for i in theta.selected_rows],
            "rank": len(theta.selected_rows),
        },
        # each stored decision is written as the type that its reader takes
        "report": {"versality": {
            **{key: (bool if read is boolean else int)(getattr(ver, key))
               for key, read in (SPAN_FIELDS | MINI_FIELDS).items()},
            "max_equivariance_residual": float(ver.max_equivariance_residual)}},
    }
    if meta:
        doc["meta"] = meta
    return doc


def artifact_meta(preset=None, point=None):
    """The artifact's ``meta``: the preset and the double-Hopf point it ran
    at (a :class:`~equnfold.d3.DoubleHopfPoint`, its residual left out), or,
    with no preset, a config document as the source."""
    if preset is None:
        return {"source": "config"}
    keys = ("factor", "beta", "tau_n", *POINT_FIELDS[:-1])     # all but the residual
    return {"preset": preset, "point": {key: getattr(point, key) for key in keys}}


def parse_artifact(doc):
    """The artifact's ``(op, rep, frame, family, selected, theta, stored)``,
    ``stored`` its reduced matrix and decisions by JSON path; a violation raises SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("artifact must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    op, rep = _model_and_group(doc)
    frame, B = frame_from_doc(field(doc, "", "frame")[0], op, rep.group)

    unf = field(doc, "", "unfolding")
    delays = items(*field(*unf, "delays"), number)
    check_lags(delays, op.tau, "unfolding.delays", SchemaError)
    names = items(*field(*unf, "parameters"), string)
    directions = items(*field(*unf, "coefficients"),
                       lambda row, p: decode_cmatrix_stack(row, p, shape=(op.n, op.n)))
    selected = items(*field(*unf, "selected_rows"), integer)
    if len(selected) != len(names):
        raise SchemaError("unfolding.selected_rows must list one slot per parameter")
    if len(set(selected)) != len(selected):
        raise SchemaError(f"unfolding.selected_rows {selected} must be distinct")
    theta_doc = field(doc, "", "theta")
    theta = decode_complex(*field(*theta_doc, "matrix"), 2)
    stored = {"frame.reduced_matrix": B,
              "theta.selected_rows": tuple(items(*field(*theta_doc, "selected_rows"), integer)),
              "theta.rank": integer(*field(*theta_doc, "rank"))}
    versality = field(*field(doc, "", "report"), "versality")
    for key, read in (SPAN_FIELDS | MINI_FIELDS).items():
        value, path = field(*versality, key)
        stored[path] = read(value, path)

    with document_errors("unfolding"):
        family = UnfoldingFamily(base=op, delays=delays, directions=directions, names=names)
    return op, rep, frame, family, selected, theta, stored


# ------------------------------------------------------------------ outputs

POINT_FIELDS = ("alpha", "tau_s", "omega1", "omega2", "residual")


def points_to_doc(points, factor, beta, tau_n, alpha_window, tau_s_window):
    """The ``double-hopf`` output document: the slice searched and the
    points found there."""
    return {"schema": SCHEMA, "kind": "double-hopf-points", "factor": factor, "beta": beta,
            "tau_n": tau_n, "alpha_window": list(alpha_window),
            "tau_s_window": list(tau_s_window),
            "points": [{key: getattr(p, key) for key in POINT_FIELDS} for p in points]}


def curves_to_csv(curves, factor):
    """The ``curves`` output text: a header, then one row per sample of
    :func:`~equnfold.d3.sweep_curves`' ``curves`` of ``factor``, its floats
    printed as every JSON output prints them: finite, with 17 significant
    digits (full round-trip precision)."""
    rows = [f"{_fmt_float(om)},{_fmt_float(al)},{_fmt_float(ts)},{sg},{br},{factor}"
            for (sg, br), samples in curves.items() for om, al, ts in samples]
    return "\n".join(["omega,alpha,tau_s,sign,branch,factor", *rows]) + "\n"


def report_to_doc(report):
    """The ``verify --report`` output document: every check line of a
    :class:`~equnfold.verify.VerificationReport`."""
    return {"schema": SCHEMA, "kind": "verification-report", "ok": report.ok,
            "checks": [c._asdict() for c in report.checks]}
