"""Re-verification of unfold artifacts.

Everything a produced artifact claims is re-derived from its own data:
representation validity, model equivariance, frame residuals, induced
action, coefficient equivariance, reconstruction of the projected
unfolding slots, Theta consistency, and the equivariant span (versality)
of the stored directions.  A perturbed coefficient or a dropped direction
therefore fails a specific named check.
"""

from dataclasses import dataclass

import numpy as np

from .delays import check_equivariance
from .errors import EqunfoldError, SchemaError
from .groups import check_representation, commutator_residual, equivariant_average
from .jsonio import (SCHEMA, decode_cmatrix, frame_from_doc, model_from_doc,
                     rep_from_doc)
from .unfolding import (UnfoldingFamily, build_R_matrices, orbit_geometry,
                        project_slot, reconstruction_residual,
                        semisimple_jordan_spec, theta_extract,
                        verify_gamma_versality)

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        return [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]


def _require(doc, key, context="artifact"):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{context} is missing required key {key!r}")
    return doc[key]


def parse_artifact(doc):
    """Decode the artifact document; schema violations raise SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("artifact must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    op = model_from_doc(_require(doc, "model"))
    rep = rep_from_doc(_require(doc, "group"))
    frame = frame_from_doc(_require(doc, "frame"), op, group=rep.group)
    if frame.G is None:
        raise SchemaError("artifact frame carries no induced representation")

    unf = _require(doc, "unfolding")
    delays = [float(r) for r in _require(unf, "delays", "unfolding")]
    names = list(_require(unf, "parameters", "unfolding"))
    coeff_doc = _require(unf, "coefficients", "unfolding")
    if len(coeff_doc) != len(names):
        raise SchemaError("one coefficient list per parameter required")
    directions = []
    for row in coeff_doc:
        if len(row) != len(delays):
            raise SchemaError("one coefficient matrix per delay required")
        directions.append(tuple(decode_cmatrix(A) for A in row))
    try:
        selected = [int(i) for i in _require(unf, "selected_rows", "unfolding")]
    except (TypeError, ValueError):
        raise SchemaError("selected_rows must be a list of integers")
    if len(selected) != len(names):
        raise SchemaError("selected_rows must list one slot per parameter")
    if min(selected, default=0) < 0 or len(set(selected)) != len(selected):
        raise SchemaError(f"selected_rows {selected} must be distinct non-negative indices")

    theta_doc = _require(doc, "theta")
    theta = decode_cmatrix(_require(theta_doc, "matrix", "theta"))

    family = UnfoldingFamily(base=op, delays=tuple(delays), directions=tuple(directions),
                             names=tuple(names), rep=None)
    return op, rep, frame, family, selected, theta


def verify_artifact(doc, tol=DEFAULT_TOL):
    """Run the full invariant suite against an artifact document.

    A document that does not parse raises SchemaError (StructuralError for
    mismatched shapes).  Failed invariants are failed checks in the report,
    including a reduced matrix that does not commute with G, which stops the
    versality recomputation.
    """
    op, rep, frame, family, selected, theta_stored = parse_artifact(doc)
    checks = []

    def record(name, residual, bound=tol, extra=""):
        passed = residual <= bound
        detail = f"residual {residual:.3e} (tol {bound:.1e})" + (f"; {extra}" if extra else "")
        checks.append(CheckResult(name=name, passed=passed, detail=detail))
        return passed

    rep_report = check_representation(rep, tol=tol)
    checks.append(CheckResult(
        "group.representation", rep_report.ok,
        f"max residual {rep_report.max_residual:.3e}, "
        f"{len(rep_report.violated_pairs)} violated pairs"))

    record("model.equivariance", check_equivariance(op, rep))

    null_res = 0.0
    for v in frame.phi:
        D = op.char_matrix(v.exponent)
        null_res = max(null_res, float(np.linalg.norm(D @ v.direction) / np.linalg.norm(v.direction)))
    for w in frame.psi:
        D = op.char_matrix(w.exponent)
        null_res = max(null_res, float(np.linalg.norm(w.direction @ D) / np.linalg.norm(w.direction)))
    record("frame.null_vectors", null_res)
    record("frame.gram_identity", frame.gram_residual())
    record("frame.reduced_matrix",
           float(np.max(np.abs(frame.B - np.diag(np.array(frame.lambdas))))))

    G = frame.G
    g_report = check_representation(G, tol=tol)
    checks.append(CheckResult(
        "frame.induced_rep", g_report.ok,
        f"max residual {g_report.max_residual:.3e}"))
    record("frame.B_commutes_with_G", commutator_residual(G, [frame.B]))
    record("frame.phi_intertwines", frame.intertwining_residual(rep))
    record("family.coefficient_equivariance",
           commutator_residual(rep, [A for row in family.directions for A in row]))

    # center directions from the stored coefficients, and their projections
    bhats = [family.center_direction(frame, m) for m in range(family.n_parameters)]
    record("directions.projection_fixed_point",
           max((float(np.max(np.abs(equivariant_average(G, G, Bh) - Bh))) for Bh in bhats),
               default=0.0))

    try:
        geometry = orbit_geometry(frame.B, semisimple_jordan_spec(frame.lambdas))
        Rbars, centers = zip(*(project_slot(frame, rep, R)
                               for R in build_R_matrices(frame, geometry)))
        theta_re = theta_extract(geometry, centers)
        dtheta = float(np.max(np.abs(theta_re.theta - theta_stored))) \
            if theta_re.theta.shape == theta_stored.shape else np.inf
        record("theta.matrix_consistency", dtheta)
        checks.append(CheckResult(
            "theta.selected_rows", tuple(theta_re.selected_rows) == tuple(selected),
            f"stored {tuple(selected)}, recomputed {tuple(theta_re.selected_rows)}"))
        missing = [slot for slot in selected if slot >= len(Rbars)]
        if missing:
            checks.append(CheckResult(
                "unfolding.reconstruction", False,
                f"selected row {missing[0]} is out of range ({len(Rbars)} slots recomputed)"))
        else:
            Phis = [frame.Phi_at(-r) for r in family.delays]
            record("unfolding.reconstruction",
                   max((reconstruction_residual(family.directions[m], Phis, Rbars[slot])
                        for m, slot in enumerate(selected)), default=0.0))
    except EqunfoldError as exc:
        checks.append(CheckResult("theta.recompute", False, str(exc)))

    try:
        ver = verify_gamma_versality(frame.B, G, bhats)
    except EqunfoldError as exc:
        checks.append(CheckResult("versality.span", False, str(exc)))
    else:
        checks.append(CheckResult(
            "versality.span", ver.versal,
            f"rank {ver.achieved_rank} of {ver.commutant_dim} "
            f"(tangent {ver.tangent_dim} + {ver.n_directions} directions)"))
        checks.append(CheckResult(
            "versality.mini", ver.mini_versal,
            f"{ver.n_directions} parameters vs codimension {ver.codimension}"))

    return VerificationReport(checks=tuple(checks))
