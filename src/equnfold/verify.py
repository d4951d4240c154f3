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
from .jsonio import (SCHEMA, decode_cmatrix, decode_cmatrix_stack, document_errors, field,
                     frame_from_doc, integer, items, model_from_doc, number, rep_from_doc)
from .unfolding import (UnfoldingFamily, orbit_geometry, reconstruction_residual,
                        semisimple_jordan_spec, slot_stacks, verify_gamma_versality)

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


@document_errors()
def parse_artifact(doc):
    """Decode the artifact document; schema violations raise SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("artifact must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}; expected {SCHEMA!r}")
    op = model_from_doc(*field(doc, "", "model"))
    rep = rep_from_doc(*field(doc, "", "group"))
    frame = frame_from_doc(field(doc, "", "frame")[0], op, rep.group)

    unf = field(doc, "", "unfolding")
    delays = items(*field(*unf, "delays"), number)
    names = items(*field(*unf, "parameters"), lambda name, _: name)
    directions = items(*field(*unf, "coefficients"),
                       lambda row, p: decode_cmatrix_stack(row, p, shape=(op.n, op.n)))
    selected = items(*field(*unf, "selected_rows"), integer)
    if len(selected) != len(names):
        raise SchemaError("unfolding.selected_rows must list one slot per parameter")
    if len(set(selected)) != len(selected):
        raise SchemaError(f"unfolding.selected_rows {selected} must be distinct")
    theta = decode_cmatrix(*field(*field(doc, "", "theta"), "matrix"))

    family = UnfoldingFamily(base=op, delays=delays, directions=directions, names=names)
    return op, rep, frame, family, selected, theta


def verify_artifact(doc, tol=DEFAULT_TOL):
    """Run the full invariant suite against an artifact document.

    A document that does not parse, or has mismatched shapes, raises
    SchemaError.  Failed invariants are failed checks in the report,
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

    record("frame.null_vectors", max(frame.null_vector_residuals(), default=0.0))
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
           commutator_residual(rep, family.directions.reshape(-1, op.n, op.n)))

    # center directions from the stored coefficients, and their projections
    Phis = [frame.Phi_at(-r) for r in family.delays]
    bhats = family.center_directions(frame, Phis)
    record("directions.projection_fixed_point",
           float(np.max(np.abs(equivariant_average(G, G, bhats) - bhats), initial=0.0)))

    try:
        geometry = orbit_geometry(frame.B, semisimple_jordan_spec(frame.lambdas))
        _, Rbars, _, theta_re = slot_stacks(frame, rep, geometry)
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
            record("unfolding.reconstruction", float(np.max(reconstruction_residual(
                family.directions, Phis, Rbars[selected]), initial=0.0)))
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
