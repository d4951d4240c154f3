"""Re-verification of unfold artifacts: every invariant of the table in
``invariants`` that an artifact determines is re-derived from its own data,
so a perturbed coefficient or a dropped direction fails a named check."""

from typing import NamedTuple

from .delays import lag_sum
from .errors import EqunfoldError
from .invariants import BY_NAME, DEFAULT_TOL, CheckResult
from .jsonio import MINI_FIELDS, SPAN_FIELDS, parse_artifact
from .unfolding import orbit_geometry, slot_stacks, verify_gamma_versality


class VerificationReport(NamedTuple):
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        return [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]


def _decision(name, passed, detail, stored, expected):
    """The decision line ``name``; it also fails on each stored field (a path
    of ``stored``) that differs from its value in ``expected``, and names it."""
    wrong = [f"stored {path} {stored[path]}, expected {value}"
             for path, value in expected.items() if stored[path] != value]
    return CheckResult(name, passed and not wrong, "; ".join([detail, *wrong]))


def verify_artifact(doc, tol=DEFAULT_TOL):
    """Report, in table order, each invariant that the artifact determines at
    base tolerance ``tol``, each followed by the decisions that rest on it:
    the stored Theta rows, and the span and minimality of the family.  Each
    decision line also compares the decisions the artifact stores with it
    (``theta.selected_rows`` and ``theta.rank``, and ``report.versality``).

    A document that does not parse, or has mismatched shapes, raises
    SchemaError; a recomputation that raises (a reduced matrix that does not
    commute with G stops the versality one) is a failed check.  Both the slot
    stacks and the span test take one orbit geometry of the reduced matrix;
    when it cannot be built, they fail with its message.  The versality
    recomputation asserts its invariants at ``tol`` where that is looser than
    their own tolerance, so no line fails an entry that passes on its own line.
    """
    op, rep, frame, family, selected, theta_stored, stored = parse_artifact(doc)
    G = frame.G
    # center directions from the stored coefficients
    Phis = [frame.Phi_at(-r) for r in family.delays]
    bhats = lag_sum(frame.psi @ family.directions, Phis)

    def line(name, *args):
        return BY_NAME[name].report(*args, tol=tol)

    checks = [line("group.representation", rep), line("model.equivariance", op, rep),
              line("frame.null_vectors", frame), line("frame.gram_identity", frame),
              line("frame.reduced_matrix", frame, stored["frame.reduced_matrix"]),
              line("frame.induced_rep", G), line("frame.B_commutes_with_G", G, frame.B),
              line("frame.phi_intertwines", frame, rep),
              line("family.coefficient_equivariance", rep, family.directions),
              line("directions.projection_fixed_point", G, bhats)]

    try:
        geometry = orbit_geometry(frame.B)
    except EqunfoldError as exc:
        return VerificationReport(checks=(*checks, CheckResult("theta.recompute", False, str(exc)),
                                          CheckResult("versality.span", False, str(exc))))
    try:
        _, Rbars, _, theta_re = slot_stacks(frame, rep, geometry)
    except EqunfoldError as exc:
        checks.append(CheckResult("theta.recompute", False, str(exc)))
    else:
        checks += [line("theta.matrix_consistency", theta_re.theta, theta_stored), _decision(
            "theta.selected_rows", tuple(theta_re.selected_rows) == tuple(selected),
            f"stored {tuple(selected)}, recomputed {tuple(theta_re.selected_rows)}",
            stored, {"theta.selected_rows": tuple(selected), "theta.rank": len(selected)})]
        missing = [slot for slot in selected if slot >= len(Rbars)]
        if missing:
            checks.append(CheckResult(
                "unfolding.reconstruction", False,
                f"selected row {missing[0]} is out of range ({len(Rbars)} slots recomputed)"))
        else:
            checks.append(line("unfolding.reconstruction", family.directions, Phis,
                               Rbars[selected]))

    try:
        ver = verify_gamma_versality(geometry, G, bhats, tol)
    except EqunfoldError as exc:
        checks.append(CheckResult("versality.span", False, str(exc)))
    else:
        checks += [_decision("versality.span", ver.versal,
                             f"rank {ver.achieved_rank} of {ver.commutant_dim} "
                             f"(tangent {ver.tangent_dim} + {ver.n_directions} directions)",
                             stored, {f"report.versality.{key}": getattr(ver, key)
                                      for key in SPAN_FIELDS}),
                   _decision("versality.mini", ver.mini_versal,
                             f"{ver.n_directions} parameters vs codimension {ver.codimension}",
                             stored, {f"report.versality.{key}": getattr(ver, key)
                                      for key in MINI_FIELDS}),
                   line("versality.codimension_formula", ver.codimension_formula,
                        ver.codimension)]
    return VerificationReport(checks=tuple(checks))
