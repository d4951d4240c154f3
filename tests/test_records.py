"""The package's record types: built by keyword, immutable after construction
(README, "Layout"), and never written out as JSON lists although they are
tuples."""

import ast
import importlib
import pathlib
import pkgutil

import numpy as np
import pytest

import equnfold
from equnfold.errors import SchemaError
from equnfold.frames import find_root
from equnfold.invariants import INVARIANTS
from equnfold.jsonio import canonical_json
from equnfold.unfolding import orbit_geometry, semisimple_jordan_spec
from equnfold.verify import verify_artifact


def _record_types():
    """Every NamedTuple class that a module of the package defines, by name."""
    found = {}
    for info in pkgutil.iter_modules(equnfold.__path__):
        mod = importlib.import_module(f"equnfold.{info.name}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                    and obj.__module__ == mod.__name__):
                found[name] = obj
    return found


RECORDS = ("CheckResult", "DelayOperator", "DoubleHopfPoint", "FiniteGroup",
           "GammaUnfolding", "Invariant", "OrbitGeometry", "Representation", "RootResult",
           "SpectralFrame", "ThetaReport", "UnfoldResult", "UnfoldingFamily",
           "VerificationReport", "VersalityReport")


@pytest.fixture(scope="module")
def records(simple_case, simple_point, simple_artifact):
    """One instance of every record type, from the d3:simple pipeline."""
    r = simple_case
    frame, assembly = r.frame, r.assembly
    report = verify_artifact(simple_artifact)
    samples = {
        "UnfoldResult": r, "DoubleHopfPoint": simple_point,
        "DelayOperator": r.op, "Invariant": INVARIANTS[0],
        "FiniteGroup": r.rep.group, "Representation": r.rep,
        "RootResult": find_root(r.op, frame.lambdas[0]), "SpectralFrame": frame,
        "OrbitGeometry": orbit_geometry(frame.B, semisimple_jordan_spec(np.diag(frame.B))),
        "GammaUnfolding": assembly, "UnfoldingFamily": assembly.family,
        "ThetaReport": assembly.theta, "VersalityReport": assembly.versality,
        "VerificationReport": report, "CheckResult": report.checks[0],
    }
    types = _record_types()
    assert sorted(types) == sorted(samples) == sorted(RECORDS)
    return {name: (types[name], rec) for name, rec in samples.items()}


# record -> {derived value: its derivation from the record's fields}; each is
# a property, not a field, so no field repeats another (README, "Layout")
DERIVED = {
    "SpectralFrame": {"B": lambda f: np.diag(np.array(f.lambdas, dtype=complex)),
                      "c": lambda f: len(f.lambdas)},
    "VersalityReport": {
        "codimension": lambda v: v.commutant_dim - v.tangent_dim,
        "versal": lambda v: v.achieved_rank == v.commutant_dim,
        "mini_versal": lambda v: (v.achieved_rank == v.commutant_dim
                                  and v.n_directions == v.commutant_dim - v.tangent_dim),
        "deficiency": lambda v: v.commutant_dim - v.achieved_rank},
    "OrbitGeometry": {"delta": lambda g: len(g.basis) - g.tangent_dim},
    "FiniteGroup": {"inverse": lambda g: np.array([list(row).index(g.identity)
                                                   for row in g.mul_table])},
}


@pytest.mark.parametrize("case", ["simple_case", "double_case"])
@pytest.mark.parametrize("name, attr", [(name, attr) for name, values in DERIVED.items()
                                        for attr in values])
def test_derived_value_is_a_property_equal_to_its_derivation(request, case, name, attr):
    r = request.getfixturevalue(case)
    frame = r.frame
    rec = {"SpectralFrame": frame, "VersalityReport": r.assembly.versality,
           "OrbitGeometry": orbit_geometry(frame.B, semisimple_jordan_spec(frame.lambdas)),
           "FiniteGroup": r.rep.group}[name]
    cls = type(rec)
    assert cls.__name__ == name
    assert attr not in cls._fields and isinstance(getattr(cls, attr), property)
    value, expected = np.asarray(getattr(rec, attr)), np.asarray(DERIVED[name][attr](rec))
    # bit for bit: same type, shape and bytes
    assert (value.dtype, value.shape) == (expected.dtype, expected.shape)
    assert value.tobytes() == expected.tobytes()


def test_every_class_is_a_record_or_an_error():
    # a hand-written class would escape the record checks below
    for info in pkgutil.iter_modules(equnfold.__path__):
        mod = importlib.import_module(f"equnfold.{info.name}")
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                assert name in RECORDS or issubclass(obj, Exception), name


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_and_not_a_list(records, name):
    cls, rec = records[name]
    assert type(rec) is cls
    # keyword construction, through the same checks and coercions
    again = cls(**rec._asdict())
    assert type(again) is cls and repr(again) == repr(rec)
    for f in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, getattr(rec, f))
    with pytest.raises(AttributeError):
        rec.extra = None
    # refused alone and inside a container, not serialized as a list
    for obj in (rec, [rec], {"record": rec}):
        with pytest.raises(SchemaError, match=f"^cannot serialize {name}$"):
            canonical_json(obj)


def _invariant_refs_in_records(source):
    """(record, line) of each name bound by an import from ``invariants`` that
    a record class of the module ``source`` refers to."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            bound.update(a.asname or a.name for a in node.names
                         if node.module == "invariants" or a.name == "invariants")
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any("NamedTuple" in ast.unparse(base)
                                                   for base in node.bases):
            found += [(node.name, ref.lineno) for ref in ast.walk(node)
                      if isinstance(ref, ast.Name) and ref.id in bound]
    return sorted(found)


def test_no_record_checks_an_invariant():
    # a record checks the shape of its fields only; the build asserts the
    # facts of the invariant table where it relies on them (README, "Layout")
    package = pathlib.Path(equnfold.__file__).parent
    found = {path.name: refs for path in sorted(package.glob("*.py"))
             if path.name != "invariants.py"
             and (refs := _invariant_refs_in_records(path.read_text()))}
    assert found == {}


def test_invariant_scan_sees_a_record_check():
    source = ("from typing import NamedTuple\nfrom . import invariants\n"
              "from .invariants import check as chk\n"
              "class Family(NamedTuple('Family', [('rep', object)])):\n"
              "    def __new__(cls, rep):\n"
              "        invariants.check('x', rep)\n        chk('y', rep)\n"
              "        return super().__new__(cls, rep)\n"
              "def build(rep):\n    invariants.check('x', rep)\n")
    assert _invariant_refs_in_records(source) == [("Family", 6), ("Family", 7)]
