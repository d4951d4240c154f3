"""The package's record types: built by keyword, immutable after construction
(README, "Layout"), and never written out as JSON lists although they are
tuples."""

import importlib
import pkgutil

import numpy as np
import pytest

import equnfold
from equnfold.errors import SchemaError
from equnfold.frames import find_root
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


RECORDS = ("CheckResult", "D3ModelParams", "DelayOperator", "DoubleHopfPoint",
           "FiniteGroup", "GammaUnfolding", "OrbitGeometry", "Representation", "RootResult",
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
        "D3ModelParams": simple_point.params(),
        "DelayOperator": r.op,
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
