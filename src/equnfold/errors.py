"""The package's two exception types, one per exit outcome: a document that
is wrong (exit 2), and every other failure of the pipeline (exit 1)."""

import contextlib


class EqunfoldError(Exception):
    """The pipeline failed: a bad argument, a root not found, an infeasible unfolding."""


class SchemaError(EqunfoldError):
    """A JSON document does not conform to the expected schema."""


@contextlib.contextmanager
def document_errors(path):
    """Any failure while the document at ``path`` is decoded (an empty model, a
    non-square generator) as a schema error that names ``path``; a schema
    error keeps its own text.  A decorator too."""
    try:
        yield
    except SchemaError:
        raise
    except EqunfoldError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
