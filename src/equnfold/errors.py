"""Exception types shared across the package."""

import contextlib


class EqunfoldError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(EqunfoldError):
    """Inconsistent shapes, mismatched groups, or invalid table data."""


class RootFindingError(EqunfoldError):
    """Characteristic-root iteration failed to converge; the message names
    the last iterate and its |det|."""


class FrameError(EqunfoldError):
    """Eigenbasis construction failed (defective spectrum, bad seeds, ...)."""


class UnfoldingError(EqunfoldError):
    """Unfolding machinery failed (rank deficiency, infeasible mask, ...)."""


class SchemaError(EqunfoldError):
    """A JSON document does not conform to the expected schema."""


@contextlib.contextmanager
def document_errors(path):
    """A structural defect of the document at ``path`` (an empty model, a
    non-square generator) as a schema error that names ``path``; a decorator too."""
    try:
        yield
    except StructuralError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
