"""Shared exception types."""


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 1)."""


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed (CLI exit code 2)."""


class NonPeriodicError(RuntimeError):
    """An orbit has no measurable first return to the section: the
    integration overflowed or failed, or the return crosses at u <= 0."""
