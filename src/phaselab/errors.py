"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code so scripted callers can distinguish
bad input from bad data from numerical breakdown.
"""

from contextlib import contextmanager


class PhaselabError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(PhaselabError):
    """Malformed arguments, schemas, or violated preconditions."""

    exit_code = 1


class ConsistencyError(PhaselabError):
    """Marginals fail their compatibility relations beyond tolerance."""

    exit_code = 2


class NumericalError(PhaselabError):
    """Quadrature or eigensolver failure."""

    exit_code = 3


def require_keys(obj, keys, what: str) -> None:
    """Schema guard for ``from_json``: ``obj`` must be a JSON object
    holding every key in ``keys``."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} JSON must be an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InvalidInputError(f"{what} JSON is missing key(s): {', '.join(missing)}")


@contextmanager
def json_value(what: str, key: str):
    """Schema guard for ``from_json``: a value under ``key`` of the wrong
    type or shape (a ``TypeError`` or ``ValueError`` while converting it)
    raises :class:`InvalidInputError` naming the key."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} JSON key {key!r} has a bad value: {exc}") from exc
