"""Semantic exception hierarchy shared across the package, and the config
field reader that turns malformed input into a ConfigurationError."""

import numbers

MEMORY_BUDGET = 2**26  # bytes: the largest single array an op may build
BLOCK_BYTES = 2**23  # bytes: one block of a streamed loop


class GenboundError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GenboundError, ValueError):
    """Malformed or inconsistent inputs: bad shapes, bad weights, caps exceeded."""


class DomainError(GenboundError, ValueError):
    """Arguments outside a function's mathematical domain."""


class AbsoluteContinuityError(GenboundError, ValueError):
    """A density ratio was requested where the reference measure vanishes."""


class UnsupportedGeometryError(GenboundError, ValueError):
    """A geometric operation was asked for outside the supported (Euclidean) setting."""


class InvalidProcessError(GenboundError, ValueError):
    """A stochastic process fails its increment or centering requirements."""


def check_memory(nbytes: int, what: str) -> None:
    """Refuse an array of nbytes, counted in Python ints before numpy allocates it."""
    if nbytes > MEMORY_BUDGET:
        raise ConfigurationError(f"{what} needs {nbytes} bytes > MEMORY_BUDGET = {MEMORY_BUDGET}")


def block_rows(row_bytes: int, what: str) -> int:
    """Rows per streamed block: as many as fit BLOCK_BYTES, at least one within MEMORY_BUDGET."""
    check_memory(row_bytes, f"{what}: one streamed row")
    return max(1, BLOCK_BYTES // row_bytes)


def integer(value) -> int:
    """value as an int; refuses bools, fractions (which int() truncates) and non-numbers."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigurationError(f"expected an integer, got {value!r}")
    return int(value)


_REQUIRED = object()


def read_field(obj, name: str, convert, default=_REQUIRED):
    """convert(obj[name]) for one field of a JSON config object. A missing or
    null field gives `default` if one is given; any other failure, convert's
    TypeError or ValueError included, is a ConfigurationError naming the field."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"expected an object with field {name!r}")
    if obj.get(name) is None and default is not _REQUIRED:
        return default
    if name not in obj:
        raise ConfigurationError(f"field {name!r} is missing")
    try:
        return convert(obj[name])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"field {name!r}: {exc}") from exc
