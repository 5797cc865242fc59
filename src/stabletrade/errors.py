"""Shared exception types, and the value checks that raise ConfigError."""

import math
import numbers


class ParamError(ValueError):
    """A parameter is outside its admissible domain."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested estimate."""


class DataError(ValueError):
    """Malformed input data (CSV rows, table files); message names the offender."""


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""


def _is_int(v, least=-math.inf):
    """An int (not a bool) of at least least."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _is_real(v):
    """A finite int or float; bools and numeric strings are not numbers here."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _require(ok, key, value, want):
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")
