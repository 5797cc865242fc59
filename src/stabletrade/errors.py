"""Shared exception types, and the value checks that raise ConfigError: a
settings table is checked against its check table, key -> (ok, want), which
the shapes at the end build."""

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


def _known_keys(values, table, prefix=None):
    """values, a dict of keys that table lists."""
    if not isinstance(values, dict):
        raise ConfigError(f"{prefix or 'experiment config'} must be a table, got {values!r}")
    extra = set(values) - set(table)
    if extra:
        raise ConfigError(f"unknown {prefix or 'config'} keys: {sorted(extra)}")
    return values


def _check_table(values, table, prefix=None):
    """values, a dict of keys that table lists, each passing its check; a
    refusal names the key as prefix.key, or bare at a config's top level."""
    _known_keys(values, table, prefix)
    for key, (ok, want) in table.items():
        if key in values:
            _require(ok(values[key]), f"{prefix}.{key}" if prefix else key, values[key], want)
    return values


def _int_at_least(least):
    return (lambda v: _is_int(v, least)), f"an integer >= {least}"


def _number(gt=None, ge=None, lt=None, le=None):
    """A finite number above gt (or from ge), and below lt (or up to le) when
    either is given; want reads "a finite number > 0" or "... in [0, 1)"."""
    lo = f"({gt:g}" if ge is None else f"[{ge:g}"
    hi = None if lt is None and le is None else f"{lt:g})" if le is None else f"{le:g}]"
    bound = f"in {lo}, {hi}" if hi else (">= " if gt is None else "> ") + lo[1:]
    return (lambda v: _is_real(v) and (gt is None or v > gt) and (ge is None or v >= ge)
            and (lt is None or v < lt) and (le is None or v <= le)), f"a finite number {bound}"


def _or_none(shape):
    """shape's check, or null (None), which stands for a computed default."""
    ok, want = shape
    return (lambda v: v is None or ok(v)), want


def _one_of(names):
    names = tuple(names)
    return (lambda v: isinstance(v, str) and v in names), f"one of {list(names)}"


_TABLE = (lambda v: isinstance(v, dict)), "a table"
