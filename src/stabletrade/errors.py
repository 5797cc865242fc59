"""Shared exception types."""


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
