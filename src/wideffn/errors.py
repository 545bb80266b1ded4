"""Exception types shared across the package.

Each maps to a process exit code in the command line front end:
ConfigError -> 2, DataError -> 3, and 4 for the rest (NumericError, ShapeError).
"""


class WideFFNError(Exception):
    """Base class for package errors."""

    exit_code = 4


class ConfigError(WideFFNError):
    """Invalid or inconsistent configuration."""

    exit_code = 2


class DataError(WideFFNError):
    """Malformed or mismatched input data."""

    exit_code = 3


class NumericError(WideFFNError):
    """Numerical failure (non-finite loss, diverged optimizer, ...)."""


class ShapeError(WideFFNError):
    """Tensor rank or dimension mismatch in a primitive op."""
