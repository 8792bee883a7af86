"""Exception hierarchy shared across the package, and the setting checks.

The three concrete classes map one-to-one onto the CLI exit codes, so
library code should raise the most specific class that applies.  Each
kind of setting (count, positive real, value in ``(0, 1)``) is checked by
one function below; the real checks are range tests that NaN fails.
"""
import math
import numbers


class PosidError(Exception):
    """Base class for all package errors."""


class ConfigError(PosidError):
    """Invalid configuration: bad hyperparameters, incompatible options."""

    exit_code = 2


class DataError(PosidError):
    """Invalid data: ingestion failures, domain violations, malformed files."""

    exit_code = 3


class SolverError(PosidError):
    """The numerical solver failed to reach an acceptable solution."""

    exit_code = 4


def check_count(name: str, value, least: int = 1) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer ``>= least``
    and not a ``bool``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value}")


def check_positive(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def check_unit_interval(name: str, value) -> None:
    """Raise ``ConfigError`` unless ``value`` lies in ``(0, 1)``."""
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")
