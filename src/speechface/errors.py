"""Exception hierarchy shared by all speechface modules, and the seed and
real-number checks that configuration entry points share."""

import numpy as np


class SpeechFaceError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SpeechFaceError):
    """Tensor or layer dimensions do not match what the operation requires."""


class ParseError(SpeechFaceError):
    """A file (WAV, checkpoint, rig, dataset, CSV) is malformed.

    Messages include the byte offset or line number where parsing failed.
    """


class RangeError(SpeechFaceError):
    """An index or window reaches outside the available data."""


class ConfigError(SpeechFaceError):
    """An operation was invoked with an invalid or incomplete configuration."""


class StateError(SpeechFaceError):
    """An operation was invoked in the wrong order (e.g. backward before forward)."""


class DataError(SpeechFaceError):
    """Input data violates a contract (length mismatch, out-of-range values)."""


class NumericError(SpeechFaceError):
    """Non-finite values were produced where finite values are required."""


def check_seed(seed) -> int:
    """Return ``seed`` if it is a non-negative integer; otherwise raise
    ConfigError."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def check_real(name: str, value):
    """Return ``value`` if it is a real number and not a bool; otherwise raise
    ConfigError."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return value
