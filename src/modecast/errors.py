"""Exception types shared across modules, with CLI exit-code mapping.

Exit-code convention: 1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations


class ModecastError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(ModecastError):
    """Invalid configuration value or unknown configuration key."""

    exit_code = 1


class DataError(ModecastError):
    """Input data violates a contract (shape, finiteness, ordering, ...)."""

    exit_code = 2


class NonFinite(DataError):
    """Series contains NaN or infinite entries."""


class TooShort(DataError):
    """Series or dataset shorter than the operation requires."""


class NonMonotonicTimestamps(DataError):
    """Timestamps are not strictly increasing."""


class ConstantSeries(DataError):
    """Series has zero range; scaling is undefined."""


class DegenerateSeries(DataError):
    """Series has zero variance; model fitting is undefined."""


class LengthMismatch(DataError):
    """Paired series have different lengths."""


class ZeroActual(DataError):
    """MAPE is undefined because an actual value is zero."""


class EmptyDataset(DataError):
    """Training dataset contains no samples."""


class HorizonTooLong(DataError):
    """Requested forecast horizon exceeds the held-out span."""


class SeriesMismatch(DataError):
    """A forecaster is asked to forecast a series other than the one it was fitted on."""


class UnreadableFile(DataError):
    """An input file exists but cannot be read as text (a directory, non-UTF-8 bytes, ...)."""


class ParseError(DataError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class CorruptModel(DataError, ValueError):
    """A saved forecaster directory is incomplete, inconsistent or not in the current format."""


class ShapeMismatch(ModecastError):
    """Array arguments have inconsistent shapes."""


class InvalidParams(ModecastError):
    """Model parameters violate their constraint set."""


class NumericalError(ModecastError):
    """Numerical procedure failed (singular system, no valid optimum, ...)."""


class SingularRegression(NumericalError):
    """Regressor matrix is rank deficient."""


class InvalidLags(ConfigError, ValueError):
    """A diagnostic regression was asked for fewer than one lag."""


class StaleCache(ModecastError):
    """Backward pass received a cache built for different parameters."""
