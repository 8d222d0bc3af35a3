"""Time-series containers, validation, the split fraction, min-max scaling.

All types are immutable after construction (frozen dataclasses over read-only
arrays) and safe to share across workers; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import ConstantSeries, NonFinite, NonMonotonicTimestamps, TooShort


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations with optional calendar timestamps.

    Timestamps are metadata only; every algorithm in the package operates on
    index positions.
    """

    values: np.ndarray
    timestamps: tuple[date, ...] | None = None
    name: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=float).reshape(-1)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.timestamps is not None:
            object.__setattr__(self, "timestamps", tuple(self.timestamps))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SplitSpec:
    """Index-based ordered split: the training side is the leading
    floor(train_fraction * T) slots, never shuffled (`pipeline._train_size`)."""

    train_fraction: float = 0.85

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")


@dataclass(frozen=True)
class MinMaxScaler:
    """Affine map [lo, hi] -> [0, 1] learned from a training segment only."""

    lo: float
    hi: float

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)

    def invert(self, y):
        return self.lo + np.asarray(y, dtype=float) * (self.hi - self.lo)


def validate(series: TimeSeries) -> TimeSeries:
    """Return `series` unchanged if all container invariants hold.

    Raises NonFinite, TooShort, or NonMonotonicTimestamps otherwise.
    """
    if len(series) < 2:
        raise TooShort(f"series '{series.name}' has {len(series)} points, need at least 2")
    if not np.isfinite(series.values).all():
        raise NonFinite(f"series '{series.name}' contains NaN or infinite values")
    ts = series.timestamps
    if ts is not None:
        if len(ts) != len(series):
            raise NonMonotonicTimestamps(
                f"{len(ts)} timestamps for {len(series)} values in '{series.name}'"
            )
        for prev, cur in zip(ts, ts[1:]):
            if cur <= prev:
                raise NonMonotonicTimestamps(f"timestamps not strictly increasing at {cur}")
    return series


def fit_scaler(train: TimeSeries | np.ndarray) -> MinMaxScaler:
    """Learn per-series bounds from the training portion; rejects constant input."""
    values = train.values if isinstance(train, TimeSeries) else np.asarray(train, dtype=float)
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        raise ConstantSeries(f"constant series (all values equal {lo}), scaling undefined")
    return MinMaxScaler(lo=lo, hi=hi)
