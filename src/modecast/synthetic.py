"""Seeded synthetic series used by the test suite, benchmarks and fixtures.

Everything here is deterministic per seed; the committed benchmark thresholds
in the acceptance tests were calibrated once against these exact generators
and must not drift.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .garch import GarchParams, GarchSpec, simulate
from .neural import CellKind, NetworkConfig, TrainConfig
from .series import SplitSpec, TimeSeries
from .vmd import VmdConfig

BENCHMARK_SEED = 20240501
BENCHMARK_LENGTH = 800
BENCHMARK_TRAIN_SEED = 137  # frozen with the acceptance thresholds


def two_tone(n: int, f1: float = 0.05, f2: float = 0.25,
             a1: float = 1.0, a2: float = 1.0, phase2: float = 0.7) -> np.ndarray:
    """Sum of two cosines at frequencies in cycles/sample."""
    t = np.arange(n)
    return a1 * np.cos(2.0 * np.pi * f1 * t) + a2 * np.cos(2.0 * np.pi * f2 * t + phase2)


def benchmark_series(n: int = BENCHMARK_LENGTH, seed: int = BENCHMARK_SEED) -> TimeSeries:
    """The committed forecasting benchmark: two tones + clustered noise + trend.

    The noise is a persistent conditional-heteroskedasticity process so the
    volatility channel carries real information; the trend keeps all values
    well away from zero so percentage errors are defined.
    """
    t = np.arange(n)
    trend = 60.0 + 0.05 * t
    tones = two_tone(n, f1=0.05, f2=0.25, a1=3.0, a2=1.5)
    noise = simulate(GarchParams(0.02, [0.25], [0.70]), n, seed=seed).values
    return TimeSeries(trend + tones + noise, name="benchmark")


def benchmark_config() -> "PipelineConfig":
    """The frozen pipeline settings paired with `benchmark_series`.

    Three modes cover trend + two tones; the conditional-variance model is
    first order; networks are small enough that the full nine-model matrix
    finishes in about a minute.
    """
    from .pipeline import PipelineConfig  # local import, pipeline imports this module's deps

    return PipelineConfig(
        vmd=VmdConfig(n_modes=3, alpha=2000.0),
        garch=GarchSpec(k=1, l=1),
        network=NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=16,
                              input_features=2, dropout_rate=0.2, seed=0),
        train=TrainConfig(epochs=30, batch_size=32, lr=3e-3, seed=BENCHMARK_TRAIN_SEED),
        split=SplitSpec(0.85),
        seq_len=25,
    )


def cpi_like(n: int = 636, seed: int = 1970) -> TimeSeries:
    """Monthly consumer-price-index lookalike, indexed so 2015 averages 100.

    Smooth upward drift with era-specific slope changes, a couple of shock
    bumps, mild seasonality and autocorrelated noise.  Used to build the
    committed offline fixture; entirely synthetic.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    # piecewise drift: fast early inflation, plateau, late acceleration
    slopes = np.where(t < 240, 0.135, np.where(t < 540, 0.095, 0.16))
    level = 22.0 + np.cumsum(slopes)
    bumps = 2.2 / (1.0 + np.exp(-(t - 48) / 6.0)) + 1.8 / (1.0 + np.exp(-(t - 132) / 8.0))
    season = 0.25 * np.sin(2.0 * np.pi * t / 12.0) + 0.1 * np.sin(2.0 * np.pi * t / 6.0 + 0.5)
    ar = np.empty(n)
    eps = rng.standard_normal(n) * 0.18
    ar[0] = eps[0]
    for i in range(1, n):
        ar[i] = 0.8 * ar[i - 1] + eps[i]
    values = level + bumps + season + ar
    # rescale so the 2015 calendar year (months 540..551 from 1970-01) averages 100
    anchor = values[540:552].mean()
    values = values * (100.0 / anchor)
    timestamps = tuple(date(1970 + i // 12, i % 12 + 1, 1) for i in range(n))
    return TimeSeries(values, timestamps=timestamps, name="cpi_synthetic")
