"""Decomposed-ensemble forecasting: band-limited mode decomposition,
per-mode conditional-volatility extraction, one recurrent network per mode,
summed one-step-ahead forecasts."""

__version__ = "0.1.0"

from .garch import GarchFit, GarchParams, GarchSpec
from .neural import CellKind, NetworkConfig, RecurrentNetwork, TrainConfig
from .pipeline import (
    EnsembleForecaster,
    EvalReport,
    PipelineConfig,
    Variant,
    compare_models,
    fit_forecaster,
    metrics,
    rolling_forecast,
)
from .series import MinMaxScaler, SplitSpec, TimeSeries
from .vmd import ModeSet, VmdConfig, vmd_decompose

__all__ = [
    "CellKind", "EnsembleForecaster", "EvalReport", "GarchFit",
    "GarchParams", "GarchSpec", "MinMaxScaler", "ModeSet", "NetworkConfig",
    "PipelineConfig", "RecurrentNetwork", "SplitSpec", "TimeSeries",
    "TrainConfig", "Variant", "VmdConfig",
    "compare_models", "fit_forecaster", "metrics", "rolling_forecast",
    "vmd_decompose", "__version__",
]
