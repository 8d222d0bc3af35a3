from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from modecast import synthetic
from modecast.config import load_config, to_pipeline_config
from modecast.garch import GarchSpec
from modecast.neural import CellKind, NetworkConfig, TrainConfig
from modecast.pipeline import PipelineConfig
from modecast.series import SplitSpec, TimeSeries
from modecast.vmd import VmdConfig


def small_config(epochs=2, seq_len=10, n_modes=2, variant_cell=CellKind.RNN) -> PipelineConfig:
    """Tiny pipeline settings so integration tests stay fast."""
    return PipelineConfig(
        vmd=VmdConfig(n_modes=n_modes, alpha=500.0),
        garch=GarchSpec(1, 1),
        network=NetworkConfig(cell=variant_cell, layers=2, hidden=6, input_features=2,
                              dropout_rate=0.1, seed=0),
        train=TrainConfig(epochs=epochs, batch_size=32, lr=3e-3, seed=5),
        split=SplitSpec(0.8),
        seq_len=seq_len,
    )


def wavy_series(n=220, seed=0) -> TimeSeries:
    t = np.arange(n)
    rng = np.random.default_rng(seed)
    values = 20.0 + 0.02 * t + np.cos(2 * np.pi * 0.07 * t) + 0.2 * rng.standard_normal(n)
    return TimeSeries(values, name="wavy")


def named_configs() -> dict[str, PipelineConfig]:
    """The configurations the package ships or benchmarks, by name: the test
    configuration per cell, `benchmark_config()`, `configs/reference.cfg`, and
    the shapes of the three perfbench workloads at seed 7 (network seed 0,
    training seed 7)."""
    matrix = synthetic.benchmark_config()
    reference = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
    return {
        **{f"small-{cell.value}": small_config(variant_cell=cell) for cell in CellKind},
        "benchmark": matrix,
        "reference": to_pipeline_config(load_config(reference)),
        "matrix-seed-7": replace(matrix, train=replace(matrix.train, epochs=1, seed=7)),
        "cpi-volatility-seed-7": PipelineConfig(
            vmd=VmdConfig(n_modes=10, alpha=2000.0, tol=1e-7), garch=GarchSpec(2, 2),
            network=NetworkConfig(cell=CellKind.LSTM, layers=1, hidden=4, input_features=2,
                                  dropout_rate=0.0, seed=0),
            train=TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=7),
            split=SplitSpec(0.85), seq_len=12),
        "forecast-serve-seed-7": PipelineConfig(
            vmd=VmdConfig(n_modes=3, alpha=2000.0, tol=1e-7), garch=GarchSpec(1, 1),
            network=NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=64, input_features=2,
                                  dropout_rate=0.2, seed=0),
            train=TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=7),
            split=SplitSpec(0.85), seq_len=50),
    }
