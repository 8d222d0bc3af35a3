"""The benchmark's workloads: inputs from a seed, one op, and the output checks.

Seed 0 reproduces the committed inputs (``BENCHMARK_SEED`` and
``BENCHMARK_TRAIN_SEED`` for ``matrix``, the committed CPI fixture for the
other two).  Any other seed draws fresh inputs from ``modecast.synthetic``.
The program only ever sees the generated series and configuration.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from modecast import data, persist, pipeline, synthetic, vmd
from modecast.garch import GarchSpec
from modecast.neural import CellKind, NetworkConfig, TrainConfig
from modecast.series import SplitSpec, TimeSeries

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "data" / "cpi_germany_synthetic.csv"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CELLS = (CellKind.RNN, CellKind.GRU, CellKind.LSTM)
RTOL = 1e-4  # per-row RMSE tolerance against the committed reference

MATRIX_HORIZONS = (10, 20, 30, 40, 50, 60, 70)
MATRIX_EPOCHS = 1
CPI_HORIZONS = (10, 20)
CPI_GARCH_ORDER = 2
CPI_SEQ_LEN = 12  # one year of monthly values
SERVE_POINTS = 240  # trailing months of the CPI series the served model sees
SERVE_MODES = 3
SERVE_STEPS = 6


@dataclass
class State:
    series: TimeSeries
    cfg: pipeline.PipelineConfig
    model_dir: Path | None = None
    forecaster: pipeline.EnsembleForecaster | None = None  # in memory, before save
    expected: pipeline.ForecastResult | None = None       # its forecast


@dataclass
class Outcome:
    rmse: dict[str, float]   # "model@horizon" -> RMSE
    rmse_mean: float         # mean RMSE at the longest horizon
    problems: list[str]


class Decompositions:
    """Records the input and result of every ``vmd.vmd_decompose`` call,
    so the reconstruction check sees decompositions made inside the program."""

    def __init__(self):
        self.calls: list[tuple[np.ndarray, vmd.ModeSet]] = []

    def install(self) -> None:
        original = vmd.vmd_decompose

        def recording(signal, config):
            result = original(signal, config)
            self.calls.append((getattr(signal, "values", signal), result))
            return result

        vmd.vmd_decompose = recording


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _cpi_series(seed: int) -> TimeSeries:
    return data.load_csv(FIXTURE) if seed == 0 else synthetic.cpi_like(seed=seed)


def matrix_state(seed: int, _workdir: Path) -> State:
    if seed == 0:
        series, train_seed = synthetic.benchmark_series(), synthetic.BENCHMARK_TRAIN_SEED
    else:
        series, train_seed = synthetic.benchmark_series(seed=seed), seed
    cfg = synthetic.benchmark_config()
    cfg = replace(cfg, train=replace(cfg.train, epochs=MATRIX_EPOCHS, seed=train_seed))
    return State(series, cfg)


def cpi_state(seed: int, _workdir: Path) -> State:
    cfg = pipeline.PipelineConfig(
        vmd=vmd.VmdConfig(n_modes=10, alpha=2000.0, tol=1e-7),
        garch=GarchSpec(k=CPI_GARCH_ORDER, l=CPI_GARCH_ORDER),
        network=NetworkConfig(cell=CellKind.LSTM, layers=1, hidden=4, input_features=2,
                              dropout_rate=0.0, seed=0),
        train=TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=seed),
        split=SplitSpec(0.85),
        seq_len=CPI_SEQ_LEN,
    )
    return State(_cpi_series(seed), cfg)


def serve_state(seed: int, workdir: Path) -> State:
    """Fit and save the served VMD-GARCH-LSTM: reference network size, one epoch."""
    full = _cpi_series(seed)
    series = TimeSeries(full.values[-SERVE_POINTS:], name=f"{full.name}_tail")
    cfg = pipeline.PipelineConfig(
        vmd=vmd.VmdConfig(n_modes=SERVE_MODES, alpha=2000.0, tol=1e-7),
        garch=GarchSpec(k=1, l=1),
        network=NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=64, input_features=2,
                              dropout_rate=0.2, seed=0),
        train=TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=seed),
        split=SplitSpec(0.85),
        seq_len=50,
    )
    forecaster = pipeline.fit_forecaster(series, pipeline.Variant.VMD_GARCH, CellKind.LSTM, cfg)
    model_dir = workdir / "served_model"
    persist.save_forecaster(forecaster, model_dir)
    return State(series, cfg, model_dir, forecaster)


def serve_expect(state: State) -> None:
    """Forecast with the in-memory forecaster; every served forecast must equal it."""
    state.expected = pipeline.rolling_forecast(state.forecaster, state.series, SERVE_STEPS)


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------

def compare_op(state: State, horizons) -> list[pipeline.ComparisonRow]:
    return pipeline.compare_models(state.series, list(horizons), list(CELLS), state.cfg)


def serve_op(state: State):
    forecaster = persist.load_forecaster(state.model_dir)
    return forecaster, pipeline.rolling_forecast(forecaster, state.series, SERVE_STEPS)


def check_decomposition(signal, mode_set: vmd.ModeSet) -> list[str]:
    x = np.asarray(signal, dtype=float).reshape(-1)
    if np.array_equal(mode_set.modes.sum(axis=0) + mode_set.residual, x):
        return []
    return ["modes.sum(0) + residual differs from the input"]


def check_finite(label: str, values) -> list[str]:
    return [] if np.isfinite(values).all() else [f"{label}: non-finite prediction"]


def check_rmse(rmse: dict[str, float], reference: dict[str, float] | None) -> list[str]:
    """Each row's RMSE must lie within RTOL of the committed reference."""
    if reference is None:
        return []
    if set(rmse) != set(reference):
        return [f"rows {sorted(rmse)} differ from reference rows {sorted(reference)}"]
    return [f"{key}: rmse {rmse[key]!r} vs reference {reference[key]!r}"
            for key in sorted(rmse)
            if not math.isclose(rmse[key], reference[key], rel_tol=RTOL, abs_tol=0.0)]


def check_compare(state: State, rows, decompositions, horizons) -> Outcome:
    problems = []
    for signal, mode_set in decompositions:
        problems += check_decomposition(signal, mode_set)
    if not decompositions:
        problems.append("no decomposition seen, so reconstruction went unchecked")
    for row in rows:
        problems += check_finite(f"{row.model}@{row.horizon}", row.report.predictions)
    rmse = {f"{row.model}@{row.horizon}": row.report.rmse for row in rows}
    longest = [row.report.rmse for row in rows if row.horizon == max(horizons)]
    return Outcome(rmse, float(np.mean(longest)), problems)


def check_serve(state: State, output) -> Outcome:
    forecaster, result = output
    expected = state.expected
    problems = check_decomposition(state.series.values, forecaster.modes)
    problems += check_finite("served forecast", result.predictions)
    if not (np.array_equal(result.predictions, expected.predictions)
            and np.array_equal(result.per_mode, expected.per_mode)):
        problems.append("served forecast differs from the in-memory forecaster's forecast")
    err = result.predictions - result.actuals
    rmse = float(math.sqrt(np.mean(err * err)))
    return Outcome({f"VMD-GARCH-LSTM@{SERVE_STEPS}": rmse}, rmse, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    make_state: Callable[[int, Path], State]       # timed as set-up
    run: Callable[[State], object]                 # one op
    check: Callable[[State, object, list], Outcome]
    finish_setup: Callable[[State], None] | None = None  # untimed preparation of the checks


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "matrix",
            matrix_state,
            lambda s: compare_op(s, MATRIX_HORIZONS),
            lambda s, out, dec: check_compare(s, out, dec, MATRIX_HORIZONS)),
        Workload(
            "cpi-volatility",
            cpi_state,
            lambda s: compare_op(s, CPI_HORIZONS),
            lambda s, out, dec: check_compare(s, out, dec, CPI_HORIZONS)),
        Workload(
            "forecast-serve",
            serve_state,
            serve_op,
            lambda s, out, dec: check_serve(s, out),
            serve_expect),
    )
}


def load_reference(workload: str, seed: int) -> dict | None:
    """Committed reference outputs of one workload and seed, if recorded."""
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    return refs.get(workload, {}).get(str(seed))
