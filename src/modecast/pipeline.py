"""Orchestration: decompose, extract per-mode volatility, train one net per
mode, roll one-step-ahead forecasts, sum the per-mode predictions, evaluate.

Protocol notes baked in here rather than in the submodules:

* Decomposition runs once on the full series and the ordered train/test split
  is applied to the mode sequences afterwards ("decompose then split").  The
  look-ahead this introduces into the mode shapes is inherent to the protocol
  and is why the leakage canary in the tests perturbs mode test segments, not
  the raw input.
* Every scaler, volatility fit and network is trained on the leading split
  only.  The rolling forecast predicts each held-out slot from a window of
  realized mode values and a volatility channel advanced over realized
  shocks; networks are not retrained unless `retrain_every` is set.
* One builder, `_fit_forecasters`, makes every forecaster: `fit_forecaster`
  takes its one (variant, cell) pair and `compare_models` the whole matrix.
  It decomposes once and fits each mode's volatility once per call, and a
  network's training windows are the leading rows of the channels the
  rolling forecast reads (`_channels`), so both paths see the same floats.
* A mode set's networks share their shapes and differ only in seed and
  data, so they train together (`neural.train_many`), bit for bit as one by
  one; the builder trains a cell's networks of every variant asked for in
  one such call.
* Since every window of the rolling forecast is known in advance, each
  mode's network runs once over all of them (once per retraining segment),
  and the K networks run together in one `neural.predict_many` call, bit
  for bit as one by one.  Batched matrix products may round a row differently from a one-window
  pass or from a batch of another size, so forecasts of different lengths
  agree on their common steps up to rounding; reruns are bit-identical.
* The volatility channel carries the conditional standard deviation (square
  root of the fitted variance path), scaled by the mode's value span.  The
  one-network-code-path baselines keep the tensor shape: the direct variant
  duplicates the value channel, the decomposition-only variant feeds zeros.
* A mode's record (`ModeModel`) holds only what fitting produced: scaler,
  GARCH fit and network.  The volatility channel follows from the variant
  (`_channels`) and the network configuration from the run configuration and
  the mode's position (`mode_network_config`), here and in `persist` alike.
* Final predictions are correctly rounded sums (`math.fsum`) of the per-mode
  predictions, since mode magnitudes can span many orders.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import garch as garch_mod
from . import neural, vmd
from .errors import (
    HorizonTooLong,
    LengthMismatch,
    SeriesMismatch,
    TooShort,
    ZeroActual,
)
from .series import MinMaxScaler, SplitSpec, TimeSeries, fit_scaler, validate


class Variant(Enum):
    """The three model families of the comparison matrix."""

    DIRECT = "direct"              # one net on the raw series
    VMD = "vmd"                    # per-mode nets, zero volatility channel
    VMD_GARCH = "vmd-garch"        # per-mode nets with conditional-volatility channel

    @property
    def label_prefix(self) -> str:
        return {"direct": "", "vmd": "VMD-", "vmd-garch": "VMD-GARCH-"}[self.value]


@dataclass(frozen=True)
class PipelineConfig:
    vmd: vmd.VmdConfig
    garch: garch_mod.GarchSpec = garch_mod.GarchSpec(k=10, l=10)
    network: neural.NetworkConfig = neural.NetworkConfig(cell=neural.CellKind.LSTM)
    train: neural.TrainConfig = neural.TrainConfig()
    split: SplitSpec = SplitSpec()
    seq_len: int = 50
    garch_options: garch_mod.FitOptions = garch_mod.FitOptions()
    retrain_every: int = 0  # 0: never retrain during the rolling forecast


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding windows: sample i covers slots [i, i+seq_len), target slot i+seq_len."""

    inputs: np.ndarray   # (N, seq_len, 2): value column 0, volatility column 1
    targets: np.ndarray  # (N,)
    seq_len: int


@dataclass(frozen=True)
class ModeModel:
    """What fitting produced for one mode: its scaler, GARCH fit and network."""

    scaler: MinMaxScaler
    garch: garch_mod.GarchFit | None  # VMD-GARCH only
    network: neural.RecurrentNetwork


@dataclass(frozen=True)
class EnsembleForecaster:
    variant: Variant
    cell: neural.CellKind
    config: PipelineConfig
    modes: vmd.ModeSet | None       # None for the direct variant
    mode_values: np.ndarray         # (K, T) series each net is trained/evaluated on
    mode_models: tuple[ModeModel, ...]
    train_size: int


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    mae: float
    mape: float | None  # percent; None when an actual value is zero
    horizon: int
    predictions: np.ndarray
    actuals: np.ndarray


@dataclass(frozen=True)
class ForecastResult:
    predictions: np.ndarray       # (steps,) summed forecasts
    actuals: np.ndarray           # (steps,) original series test values
    per_mode: np.ndarray          # (steps, K) inverse-scaled per-mode forecasts


@dataclass(frozen=True)
class ComparisonRow:
    model: str
    variant: Variant
    cell: neural.CellKind
    horizon: int
    report: EvalReport


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def mape_percent(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Mean absolute percentage error in percent; rejects zero actuals."""
    if (actual == 0.0).any():
        raise ZeroActual("an actual value is zero, percentage error undefined")
    with np.errstate(over="ignore"):  # denormal actuals legitimately blow up
        return float(100.0 * np.mean(np.abs((actual - predicted) / actual)))


def metrics(actual, predicted, horizon: int | None = None) -> EvalReport:
    """Exact RMSE / MAE / MAPE; MAPE is None when any actual value is zero."""
    a = np.asarray(actual, dtype=float).reshape(-1)
    p = np.asarray(predicted, dtype=float).reshape(-1)
    if a.size != p.size:
        raise LengthMismatch(f"{a.size} actuals vs {p.size} predictions")
    if a.size == 0:
        raise LengthMismatch("empty prediction set")
    err = a - p
    rmse = float(math.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    try:
        mape = mape_percent(a, p)
    except ZeroActual:
        mape = None
    return EvalReport(rmse=rmse, mae=mae, mape=mape,
                      horizon=a.size if horizon is None else horizon,
                      predictions=p, actuals=a)


def aggregate(mode_predictions) -> float:
    """Correctly rounded sum of the per-mode predictions."""
    return math.fsum(np.asarray(mode_predictions, dtype=float).reshape(-1))


# ---------------------------------------------------------------------------
# Window construction
# ---------------------------------------------------------------------------

def build_windows(mode_scaled, vol_scaled, seq_len: int) -> WindowedDataset:
    m = np.asarray(mode_scaled, dtype=float).reshape(-1)
    v = np.asarray(vol_scaled, dtype=float).reshape(-1)
    if m.size != v.size:
        raise LengthMismatch(f"value series has {m.size} points, volatility {v.size}")
    if m.size <= seq_len:
        raise TooShort(f"need more than seq_len={seq_len} points, got {m.size}")
    n = m.size - seq_len
    inputs = np.empty((n, seq_len, 2))
    inputs[:, :, 0] = sliding_window_view(m, seq_len)[:n]
    inputs[:, :, 1] = sliding_window_view(v, seq_len)[:n]
    return WindowedDataset(inputs=inputs, targets=m[seq_len:].copy(), seq_len=seq_len)


def _channels(variant: Variant, model: ModeModel, mode_series: np.ndarray, train_size: int,
              steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled value and volatility channels over the training slots and `steps`
    held-out slots, the held-out ones filled from realized mode values only.
    With `steps` = 0 they are the channels the mode's network trains on: the
    leading slots of `extend_sigma2` are the fit's own `sigma2_path`."""
    values = model.scaler.apply(mode_series[:train_size + steps])
    if variant is Variant.DIRECT:
        return values, values
    if variant is Variant.VMD:
        return values, np.zeros(train_size + steps)
    fit = model.garch
    held = mode_series[train_size:train_size + steps]
    if fit.used_differencing:
        held = held - mode_series[train_size - 1:train_size + steps - 1]
    s2 = garch_mod.extend_sigma2(fit, held - fit.mean)
    # sigma shares the mode's units, so scale it by the value span anchored at
    # zero: a negligible volatility stays a negligible input instead of being
    # stretched into a full-range noise channel
    return values, MinMaxScaler(0.0, model.scaler.hi - model.scaler.lo).apply(np.sqrt(s2))


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _mode_seed(base_seed: int, mode_index: int) -> int:
    # same derivation across variants so initializations are seed-identical
    return base_seed * 1000 + mode_index


def _train_size(n: int, cfg: PipelineConfig) -> int:
    n_train = int(np.floor(cfg.split.train_fraction * n))
    if n_train <= cfg.seq_len or n_train >= n:
        raise TooShort(f"train size {n_train} incompatible with seq_len {cfg.seq_len} and length {n}")
    return n_train


def mode_network_config(cfg: PipelineConfig, cell: neural.CellKind,
                        mode_index: int) -> neural.NetworkConfig:
    """The configuration of mode `mode_index`'s network (1-based), seeded by
    `_mode_seed` so mode i of every variant starts alike."""
    return replace(cfg.network, cell=cell, input_features=2,
                   seed=_mode_seed(cfg.train.seed, mode_index))


def _train_networks(window_sets: list[list[WindowedDataset]], cell: neural.CellKind,
                    cfg: PipelineConfig) -> list[list[neural.RecurrentNetwork]]:
    """One network per mode of each mode set in `window_sets`, configured by
    `mode_network_config`, all trained together by one `neural.train_many`
    call."""
    windows = [w for mode_set in window_sets for w in mode_set]
    net_cfgs = [mode_network_config(cfg, cell, i + 1) for mode_set in window_sets
                for i in range(len(mode_set))]
    trained = iter(neural.train_many(
        [w.inputs for w in windows], [w.targets for w in windows], net_cfgs,
        [replace(cfg.train, seed=net_cfg.seed) for net_cfg in net_cfgs]))
    return [[next(trained)[0] for _ in mode_set] for mode_set in window_sets]


def _fit_forecasters(series: TimeSeries, variants: Sequence[Variant],
                     cells: Sequence[neural.CellKind],
                     cfg: PipelineConfig) -> Iterator[EnsembleForecaster]:
    """Yield the forecaster of every (cell, variant) pair, cell by cell.

    The series is decomposed once if a variant reads the modes, and each
    mode's volatility fitted once (one `garch_mod.fit_many` call) if
    VMD-GARCH is asked for, whatever the number of cells.  Scalers,
    volatility source and training windows come from the leading split
    only; the windows are the leading rows of the channels the rolling
    forecast reads (`_channels`).  A cell's networks of every variant train
    together in one `_train_networks` call.
    """
    validate(series)
    n_train = _train_size(len(series), cfg)
    mode_set = garch_fits = None
    if any(v is not Variant.DIRECT for v in variants):
        mode_set = vmd.vmd_decompose(series, cfg.vmd)
    if Variant.VMD_GARCH in variants:
        garch_fits = garch_mod.fit_many(mode_set.modes[:, :n_train], cfg.garch,
                                        cfg.garch_options)
    plans = []  # (variant, values, mode models with network=None, windows)
    for variant in variants:
        values = series.values[None, :].copy() if variant is Variant.DIRECT else mode_set.modes
        models, windows = [], []
        for idx, mode_series in enumerate(values):
            model = ModeModel(scaler=fit_scaler(mode_series[:n_train]),
                              garch=garch_fits[idx] if variant is Variant.VMD_GARCH else None,
                              network=None)
            models.append(model)
            windows.append(build_windows(*_channels(variant, model, mode_series, n_train, 0),
                                         cfg.seq_len))
        plans.append((variant, values, models, windows))
    for cell in cells:
        networks = _train_networks([windows for *_, windows in plans], cell, cfg)
        for (variant, values, models, _), nets in zip(plans, networks):
            yield EnsembleForecaster(
                variant=variant, cell=cell, config=cfg,
                modes=None if variant is Variant.DIRECT else mode_set, mode_values=values,
                mode_models=tuple(replace(m, network=net)
                                  for m, net in zip(models, nets, strict=True)),
                train_size=n_train)


def fit_forecaster(series: TimeSeries, variant: Variant, cell: neural.CellKind,
                   cfg: PipelineConfig) -> EnsembleForecaster:
    """Build the full per-mode model bundle for one (variant, cell) pair."""
    return next(_fit_forecasters(series, (variant,), (cell,), cfg))


# ---------------------------------------------------------------------------
# Rolling one-step-ahead forecast
# ---------------------------------------------------------------------------

def rolling_forecast(forecaster: EnsembleForecaster, series: TimeSeries,
                     steps: int) -> ForecastResult:
    """One-step-ahead rolling forecast with actual-value appending.

    Step s predicts held-out slot s from the window that ends at the slot
    before it; the inverse-scaled per-mode predictions are summed.  Windows
    hold realized mode values and a volatility channel advanced over
    realized shocks, so all of them are known in advance and each mode's
    network runs once over the whole batch, all K in one
    `neural.predict_many` call.  With `retrain_every` = r > 0
    the networks are retrained on every slot seen so far after each r steps,
    and each segment of r steps takes the first r rows of one batched run
    over all remaining windows, so the first segment equals the run without
    retraining exactly.  Raises `SeriesMismatch` when the first
    train_size + steps values of `series` are not those of the fitted series.
    """
    cfg = forecaster.config
    n = len(series)
    k = len(forecaster.mode_models)
    if steps < 0:
        raise HorizonTooLong("steps must be >= 0")
    if steps > n - forecaster.train_size:
        raise HorizonTooLong(
            f"{steps} steps requested but only {n - forecaster.train_size} held-out points exist")
    # the windows come from the fitted modes, so `series` must be the fitted
    # series; for the decomposition, compare the residual it defines
    # (input - sum of modes), which that difference reproduces bit for bit
    used = forecaster.train_size + steps
    head = series.values[:used]
    if forecaster.modes is None:
        same = np.array_equal(head, forecaster.mode_values[0, :used])
    else:
        fitted = forecaster.modes
        same = np.array_equal(head - fitted.modes.sum(axis=0)[:used], fitted.residual[:used])
    if not same:
        raise SeriesMismatch(f"the first {used} values differ from the series the "
                             f"forecaster was fitted on")
    per_mode = np.empty((steps, k))
    predictions = np.empty(steps)
    actuals = series.values[forecaster.train_size:forecaster.train_size + steps].copy()
    if steps == 0:
        return ForecastResult(predictions=predictions, actuals=actuals, per_mode=per_mode)

    t0 = forecaster.train_size
    first = t0 - cfg.seq_len  # first slot of the first window
    channels = [_channels(forecaster.variant, m, forecaster.mode_values[i], t0, steps)
                for i, m in enumerate(forecaster.mode_models)]
    windows = [build_windows(values[first:], vol[first:], cfg.seq_len).inputs
               for values, vol in channels]
    networks = [m.network for m in forecaster.mode_models]
    segment = cfg.retrain_every if cfg.retrain_every > 0 else steps
    for start in range(0, steps, segment):
        if start > 0:
            (networks,) = _train_networks([[build_windows(values[:t0 + start], vol[:t0 + start],
                                                          cfg.seq_len)
                                            for values, vol in channels]], forecaster.cell, cfg)
        stop = min(start + segment, steps)
        preds = neural.predict_many(networks, [w[start:] for w in windows])
        for i, (model, pred_scaled) in enumerate(zip(forecaster.mode_models, preds)):
            per_mode[start:stop, i] = model.scaler.invert(pred_scaled[:stop - start])
    for s in range(steps):
        predictions[s] = aggregate(per_mode[s])
    return ForecastResult(predictions=predictions, actuals=actuals, per_mode=per_mode)


# ---------------------------------------------------------------------------
# Comparison matrix
# ---------------------------------------------------------------------------

def compare_models(series: TimeSeries, steps_list: list[int],
                   cells: list[neural.CellKind], cfg: PipelineConfig) -> list[ComparisonRow]:
    """Run the 3 variants x len(cells) matrix at every horizon in steps_list.

    Every model comes from one `_fit_forecasters` pass, so all share one
    decomposition, one volatility fit per mode (a fit depends only on the
    mode's training segment and the model order) and identical per-mode
    seeds, and rows differ only by what the variant itself changes; each
    model equals the one `fit_forecaster` builds for its pair alone, bit for
    bit.  Horizons below 1 or past the held-out span raise `HorizonTooLong`
    before anything is fitted.  Each model runs one rolling forecast at
    max(steps_list), and shorter horizons score its prefix; that prefix
    equals a separate shorter forecast up to rounding only, since a batched
    network pass can round a row differently at another batch size.
    """
    if not steps_list:
        raise LengthMismatch("steps_list must be nonempty")
    validate(series)
    held_out = len(series) - _train_size(len(series), cfg)
    bad = [h for h in steps_list if not 1 <= h <= held_out]
    if bad:
        raise HorizonTooLong(f"horizons {bad} outside 1..{held_out}, the held-out span")
    max_steps = max(steps_list)
    variants = (Variant.DIRECT, Variant.VMD, Variant.VMD_GARCH)
    rows: list[ComparisonRow] = []
    for fc in _fit_forecasters(series, variants, cells, cfg):
        result = rolling_forecast(fc, series, max_steps)
        label = f"{fc.variant.label_prefix}{fc.cell.name}"
        for h in steps_list:
            rows.append(ComparisonRow(
                model=label, variant=fc.variant, cell=fc.cell, horizon=h,
                report=metrics(result.actuals[:h], result.predictions[:h], horizon=h)))
    return rows
