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
* A forecaster (`EnsembleForecaster`) holds only what fitting produced, as a
  model directory does, and refuses parts that disagree.  The training size,
  scalers, volatility channel (`_channels`) and network configurations
  (`mode_network_config`) are derived from it here only.
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
    ConfigError,
    HorizonTooLong,
    LengthMismatch,
    SeriesMismatch,
    ShapeMismatch,
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

    def __post_init__(self):
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.retrain_every < 0:
            raise ConfigError(f"retrain_every must be >= 0, got {self.retrain_every}")


@dataclass(frozen=True)
class WindowedDataset:
    """Sliding windows: sample i covers slots [i, i+seq_len), target slot i+seq_len."""

    inputs: np.ndarray   # (N, seq_len, 2): value column 0, volatility column 1
    targets: np.ndarray  # (N,)
    seq_len: int


def _check_array(name: str, a, shape: tuple[int, ...]) -> None:
    """Raise `ShapeMismatch` unless `a` is float64 of `shape` (-1 matches any length)."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == len(shape)
            and all(want in (-1, got) for want, got in zip(shape, a.shape))):
        raise ShapeMismatch(f"{name} is not a float64 array of shape {shape}")


@dataclass(frozen=True)
class EnsembleForecaster:
    """What fitting produced, as a model directory holds it.  Construction raises
    `ShapeMismatch` unless the parts agree with each other and with `config`
    (`TooShort` unless the T slots split), so every record saves and loads back."""

    variant: Variant
    cell: neural.CellKind
    config: PipelineConfig
    modes: vmd.ModeSet | None                     # None for the direct variant
    mode_values: np.ndarray                       # (K, T) series each net is trained/evaluated on
    garch: tuple[garch_mod.GarchFit, ...] | None  # one fit per mode, VMD-GARCH only
    networks: np.ndarray                          # (K, P) parameter vectors, mode by mode

    def __post_init__(self):
        decomposes = self.variant is not Variant.DIRECT
        for name, wanted in (("modes", decomposes), ("garch", self.variant is Variant.VMD_GARCH)):
            if (getattr(self, name) is None) == wanted:
                raise ShapeMismatch(f"{name} must {'' if wanted else 'not '}be given "
                                    f"for the {self.variant.value} variant")
        k = self.config.vmd.n_modes if decomposes else 1
        _check_array("mode_values", self.mode_values, (k, -1))
        t_len, train_size = self.mode_values.shape[1], self.train_size
        if decomposes:
            if self.modes.modes is not self.mode_values:
                raise ShapeMismatch("modes.modes is not the mode_values array")
            _check_array("omegas", self.modes.omegas, (k,))
            _check_array("residual", self.modes.residual, (t_len,))
        _check_array("networks", self.networks,
                     (k, neural.parameter_count(mode_network_config(self.config, self.cell, 1))))
        if self.garch is not None and len(self.garch) != k:
            raise ShapeMismatch(f"garch holds {len(self.garch)} fits, not {k}")
        for i, fit in enumerate(self.garch or ()):
            _check_array(f"garch[{i}].alphas", fit.params.alphas, (self.config.garch.k,))
            _check_array(f"garch[{i}].betas", fit.params.betas, (self.config.garch.l,))
            _check_array(f"garch[{i}].sigma2_path", fit.sigma2_path, (train_size,))
            _check_array(f"garch[{i}].residuals", fit.residuals, (train_size,))

    @property
    def train_size(self) -> int:
        return _train_size(self.mode_values.shape[1], self.config)


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


def _channels(variant: Variant, scaler: MinMaxScaler, fit: garch_mod.GarchFit | None,
              mode_series: np.ndarray, train_size: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled value and volatility channels over the training slots and `steps`
    held-out slots, the held-out ones filled from realized mode values only.
    With `steps` = 0 they are the channels the mode's network trains on: the
    leading slots of `extend_sigma2` are the fit's own `sigma2_path`."""
    values = scaler.apply(mode_series[:train_size + steps])
    if variant is Variant.DIRECT:
        return values, values
    if variant is Variant.VMD:
        return values, np.zeros(train_size + steps)
    held = mode_series[train_size:train_size + steps]
    if fit.used_differencing:
        held = held - mode_series[train_size - 1:train_size + steps - 1]
    s2 = garch_mod.extend_sigma2(fit, held - fit.mean)
    # sigma shares the mode's units, so scale it by the value span anchored at
    # zero: a negligible volatility stays a negligible input instead of being
    # stretched into a full-range noise channel
    return values, MinMaxScaler(0.0, scaler.hi - scaler.lo).apply(np.sqrt(s2))


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


def held_out_span(series: TimeSeries, cfg: PipelineConfig) -> int:
    """The slots of `series` after its training split under `cfg`, the most
    steps a forecaster fitted on it can roll; raises what `validate` and the
    split raise."""
    validate(series)
    return len(series) - _train_size(len(series), cfg)


def check_horizons(horizons: Sequence[int], held_out: int, least: int = 1) -> None:
    """Raise `HorizonTooLong` unless every horizon lies in least..held_out."""
    bad = [h for h in horizons if not least <= h <= held_out]
    if bad:
        raise HorizonTooLong(f"horizons {bad} outside {least}..{held_out}, the held-out span")


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
        garch_fits = tuple(garch_mod.fit_many(mode_set.modes[:, :n_train], cfg.garch,
                                              cfg.garch_options))
    plans = []  # (variant, values, fits, windows)
    for variant in variants:
        values = series.values[None, :].copy() if variant is Variant.DIRECT else mode_set.modes
        fits = garch_fits if variant is Variant.VMD_GARCH else None
        windows = [build_windows(*_channels(variant, fit_scaler(mode_series[:n_train]), fit,
                                            mode_series, n_train, 0), cfg.seq_len)
                   for mode_series, fit in zip(values, fits or (None,) * len(values))]
        plans.append((variant, values, fits, windows))
    for cell in cells:
        networks = _train_networks([windows for *_, windows in plans], cell, cfg)
        for (variant, values, fits, _), nets in zip(plans, networks):
            yield EnsembleForecaster(
                variant=variant, cell=cell, config=cfg,
                modes=None if variant is Variant.DIRECT else mode_set, mode_values=values,
                garch=fits, networks=np.stack([net.flat for net in nets]))


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
    network runs once over the whole batch, all K in one `predict_many`
    call.  With `retrain_every` = r > 0 the networks are retrained on every
    slot seen so far after each r steps, and each segment of r steps takes
    the first r rows of one batched run over all remaining windows, so the
    first segment equals the run without retraining exactly.  Raises
    `SeriesMismatch` when the first train_size + steps values of `series`
    are not those of the fitted series.
    """
    cfg = forecaster.config
    t0 = forecaster.train_size
    n = len(series)
    k = len(forecaster.mode_values)
    check_horizons([steps], n - t0, least=0)
    # the windows come from the fitted modes, so `series` must be the fitted
    # series; for the decomposition, compare the residual it defines
    # (input - sum of modes), which that difference reproduces bit for bit
    used = t0 + steps
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
    actuals = series.values[t0:used].copy()
    if steps == 0:
        return ForecastResult(predictions=predictions, actuals=actuals, per_mode=per_mode)

    first = t0 - cfg.seq_len  # first slot of the first window
    scalers = [fit_scaler(values[:t0]) for values in forecaster.mode_values]
    channels = [_channels(forecaster.variant, scaler, fit, values, t0, steps) for scaler, fit, values
                in zip(scalers, forecaster.garch or (None,) * k, forecaster.mode_values)]
    windows = [build_windows(values[first:], vol[first:], cfg.seq_len).inputs
               for values, vol in channels]
    networks = [neural._network(mode_network_config(cfg, forecaster.cell, i + 1), flat)
                for i, flat in enumerate(forecaster.networks)]
    segment = cfg.retrain_every if cfg.retrain_every > 0 else steps
    for start in range(0, steps, segment):
        if start > 0:
            (networks,) = _train_networks([[build_windows(values[:t0 + start], vol[:t0 + start],
                                                          cfg.seq_len)
                                            for values, vol in channels]], forecaster.cell, cfg)
        stop = min(start + segment, steps)
        preds = neural.predict_many(networks, [w[start:] for w in windows])
        for i, (scaler, pred_scaled) in enumerate(zip(scalers, preds)):
            per_mode[start:stop, i] = scaler.invert(pred_scaled[:stop - start])
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
    check_horizons(steps_list, held_out_span(series, cfg))
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
