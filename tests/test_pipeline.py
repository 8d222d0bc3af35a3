from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config, wavy_series
from modecast.errors import (
    HorizonTooLong,
    LengthMismatch,
    SeriesMismatch,
    ShapeMismatch,
    TooShort,
    ZeroActual,
)
from modecast import neural, pipeline
from modecast.neural import CellKind
from modecast.pipeline import (
    EnsembleForecaster,
    PipelineConfig,
    Variant,
    aggregate,
    build_windows,
    compare_models,
    fit_forecaster,
    mape_percent,
    metrics,
    rolling_forecast,
)
from modecast.series import SplitSpec, TimeSeries, fit_scaler
from modecast.vmd import VmdConfig


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_metrics_identity():
    report = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert report.rmse == 0.0 and report.mae == 0.0 and report.mape == 0.0


def test_metrics_hand_case():
    report = metrics([100.0, 200.0], [110.0, 190.0])
    assert report.mae == pytest.approx(10.0)
    assert report.rmse == pytest.approx(10.0)
    assert report.mape == pytest.approx(7.5)


def test_metrics_zero_actual():
    with pytest.raises(ZeroActual):
        mape_percent(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    report = metrics([0.0, 1.0], [1.0, 1.0])  # rmse/mae still reported
    assert report.mape is None
    assert report.rmse == pytest.approx(math.sqrt(0.5))
    assert report.mae == pytest.approx(0.5)


def test_metrics_length_mismatch():
    with pytest.raises(LengthMismatch):
        metrics([1.0, 2.0], [1.0])


@settings(max_examples=200)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_rmse_at_least_mae(actual, predicted):
    n = min(len(actual), len(predicted))
    report = metrics(actual[:n], predicted[:n])
    assert report.rmse >= report.mae - 1e-12


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def test_aggregate_hand_case():
    assert aggregate([0.1, 0.2, -0.05]) == pytest.approx(0.25)
    assert aggregate([3.25]) == 3.25


def test_aggregate_wide_magnitudes_vs_exact_sum():
    rng = np.random.default_rng(0)
    wide = [rng.uniform(-1, 1) * 10.0 ** e for e in rng.integers(-10, 3, size=40)]
    # a compensated (Kahan) sum rounds this one 1 ulp away from the exact sum
    short = [3.431752679614066e-08, 69.00461831366928, 8.775036569597692e-09]
    for values in (wide, short):
        exact = float(sum(Fraction(v) for v in values))
        assert aggregate(values) == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))
        assert aggregate(values) == pytest.approx(math.fsum(values), abs=0.0)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def test_build_windows_counts():
    m = np.linspace(0, 1, 540)
    v = np.linspace(1, 0, 540)
    ds = build_windows(m, v, 50)
    assert ds.inputs.shape == (490, 50, 2)
    assert ds.targets.shape == (490,)


def test_build_windows_boundary_single_sample():
    ds = build_windows(np.arange(51.0), np.zeros(51), 50)
    assert ds.inputs.shape == (1, 50, 2)


def test_build_windows_too_short():
    with pytest.raises(TooShort):
        build_windows(np.arange(50.0), np.zeros(50), 50)


def test_build_windows_alignment():
    # the last value-row of window i is the observation preceding target i
    m = np.arange(100.0)
    ds = build_windows(m, np.zeros(100), 10)
    for i in (0, 37, 89):
        assert ds.inputs[i, -1, 0] == m[i + 9]
        assert ds.targets[i] == m[i + 10]


def test_build_windows_length_mismatch():
    with pytest.raises(LengthMismatch):
        build_windows(np.arange(60.0), np.zeros(59), 10)


# ---------------------------------------------------------------------------
# Forecaster construction
# ---------------------------------------------------------------------------

def test_direct_variant_single_model_no_decomposition():
    fc = fit_forecaster(wavy_series(), Variant.DIRECT, CellKind.RNN, small_config())
    assert len(fc.mode_values) == 1
    assert fc.modes is None
    assert fc.garch is None


def test_vmd_variant_one_model_per_mode():
    cfg = small_config(n_modes=3)
    fc = fit_forecaster(wavy_series(), Variant.VMD, CellKind.RNN, cfg)
    assert len(fc.mode_values) == 3
    assert fc.garch is None
    assert fc.modes is not None and fc.modes.n_modes == 3


def test_vmd_garch_variant_has_volatility_fits():
    cfg = small_config(n_modes=2)
    fc = fit_forecaster(wavy_series(), Variant.VMD_GARCH, CellKind.RNN, cfg)
    assert len(fc.mode_values) == 2
    for i in range(2):
        assert fc.garch[i] is not None
        # a fitted path, or the rolling fallback exactly when no search converged
        assert fc.garch[i].used_rolling_fallback == (not fc.garch[i].converged)
        assert np.all(fc.garch[i].sigma2_path > 0)


def test_single_mode_pure_tone_correlates_with_input():
    t = np.arange(300)
    tone = TimeSeries(np.cos(2 * np.pi * 0.1 * t))
    cfg = small_config(n_modes=1, epochs=1)
    fc = fit_forecaster(tone, Variant.VMD, CellKind.RNN, cfg)
    mode = fc.mode_values[0]
    c = np.corrcoef(mode, tone.values)[0, 1]
    assert c > 0.99


@pytest.mark.parametrize("variant", [Variant.VMD, Variant.VMD_GARCH])
@pytest.mark.parametrize("cell", list(CellKind))
def test_mode_networks_equal_nets_trained_one_by_one(variant, cell, monkeypatch):
    series, cfg = wavy_series(), small_config(n_modes=3)
    calls = []
    lockstep = neural.train_many
    monkeypatch.setattr(neural, "train_many", lambda *a: calls.append(len(a[0])) or lockstep(*a))
    together = fit_forecaster(series, variant, cell, cfg)
    assert calls == [3]  # the three mode networks in one call
    # `train` of each net: `train_many` of that net alone
    monkeypatch.setattr(neural, "train_many", lambda xs, ys, nets, trains: [
        lockstep([x], [y], [net], [tr])[0] for x, y, net, tr in zip(xs, ys, nets, trains)])
    one_by_one = fit_forecaster(series, variant, cell, cfg)
    # the network configurations derive from these
    assert (together.config, together.cell) == (one_by_one.config, one_by_one.cell)
    for got, want in zip(together.networks, one_by_one.networks, strict=True):
        assert np.array_equal(got, want)


@functools.cache
def _fitted_vmd_garch():
    return fit_forecaster(wavy_series(), Variant.VMD_GARCH, CellKind.RNN, small_config(epochs=1))


def _short_path(fc):
    first = fc.garch[0]
    return (dataclasses.replace(first, sigma2_path=first.sigma2_path[:-1]), *fc.garch[1:])


@pytest.mark.parametrize("change,match", [
    (lambda fc: {"variant": Variant.VMD}, "garch"),
    (lambda fc: {"variant": Variant.VMD, "garch": None, "modes": None}, "modes"),
    (lambda fc: {"mode_values": fc.mode_values.copy()}, "modes.modes"),
    (lambda fc: {"garch": _short_path(fc)}, "sigma2_path"),
    (lambda fc: {"garch": fc.garch[:-1]}, "garch"),
    (lambda fc: {"networks": fc.networks[:, :-1]}, "networks"),
], ids=["garch-on-vmd", "vmd-without-modes", "modes-not-mode-values", "path-one-short",
        "fit-missing", "network-one-short"])
def test_record_that_load_would_refuse_cannot_be_built(change, match):
    fc = _fitted_vmd_garch()
    dataclasses.replace(fc)  # the fitted record itself passes its checks
    with pytest.raises(ShapeMismatch, match=match):
        dataclasses.replace(fc, **change(fc))


def test_direct_record_with_a_network_of_another_width_cannot_be_built():
    # a network trained under other settings than the record's configuration:
    # saved, its directory would not load
    net = neural.init_network(neural.NetworkConfig(cell=CellKind.LSTM, hidden=4, seed=5))
    values = wavy_series(n=60).values[None, :].copy()
    with pytest.raises(ShapeMismatch, match="networks"):
        EnsembleForecaster(variant=Variant.DIRECT, cell=CellKind.LSTM,
                           config=PipelineConfig(vmd=VmdConfig(n_modes=1)), modes=None,
                           mode_values=values, garch=None, networks=net.flat[None])


def test_record_derives_its_training_size():
    fc = fit_forecaster(wavy_series(n=60), Variant.DIRECT, CellKind.RNN, small_config(epochs=1))
    assert fc.train_size == 48  # floor(0.8 * 60)
    longer = dataclasses.replace(fc.config, split=SplitSpec(0.9))
    assert dataclasses.replace(fc, config=longer).train_size == 54
    with pytest.raises(TooShort):
        dataclasses.replace(fc, mode_values=fc.mode_values[:, :12])


def test_mode_target_consistency():
    series = wavy_series()
    cfg = small_config(n_modes=3)
    fc = fit_forecaster(series, Variant.VMD, CellKind.RNN, cfg)
    rebuilt = fc.mode_values.sum(axis=0) + fc.modes.residual
    test_span = slice(fc.train_size, None)
    gap = np.abs(rebuilt[test_span] - series.values[test_span]).max()
    assert gap <= 1e-10 * np.abs(series.values).max()


# ---------------------------------------------------------------------------
# Rolling forecast
# ---------------------------------------------------------------------------

def test_rolling_zero_steps():
    fc = fit_forecaster(wavy_series(), Variant.DIRECT, CellKind.RNN, small_config())
    res = rolling_forecast(fc, wavy_series(), 0)
    assert res.predictions.size == 0
    assert res.per_mode.shape == (0, 1)


def test_rolling_horizon_too_long():
    series = wavy_series()
    fc = fit_forecaster(series, Variant.DIRECT, CellKind.RNN, small_config())
    with pytest.raises(HorizonTooLong):
        rolling_forecast(fc, series, len(series))


# offset -23: the series crosses zero, and modes.sum(0) + residual misses the
# input at a few slots, so the check must go through the residual itself
@pytest.mark.parametrize("offset", [0.0, -23.0])
@pytest.mark.parametrize("variant", list(Variant))
def test_rolling_rejects_another_series(variant, offset):
    series = TimeSeries(wavy_series().values + offset)
    fc = fit_forecaster(series, variant, CellKind.RNN, small_config(epochs=1))
    steps = 6
    used = fc.train_size + steps
    for slot in (0, fc.train_size - 1, used - 1):
        values = series.values.copy()
        values[slot] += 1e-9
        with pytest.raises(SeriesMismatch):
            rolling_forecast(fc, TimeSeries(values), steps)
    values = series.values.copy()
    values[used] += 1.0  # past the forecast: never read
    same = rolling_forecast(fc, TimeSeries(values), steps)
    assert np.array_equal(same.predictions, rolling_forecast(fc, series, steps).predictions)


def test_rolling_sum_is_bit_exact():
    series = wavy_series()
    cfg = small_config(n_modes=2)
    fc = fit_forecaster(series, Variant.VMD_GARCH, CellKind.RNN, cfg)
    res = rolling_forecast(fc, series, 8)
    for s in range(8):
        assert res.predictions[s] == aggregate(res.per_mode[s])


def test_rolling_actuals_are_original_test_values():
    series = wavy_series()
    fc = fit_forecaster(series, Variant.VMD, CellKind.RNN, small_config(n_modes=2))
    res = rolling_forecast(fc, series, 5)
    assert np.array_equal(res.actuals, series.values[fc.train_size:fc.train_size + 5])


def test_rolling_bit_reproducible():
    series = wavy_series()
    cfg = small_config(n_modes=2)
    a = rolling_forecast(fit_forecaster(series, Variant.VMD_GARCH, CellKind.GRU, cfg), series, 6)
    b = rolling_forecast(fit_forecaster(series, Variant.VMD_GARCH, CellKind.GRU, cfg), series, 6)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.per_mode, b.per_mode)


def test_retraining_switch_changes_later_steps():
    series = wavy_series()
    base = small_config(n_modes=1, epochs=1)
    fc = fit_forecaster(series, Variant.VMD, CellKind.RNN, base)
    still = rolling_forecast(fc, series, 8)
    retrain_cfg = dataclasses.replace(base, retrain_every=3)
    fc2 = fit_forecaster(series, Variant.VMD, CellKind.RNN, retrain_cfg)
    moving = rolling_forecast(fc2, series, 8)
    assert np.array_equal(still.predictions[:3], moving.predictions[:3])
    assert not np.array_equal(still.predictions, moving.predictions)


# ---------------------------------------------------------------------------
# Leakage canary
# ---------------------------------------------------------------------------

def test_no_leakage_from_mode_test_segments(monkeypatch):
    # perturbing only the test segment of the mode sequences must leave every
    # training artifact (scalers, volatility fits, network weights) unchanged
    series = wavy_series()
    cfg = small_config(n_modes=2)
    clean = fit_forecaster(series, Variant.VMD_GARCH, CellKind.RNN, cfg)
    perturbed = clean.modes.modes.copy()
    perturbed[:, clean.train_size:] += 17.0
    dirty_modes = dataclasses.replace(clean.modes, modes=perturbed)
    monkeypatch.setattr(pipeline.vmd, "vmd_decompose", lambda *args: dirty_modes)
    dirty = fit_forecaster(series, Variant.VMD_GARCH, CellKind.RNN, cfg)
    assert np.array_equal(dirty.mode_values, perturbed)  # the perturbed modes were read
    for i, (fit_a, fit_b) in enumerate(zip(clean.garch, dirty.garch, strict=True)):
        scaler_a = fit_scaler(clean.mode_values[i, :clean.train_size])
        scaler_b = fit_scaler(dirty.mode_values[i, :dirty.train_size])
        assert scaler_a == scaler_b
        # the training volatility channel, scaled by the value span
        vol_a = pipeline._channels(Variant.VMD_GARCH, scaler_a, fit_a, clean.mode_values[i],
                                   clean.train_size, 0)
        vol_b = pipeline._channels(Variant.VMD_GARCH, scaler_b, fit_b, dirty.mode_values[i],
                                   dirty.train_size, 0)
        assert np.array_equal(vol_a[1], vol_b[1])
        assert fit_a.params.alpha0 == fit_b.params.alpha0
        assert np.array_equal(clean.networks[i], dirty.networks[i])


def test_refit_on_extended_train_does_change_artifacts():
    # complementary canary: moving the split boundary really changes the fits
    series = wavy_series()
    cfg = small_config(n_modes=2)
    n_train = int(np.floor(cfg.split.train_fraction * len(series)))
    later = dataclasses.replace(cfg, split=SplitSpec((n_train + 10.5) / len(series)))
    a = fit_forecaster(series, Variant.VMD_GARCH, CellKind.RNN, cfg)
    b = fit_forecaster(series, Variant.VMD_GARCH, CellKind.RNN, later)
    assert (a.train_size, b.train_size) == (n_train, n_train + 10)
    assert fit_scaler(a.mode_values[0, :a.train_size]) != fit_scaler(b.mode_values[0, :b.train_size]) \
        or a.garch[0].params.alpha0 != b.garch[0].params.alpha0


# ---------------------------------------------------------------------------
# Comparison matrix
# ---------------------------------------------------------------------------

def test_compare_models_matrix_shape():
    series = wavy_series()
    cfg = small_config(n_modes=2, epochs=1)
    rows = compare_models(series, [5, 10], [CellKind.RNN, CellKind.GRU], cfg)
    assert len(rows) == 2 * 3 * 2  # cells x variants x horizons
    labels = {r.model for r in rows}
    assert labels == {"RNN", "VMD-RNN", "VMD-GARCH-RNN", "GRU", "VMD-GRU", "VMD-GARCH-GRU"}
    assert all(r.report.predictions.size == r.horizon for r in rows)


def test_compare_models_fits_each_mode_garch_once(monkeypatch):
    # one decomposition per comparison, none for the direct variant: the
    # benchmark's reconstruction check records `vmd.vmd_decompose` calls
    series = wavy_series()
    cfg = small_config(n_modes=3, epochs=1)
    cells = [CellKind.RNN, CellKind.GRU]
    batches, single, decompositions = [], [], []
    original, decompose = pipeline.garch_mod.fit_many, pipeline.vmd.vmd_decompose

    def counting_fit_many(sources, *args, **kwargs):
        batches.append(len(sources))
        return original(sources, *args, **kwargs)

    monkeypatch.setattr(pipeline.garch_mod, "fit_many", counting_fit_many)
    monkeypatch.setattr(pipeline.garch_mod, "fit", lambda *args, **kwargs: single.append(args))
    monkeypatch.setattr(pipeline.vmd, "vmd_decompose",
                        lambda *args: decompositions.append(args) or decompose(*args))
    rows = compare_models(series, [4, 8], cells, cfg)
    assert batches == [cfg.vmd.n_modes] and single == [] and len(decompositions) == 1
    fit_forecaster(series, Variant.DIRECT, CellKind.RNN, cfg)
    assert batches == [cfg.vmd.n_modes] and len(decompositions) == 1
    monkeypatch.undo()
    for cell in cells:
        fc = fit_forecaster(series, Variant.VMD_GARCH, cell, cfg)
        alone = rolling_forecast(fc, series, 8)
        (row,) = [r for r in rows
                  if r.cell is cell and r.variant is Variant.VMD_GARCH and r.horizon == 8]
        assert np.array_equal(row.report.predictions, alone.predictions)


def test_compare_models_trains_each_cell_in_one_call(monkeypatch):
    series, cfg = wavy_series(), small_config(n_modes=3, epochs=1)
    cells = [CellKind.RNN, CellKind.LSTM]
    calls = []
    lockstep = neural.train_many
    monkeypatch.setattr(neural, "train_many", lambda *a: calls.append(len(a[0])) or lockstep(*a))
    rows = compare_models(series, [6], cells, cfg)
    monkeypatch.undo()
    assert calls == [1 + 2 * cfg.vmd.n_modes] * len(cells)  # direct, VMD and VMD-GARCH nets
    for row in rows:
        alone = rolling_forecast(fit_forecaster(series, row.variant, row.cell, cfg), series, 6)
        assert np.array_equal(row.report.predictions, alone.predictions), row.model


def test_compare_models_requires_horizons():
    with pytest.raises(LengthMismatch):
        compare_models(wavy_series(), [], [CellKind.RNN], small_config())


@pytest.mark.parametrize("horizons", [[5, -2], [0], [5, 45]])
def test_compare_models_rejects_horizons_outside_held_out_span(horizons, monkeypatch):
    # wavy_series: 220 points, 176 in training, so horizons run 1..44
    fitted = []
    monkeypatch.setattr(pipeline.vmd, "vmd_decompose", lambda *args: fitted.append(args))
    monkeypatch.setattr(neural, "train_many", lambda *args: fitted.append(args))
    with pytest.raises(HorizonTooLong):
        compare_models(wavy_series(), horizons, [CellKind.RNN], small_config())
    assert fitted == []  # rejected before anything is fitted


def test_compare_models_accepts_whole_held_out_span():
    rows = compare_models(wavy_series(), [1, 44], [CellKind.RNN], small_config(epochs=1))
    assert [r.report.predictions.size for r in rows] == [1, 44] * 3


def test_reference_shape_ten_modes_tenth_order(tmp_path):
    # structural: the full reference protocol shape (ten modes, tenth-order
    # variance model, 50-step windows) yields ten mode models, each carrying
    # a volatility fit or a flagged fallback; one epoch keeps this affordable
    from pathlib import Path

    from modecast.data import load_csv
    from modecast.garch import FitOptions, GarchSpec
    from modecast.neural import NetworkConfig, TrainConfig
    from modecast.pipeline import PipelineConfig
    from modecast.series import SplitSpec
    from modecast.vmd import VmdConfig

    fixture = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"
    series = load_csv(fixture)
    cfg = PipelineConfig(
        vmd=VmdConfig(n_modes=10, alpha=2000.0),
        garch=GarchSpec(10, 10),
        network=NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=64, input_features=2,
                              dropout_rate=0.2, seed=0),
        train=TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=0),
        split=SplitSpec(0.85),
        seq_len=50,
        garch_options=FitOptions(),
    )
    fc = fit_forecaster(series, Variant.VMD_GARCH, CellKind.LSTM, cfg)
    assert len(fc.mode_values) == 10
    assert fc.train_size == 540  # floor(0.85 * 636)
    for i in range(10):
        assert fc.garch[i] is not None
        assert fc.garch[i].used_rolling_fallback == (not fc.garch[i].converged)
    # trend-like low-frequency modes go through the differencing gate
    assert fc.garch[0].used_differencing
