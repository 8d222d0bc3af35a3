"""The batched rolling forecast against the step-by-step loop it replaced.

`_reference_forecast` keeps the former per-step loop: one batch-1 network
pass per step and mode, with the realized value and the advanced volatility
slot appended after each step.  Its rolling-fallback branch follows the
trailing shock window of `garch.rolling_sigma2`, one slot at a time.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config, wavy_series
from modecast import garch, neural, pipeline
from modecast.neural import CellKind
from modecast.pipeline import Variant, aggregate, build_windows, fit_forecaster, rolling_forecast
from modecast.series import MinMaxScaler, fit_scaler

STEPS = 8


class _ReferenceModeState:
    """Per-mode window state advanced one slot at a time."""

    def __init__(self, variant, scaler, fit, mode_series, train_size):
        self.variant = variant
        self.scaler = scaler
        self.fit = fit
        self.raw = list(mode_series[:train_size])
        self.scaled_values = list(scaler.apply(np.asarray(self.raw)))
        if variant is Variant.VMD_GARCH:
            self.vol_scaler = MinMaxScaler(0.0, scaler.hi - scaler.lo)
            self.a = list(fit.residuals)
            self.s2 = list(fit.sigma2_path)
            self.scaled_vol = list(self.vol_scaler.apply(np.sqrt(fit.sigma2_path)))
        elif variant is Variant.DIRECT:
            self.scaled_vol = list(self.scaled_values)
        else:
            self.scaled_vol = [0.0] * train_size

    def window(self, seq_len):
        w = np.empty((seq_len, 2))
        w[:, 0] = self.scaled_values[-seq_len:]
        w[:, 1] = self.scaled_vol[-seq_len:]
        return w

    def append_actual(self, value):
        self.raw.append(value)
        self.scaled_values.append(float(self.scaler.apply(value)))
        fit = self.fit
        if self.variant is Variant.VMD_GARCH:
            if fit.used_differencing:
                shock = (self.raw[-1] - self.raw[-2]) - fit.mean
            else:
                shock = value - fit.mean
            if not fit.used_rolling_fallback:  # the recursion's per-slot sum
                params = fit.params
                s2_next = params.alpha0
                for i in range(1, params.k + 1):
                    s2_next += params.alphas[i - 1] * self.a[-i] ** 2
                for j in range(1, params.l + 1):
                    s2_next += params.betas[j - 1] * self.s2[-j]
                s2_next = float(s2_next)
                self.a.append(shock)
            else:
                self.a.append(shock)
                var = float(np.var(np.asarray(self.a[-garch.ROLLING_WINDOW:])))
                s2_next = max(var, garch.rolling_floor(fit.residuals))
            self.s2.append(s2_next)
            vol = math.sqrt(s2_next)
            self.scaled_vol.append(float(self.vol_scaler.apply(vol)))
        elif self.variant is Variant.DIRECT:
            self.scaled_vol.append(self.scaled_values[-1])
        else:
            self.scaled_vol.append(0.0)


def _reference_forecast(forecaster, steps):
    """(predictions, per_mode, windows): windows[i][s] is mode i's input at step s."""
    cfg = forecaster.config
    k = len(forecaster.mode_values)
    t0 = forecaster.train_size
    per_mode = np.empty((steps, k))
    predictions = np.empty(steps)
    windows = [np.empty((steps, cfg.seq_len, 2)) for _ in range(k)]
    fits = forecaster.garch or [None] * k
    states = [_ReferenceModeState(forecaster.variant, fit_scaler(forecaster.mode_values[i, :t0]),
                                  fits[i], forecaster.mode_values[i], t0)
              for i in range(k)]
    networks = [neural._network(dataclasses.replace(cfg.network, input_features=2,
                                                    seed=pipeline._mode_seed(cfg.train.seed, i + 1)),
                                forecaster.networks[i])
                for i in range(k)]
    for s in range(steps):
        for i, state in enumerate(states):
            windows[i][s] = state.window(cfg.seq_len)
            pred_scaled = neural.predict(networks[i], windows[i][s][None])[0]
            per_mode[s, i] = float(state.scaler.invert(pred_scaled))
        predictions[s] = aggregate(per_mode[s])
        for i, state in enumerate(states):
            state.append_actual(float(forecaster.mode_values[i, forecaster.train_size + s]))
        if cfg.retrain_every > 0 and (s + 1) % cfg.retrain_every == 0 and s + 1 < steps:
            for i, state in enumerate(states):
                ds = build_windows(np.asarray(state.scaled_values),
                                   np.asarray(state.scaled_vol), cfg.seq_len)
                seed = pipeline._mode_seed(cfg.train.seed, i + 1)
                net_cfg = dataclasses.replace(cfg.network, input_features=2, seed=seed)
                networks[i], _ = neural.train(ds.inputs, ds.targets, net_cfg,
                                              dataclasses.replace(cfg.train, seed=seed))
    return predictions, per_mode, windows


def _fit(cell, variant, fallback):
    cfg = small_config(n_modes=2, epochs=1)
    if fallback:  # one simplex iteration never converges: every mode falls back
        cfg = dataclasses.replace(cfg, garch=dataclasses.replace(cfg.garch, max_iter=1))
    return fit_forecaster(wavy_series(), variant, cell, cfg)


_forecaster = functools.cache(_fit)


_CASES = [(cell, variant, False) for cell in CellKind for variant in Variant]
_CASES.append((CellKind.GRU, Variant.VMD_GARCH, True))
_IDS = [f"{c.value}-{v.value}{'-fallback' if f else ''}" for c, v, f in _CASES]


@pytest.mark.parametrize("retrain_every", [0, 3])
@pytest.mark.parametrize("cell,variant,fallback", _CASES, ids=_IDS)
def test_batched_forecast_matches_step_loop(monkeypatch, cell, variant, fallback, retrain_every):
    base = _forecaster(cell, variant, fallback)
    if fallback:
        assert all(fit.used_rolling_fallback for fit in base.garch)
    fc = dataclasses.replace(base, config=dataclasses.replace(base.config,
                                                              retrain_every=retrain_every))
    ref_pred, ref_per_mode, ref_windows = _reference_forecast(fc, STEPS)

    calls, single_calls = [], []
    predict_many, predict = neural.predict_many, neural.predict
    monkeypatch.setattr(neural, "predict_many", lambda nets, seqs: calls.append(
        (list(nets), [np.array(s) for s in seqs])) or predict_many(nets, seqs))
    monkeypatch.setattr(neural, "predict",
                        lambda *a, **kw: single_calls.append(1) or predict(*a, **kw))
    res = rolling_forecast(fc, wavy_series(), STEPS)
    monkeypatch.undo()

    k = len(fc.mode_values)
    starts = list(range(0, STEPS, retrain_every or STEPS))
    assert len(calls) == len(starts) and not single_calls
    for i, net in enumerate(calls[0][0]):  # the fitted networks, as the record derives them
        assert np.array_equal(net.flat, fc.networks[i])
        assert net.config == pipeline.mode_network_config(fc.config, i + 1)
    for (nets, batches), start in zip(calls, starts):
        assert len(nets) == len(batches) == k
        for i in range(k):
            assert np.array_equal(batches[i], ref_windows[i][start:])
    np.testing.assert_allclose(res.predictions, ref_pred, rtol=1e-12, atol=0.0)
    scale = np.abs(ref_per_mode).max(axis=0)
    np.testing.assert_allclose(res.per_mode, ref_per_mode, rtol=1e-12, atol=1e-12 * scale.max())
    for s in range(STEPS):
        assert res.predictions[s] == aggregate(res.per_mode[s])
    if retrain_every:
        still = rolling_forecast(base, wavy_series(), STEPS)
        assert np.array_equal(res.predictions[:retrain_every], still.predictions[:retrain_every])
        assert np.array_equal(res.per_mode[:retrain_every], still.per_mode[:retrain_every])


@pytest.mark.parametrize("cell,variant,fallback", _CASES, ids=_IDS)
def test_training_windows_match_reference_state(monkeypatch, cell, variant, fallback):
    # the networks train on the windows of the reference state's initial
    # lists: scaled training values and the scaled fitted volatility path
    captured = []
    train_many = neural.train_many
    monkeypatch.setattr(neural, "train_many", lambda xs, ys, *rest: captured.append((xs, ys))
                        or train_many(xs, ys, *rest))
    fc = _fit(cell, variant, fallback)
    monkeypatch.undo()
    ((inputs, targets),) = captured
    k = len(fc.mode_values)
    assert len(inputs) == k
    for i, fit in enumerate(fc.garch or [None] * k):
        state = _ReferenceModeState(variant, fit_scaler(fc.mode_values[i, :fc.train_size]), fit,
                                    fc.mode_values[i], fc.train_size)
        want = build_windows(np.asarray(state.scaled_values), np.asarray(state.scaled_vol),
                             fc.config.seq_len)
        assert np.array_equal(inputs[i], want.inputs)
        assert np.array_equal(targets[i], want.targets)


def _loop_build_windows(mode_scaled, vol_scaled, seq_len):
    m = np.asarray(mode_scaled, dtype=float).reshape(-1)
    v = np.asarray(vol_scaled, dtype=float).reshape(-1)
    n = m.size - seq_len
    inputs = np.empty((n, seq_len, 2))
    for i in range(n):
        inputs[i, :, 0] = m[i:i + seq_len]
        inputs[i, :, 1] = v[i:i + seq_len]
    return inputs, m[seq_len:].copy()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 80), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_build_windows_equals_loop(n_extra, seq_len, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(seq_len + n_extra) * 10.0 ** rng.integers(-8, 8)
    v = rng.standard_normal(seq_len + n_extra)
    ds = build_windows(m, v, seq_len)
    inputs, targets = _loop_build_windows(m, v, seq_len)
    assert np.array_equal(ds.inputs, inputs) and np.array_equal(ds.targets, targets)
    m[:] = 0.0  # the windows are a copy, not a view of the input
    assert np.array_equal(ds.inputs, inputs)
