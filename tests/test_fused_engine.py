"""The fused recurrent engine against the per-gate loops it replaced.

`_reference_forward` and `_reference_backward` keep the former engine: one
matmul per gate over the concatenated [h_prev, x] at every step, activations
stored batch-major, and weight gradients accumulated inside the time loop.
`_reference_init` keeps the former initialization: one array drawn per named
parameter.  They keep the former per-gate shape table (`_gate_shapes`) and
read per-gate views of the stacked (w, b) (`_layer_gates`), so both engines
run on the same parameter values.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from modecast import neural
from modecast.persist import load_forecaster, save_forecaster
from modecast.pipeline import EnsembleForecaster, PipelineConfig, Variant, mode_network_config
from modecast.vmd import VmdConfig
from modecast.neural import (
    CellKind,
    NetworkConfig,
    TrainConfig,
    _forward_batch,
    _network,
    backward,
    init_network,
    predict,
    train,
)
from test_neural import _one_step

RTOL = 1e-12
SEQ_LEN = 7
HIDDEN = 5


def _sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in four passes, in place on numpy's vectorized `exp`:
    the plain formula, whose floats the engine's steps reproduce in three
    passes over sums they hold negated."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _gate_shapes(kind: CellKind, h: int, d: int) -> dict[str, tuple[int, ...]]:
    """One layer's per-gate parameters, in the order the former initialization drew them."""
    if kind is CellKind.RNN:
        return {"W_hh": (h, h), "W_xh": (h, d), "b_h": (h,)}
    if kind is CellKind.GRU:
        return {"W_z": (h, h + d), "W_r": (h, h + d), "W": (h, h + d)}
    return {"W_f": (h, h + d), "b_f": (h,), "W_i": (h, h + d), "b_i": (h,),
            "W_c": (h, h + d), "b_c": (h,), "W_o": (h, h + d), "b_o": (h,)}


def _layer_gates(net) -> list[dict[str, np.ndarray]]:
    """Per layer: name -> view of each gate block of the stacked (w, b), whose
    memory-cell rows run f, i, o, c."""
    h, layers = net.config.hidden, []
    for w, b in net.stacked:
        if net.config.cell is CellKind.RNN:
            gates = {"W_hh": w[:, :h], "W_xh": w[:, h:], "b_h": b}
        elif net.config.cell is CellKind.GRU:
            gates = {"W_z": w[:h], "W_r": w[h:2 * h], "W": w[2 * h:]}
        else:
            gates = {}
            for k, g in enumerate("fioc"):
                gates[f"W_{g}"], gates[f"b_{g}"] = w[k * h:(k + 1) * h], b[k * h:(k + 1) * h]
        layers.append(gates)
    return layers


def _named(net) -> dict[str, np.ndarray]:
    """Name -> view of every parameter of `net`, layer by layer, then the head."""
    named = {f"L{layer}.{key}": view for layer, gates in enumerate(_layer_gates(net))
             for key, view in gates.items()}
    named["head.w_hy"], named["head.b_y"] = net.head.w_hy, net.head.b_y
    return named


def _reference_init(config: NetworkConfig) -> np.ndarray:
    """The flat vector of one array drawn per named parameter, in `_gate_shapes` order."""
    rng = np.random.default_rng(config.seed)
    vec = np.full(neural.parameter_count(config), np.nan)
    views = _named(_network(config, vec))
    for layer in range(config.layers):
        d_in = config.input_features if layer == 0 else config.hidden
        for key, shape in _gate_shapes(config.cell, config.hidden, d_in).items():
            fan_in = shape[-1] if len(shape) > 1 else config.hidden + d_in
            bound = 1.0 / math.sqrt(fan_in)
            views[f"L{layer}.{key}"][...] = rng.uniform(-bound, bound, size=shape)
    bound = 1.0 / math.sqrt(config.hidden)
    views["head.w_hy"][...] = rng.uniform(-bound, bound, size=config.hidden)
    views["head.b_y"][...] = float(rng.uniform(-bound, bound))
    return vec


def _reference_forward(net, batch, training, rng):
    cfg = net.config
    b, seq_len, _ = batch.shape
    kind, h_dim = cfg.cell, cfg.hidden
    inputs, hidden, gates, masks = [], [], [], []
    current = batch
    for layer, params in enumerate(_layer_gates(net)):
        inputs.append(current)
        h = np.zeros((b, h_dim))
        c = np.zeros((b, h_dim))
        h_seq = np.empty((b, seq_len, h_dim))
        layer_gates = {key: np.empty((b, seq_len, h_dim))
                       for key in (("z", "r", "hc") if kind is CellKind.GRU else
                                   ("f", "i", "o", "cc", "c") if kind is CellKind.LSTM else ())}
        for t in range(seq_len):
            x_t = current[:, t, :]
            if kind is CellKind.RNN:
                h = np.tanh(h @ params["W_hh"].T + x_t @ params["W_xh"].T + params["b_h"])
            elif kind is CellKind.GRU:
                u = np.concatenate([h, x_t], axis=1)
                z = _sigmoid(u @ params["W_z"].T)
                r = _sigmoid(u @ params["W_r"].T)
                v = np.concatenate([r * h, x_t], axis=1)
                hc = np.tanh(v @ params["W"].T)
                layer_gates["z"][:, t], layer_gates["r"][:, t], layer_gates["hc"][:, t] = z, r, hc
                h = (1.0 - z) * h + z * hc
            else:
                u = np.concatenate([h, x_t], axis=1)
                f = _sigmoid(u @ params["W_f"].T + params["b_f"])
                i = _sigmoid(u @ params["W_i"].T + params["b_i"])
                o = _sigmoid(u @ params["W_o"].T + params["b_o"])
                cc = np.tanh(u @ params["W_c"].T + params["b_c"])
                c = f * c + i * cc
                for key, value in zip(("f", "i", "o", "cc", "c"), (f, i, o, cc, c)):
                    layer_gates[key][:, t] = value
                h = o * np.tanh(c)
            h_seq[:, t] = h
        hidden.append(h_seq)
        gates.append(layer_gates)
        if training and cfg.dropout_rate > 0.0:
            keep = 1.0 - cfg.dropout_rate
            mask = (rng.random((b, seq_len, h_dim)) < keep) / keep
        else:
            mask = np.ones((b, seq_len, h_dim))
        masks.append(mask)
        current = h_seq * mask
    dropped_last = current[:, -1, :]
    preds = dropped_last @ net.head.w_hy + net.head.b_y
    return dict(inputs=inputs, hidden=hidden, gates=gates, masks=masks,
                dropped_last=dropped_last, predictions=preds)


def _reference_backward(net, cache, d_pred) -> dict[str, np.ndarray]:
    cfg = net.config
    kind, h_dim = cfg.cell, cfg.hidden
    b = d_pred.size
    layers = _layer_gates(net)
    layer_grads = [{k: np.zeros_like(v) for k, v in p.items()} for p in layers]
    seq_len = cache["inputs"][0].shape[1]
    d_out = np.zeros((b, seq_len, h_dim))
    d_out[:, -1, :] = d_pred[:, None] * net.head.w_hy[None, :]
    for layer in range(cfg.layers - 1, -1, -1):
        params, grads = layers[layer], layer_grads[layer]
        x_seq, h_seq, gate = cache["inputs"][layer], cache["hidden"][layer], cache["gates"][layer]
        d_hidden = d_out * cache["masks"][layer]
        d_x = np.zeros_like(x_seq)
        dh_next = np.zeros((b, h_dim))
        dc_next = np.zeros((b, h_dim))
        for t in range(seq_len - 1, -1, -1):
            dh = d_hidden[:, t] + dh_next
            h_prev = h_seq[:, t - 1] if t > 0 else np.zeros((b, h_dim))
            x_t = x_seq[:, t]
            if kind is CellKind.RNN:
                d_pre = dh * (1.0 - h_seq[:, t] * h_seq[:, t])
                grads["W_hh"] += d_pre.T @ h_prev
                grads["W_xh"] += d_pre.T @ x_t
                grads["b_h"] += d_pre.sum(axis=0)
                dh_next = d_pre @ params["W_hh"]
                d_x[:, t] = d_pre @ params["W_xh"]
            elif kind is CellKind.GRU:
                z, r, hc = gate["z"][:, t], gate["r"][:, t], gate["hc"][:, t]
                u = np.concatenate([h_prev, x_t], axis=1)
                v = np.concatenate([r * h_prev, x_t], axis=1)
                d_av = dh * z * (1.0 - hc * hc)
                grads["W"] += d_av.T @ v
                d_v = d_av @ params["W"]
                d_rh = d_v[:, :h_dim]
                d_az = dh * (hc - h_prev) * z * (1.0 - z)
                d_ar = d_rh * h_prev * r * (1.0 - r)
                grads["W_z"] += d_az.T @ u
                grads["W_r"] += d_ar.T @ u
                d_u = d_az @ params["W_z"] + d_ar @ params["W_r"]
                dh_next = dh * (1.0 - z) + d_rh * r + d_u[:, :h_dim]
                d_x[:, t] = d_v[:, h_dim:] + d_u[:, h_dim:]
            else:
                f, i, o = gate["f"][:, t], gate["i"][:, t], gate["o"][:, t]
                cc, c = gate["cc"][:, t], gate["c"][:, t]
                c_prev = gate["c"][:, t - 1] if t > 0 else np.zeros((b, h_dim))
                u = np.concatenate([h_prev, x_t], axis=1)
                tanh_c = np.tanh(c)
                d_c = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
                dc_next = d_c * f
                pre = {"f": d_c * c_prev * f * (1.0 - f), "i": d_c * cc * i * (1.0 - i),
                       "o": dh * tanh_c * o * (1.0 - o), "c": d_c * i * (1.0 - cc * cc)}
                d_u = 0.0
                for g, d_a in pre.items():
                    grads[f"W_{g}"] += d_a.T @ u
                    grads[f"b_{g}"] += d_a.sum(axis=0)
                    d_u = d_u + d_a @ params[f"W_{g}"]
                dh_next = d_u[:, :h_dim]
                d_x[:, t] = d_u[:, h_dim:]
        d_out = d_x
    flat = {f"L{layer}.{k}": g for layer, p in enumerate(layer_grads) for k, g in p.items()}
    flat["head.w_hy"] = cache["dropped_last"].T @ d_pred
    flat["head.b_y"] = np.asarray(float(d_pred.sum()))
    return flat


def _case(kind, layers, dropout, batch, seed=3):
    cfg = NetworkConfig(cell=kind, layers=layers, hidden=HIDDEN, input_features=2,
                        dropout_rate=dropout, seed=seed)
    data = np.random.default_rng(seed + 100).standard_normal((batch, SEQ_LEN, 2))
    return init_network(cfg), data


def _close(got, want) -> bool:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - want))) <= RTOL * scale


CASES = [(kind, layers, dropout, batch) for kind in CellKind for layers in (1, 2)
         for dropout in (0.0, 0.2) for batch in (1, 32)]
IDS = [f"{k.value}-L{layers}-p{dropout}-B{batch}" for k, layers, dropout, batch in CASES]


@pytest.mark.parametrize("kind,layers,dropout,batch", CASES, ids=IDS)
def test_fused_engine_matches_per_gate_loops(kind, layers, dropout, batch):
    net, data = _case(kind, layers, dropout, batch)
    cache = _forward_batch(net, data, training=True, rng=np.random.default_rng(9))
    ref = _reference_forward(net, data, training=True, rng=np.random.default_rng(9))
    assert _close(cache.predictions, ref["predictions"])
    for layer in range(layers):  # same dropout draws, stored as (L, H, B)
        want = ref["masks"][layer].transpose(1, 2, 0)
        got = cache.masks[layer] if cache.masks[layer] is not None else np.ones_like(want)
        if layer == layers - 1:  # the top layer's mask holds the step the head reads
            got, want = got[-1], want[-1]
        assert np.array_equal(got, want)
    d_pred = np.random.default_rng(4).standard_normal(batch)
    grads = _named(_network(net.config, backward(net, cache, d_pred)))
    want = _reference_backward(net, ref, d_pred)
    assert list(grads) == list(want)
    for name, g in want.items():
        assert grads[name].shape == g.shape, name
        assert _close(grads[name], g), name


def test_group_dropout_masks_keep_each_stream_in_draw_order():
    # each net's generator draws a (B, L, H) block per layer, layer by layer,
    # the top layer's block whole though only its last step is kept: two
    # consecutive forward passes see the masks of that reference, so the
    # streams stand where `train` of each net alone leaves them
    cfg = NetworkConfig(cell=CellKind.GRU, layers=2, hidden=HIDDEN, input_features=2,
                        dropout_rate=0.3)
    seeds = (5, 11, 2)
    net = _network(cfg, np.stack([init_network(replace(cfg, seed=s)).flat for s in seeds]))
    data = np.random.default_rng(8).standard_normal((len(seeds), 4, SEQ_LEN, 2))
    rngs = [np.random.default_rng([s, 2]) for s in seeds]
    refs = [np.random.default_rng([s, 2]) for s in seeds]
    workspace = neural._Workspace()
    for _ in range(2):
        cache = _forward_batch(net, data, training=True, rng=rngs, workspace=workspace)
        keep = 1.0 - cfg.dropout_rate
        want = [[(r.random((4, SEQ_LEN, HIDDEN)) < keep) / keep for _ in range(2)] for r in refs]
        for layer, mask in enumerate(cache.masks):  # (L, H, nets, B)
            for j in range(len(seeds)):
                got, expected = mask[:, :, j].transpose(2, 0, 1), want[j][layer]
                if layer == 1:
                    got, expected = got[:, -1], expected[:, -1]
                assert np.array_equal(got, expected)
        backward(net, cache, np.ones((len(seeds), 4)))


def _recorded_steps(monkeypatch, kind) -> list:
    """Patch `kind`'s step to record each call: (h_prev, its gate buffer
    before the step, after it), copied."""
    calls, step = [], neural._STEPS[kind]

    def recorded(h, c, w_h, act, h_out, c_out, mm):
        before = act.copy()
        step(h, c, w_h, act, h_out, c_out, mm)
        calls.append((h.copy(), before, act.copy()))

    monkeypatch.setitem(neural._STEPS, kind, recorded)
    return calls


def _plain_gates(kind, w_h, pre_x, h):
    """A step's gate activations by the four-pass sigmoid and `np.tanh` of the
    unsigned sums, added in the engine's order: W[:, :H] @ h_prev + (W[:, H:]
    @ x + b), each product the call the engine makes."""
    n = h.shape[0]
    if kind is CellKind.GRU:
        zr = _sigmoid(neural._matmul(np.ascontiguousarray(w_h[..., :2 * n, :]), h) + pre_x[:2 * n])
        cand = neural._matmul(np.ascontiguousarray(w_h[..., 2 * n:, :]), zr[n:] * h)
        return np.concatenate([zr, np.tanh(cand + pre_x[2 * n:])])
    pre = neural._matmul(w_h, h) + pre_x
    if kind is CellKind.LSTM:
        return np.concatenate([_sigmoid(pre[:3 * n]), np.tanh(pre[3 * n:])])
    return np.tanh(pre)


SIGMOID_ROWS = {CellKind.RNN: 0, CellKind.GRU: 2 * HIDDEN, CellKind.LSTM: 3 * HIDDEN}


@pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
@pytest.mark.parametrize("batch", [1, 4], ids=["B1", "B4"])
@pytest.mark.parametrize("nets", [1, 3], ids=["one-net", "group"])
@pytest.mark.parametrize("kind", list(CellKind), ids=[k.value for k in CellKind])
def test_sign_fold_never_reaches_the_parameters(monkeypatch, kind, nets, batch, training):
    # the engine holds the sigmoid gates' sums negated; the parameters stay
    # unsigned, and every step's gates are the plain formulas' floats
    cfg = NetworkConfig(cell=kind, layers=2, hidden=HIDDEN, input_features=2, dropout_rate=0.2)
    seeds = (5, 11, 2)[:nets]
    flats = [init_network(replace(cfg, seed=s)).flat for s in seeds]
    net = _network(cfg, flats[0] if nets == 1 else np.stack(flats))
    data = np.random.default_rng(8).standard_normal((nets, batch, SEQ_LEN, 2))
    rngs = [np.random.default_rng([s, 2]) for s in seeds]
    before = net.flat.tobytes()
    calls = _recorded_steps(monkeypatch, kind)
    cache = _forward_batch(net, data[0] if nets == 1 else data, training=training,
                           rng=rngs[0] if nets == 1 else rngs, keep=training)
    assert net.flat.tobytes() == before
    assert len(calls) == cfg.layers * SEQ_LEN
    sign = np.ones(neural._GATES[kind] * HIDDEN)
    sign[:SIGMOID_ROWS[kind]] = -1.0
    for layer, (w, b) in enumerate(net.stacked):
        pre_x = neural._matmul(w[..., HIDDEN:], cache.inputs[layer])
        if b is not None:
            pre_x += b.T[..., None]
        w_h = np.ascontiguousarray(w[..., :HIDDEN])
        for t in range(SEQ_LEN):
            h, held, gates = calls[layer * SEQ_LEN + t]
            assert np.array_equal(held, pre_x[t] * sign.reshape(-1, *[1] * (h.ndim - 1)))
            assert gates.tobytes() == _plain_gates(kind, w_h, pre_x[t], h).tobytes()


@pytest.mark.parametrize("kind,layers,dropout,batch", CASES, ids=IDS)
def test_public_cells_equal_one_step_of_the_batched_forward(kind, layers, dropout, batch):
    # the cells of the hand cases in test_neural (`_one_step`, one step of the
    # layer loop on stacked (w, b)) equal each step of the batched forward pass
    net, data = _case(kind, layers, dropout, batch)
    cache = _forward_batch(net, data, training=True, rng=np.random.default_rng(9))
    zeros = np.zeros((batch, HIDDEN))
    for layer, (w, b) in enumerate(net.stacked):  # cache sequences are (L, units, B)
        hs, x = cache.hidden[layer].transpose(0, 2, 1), cache.inputs[layer].transpose(0, 2, 1)
        cs = None if cache.cells[layer] is None else cache.cells[layer].transpose(0, 2, 1)
        for t in range(SEQ_LEN):
            c_prev = None if cs is None else cs[t - 1] if t else zeros
            h, c = _one_step(kind, w, b, hs[t - 1] if t else zeros, x[t], c_prev)
            assert np.array_equal(h, hs[t])
            if cs is not None:
                assert np.array_equal(c, cs[t])
        if batch == 1 and kind is CellKind.GRU:  # a single state vector takes the same path
            assert np.array_equal(_one_step(kind, w, b, hs[0][0], x[1][0])[0], hs[1][0])


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_init_network_equals_per_key_draws(kind, layers):
    for hidden in (1, 6):
        for features in (1, 2, 3):
            cfg = NetworkConfig(cell=kind, layers=layers, hidden=hidden,
                                input_features=features, seed=11)
            assert np.array_equal(init_network(cfg).flat, _reference_init(cfg))


@pytest.mark.parametrize("kind", list(CellKind))
def test_reloaded_network_predicts_bit_identically(kind, tmp_path):
    # seed 5001: the seed a model file derives for mode 1 at training seed 5
    cfg = NetworkConfig(cell=kind, layers=2, hidden=HIDDEN, input_features=2,
                        dropout_rate=0.2, seed=5001)
    train_cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=5)
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal((40, SEQ_LEN, 2)), rng.standard_normal(40)
    net, _ = train(x, y, cfg, train_cfg)
    forecaster = EnsembleForecaster(
        variant=Variant.DIRECT,
        config=PipelineConfig(vmd=VmdConfig(n_modes=1), network=cfg, train=train_cfg,
                              seq_len=SEQ_LEN),
        modes=None, mode_values=rng.standard_normal((1, 60)), garch=None,
        networks=net.flat[None])
    save_forecaster(forecaster, tmp_path / "model")
    fc = load_forecaster(tmp_path / "model")
    loaded = neural._network(mode_network_config(fc.config, 1), fc.networks[0])
    assert loaded.config == cfg
    assert np.array_equal(loaded.flat, net.flat)
    for batch in (x[:1], x):
        assert np.array_equal(predict(loaded, batch), predict(net, batch))


def test_train_steps_through_module_globals_once_per_batch(monkeypatch):
    calls = {"backward": 0, "clip_gradients": 0, "adam_step": 0}
    for name in calls:
        original = getattr(neural, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(neural, name, counted)
    rng = np.random.default_rng(0)
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=1, hidden=3, input_features=2)
    train(rng.standard_normal((20, 4, 2)), rng.standard_normal(20), cfg,
          TrainConfig(epochs=3, batch_size=8))
    assert calls == {"backward": 9, "clip_gradients": 9, "adam_step": 9}
