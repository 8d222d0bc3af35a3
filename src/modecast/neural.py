"""Minimal recurrent-network engine in plain numpy.

Three cell kinds over the concatenation convention u = [h_prev, x]:

    plain:  h = tanh(W_hh @ h_prev + W_xh @ x + b_h)
    gated:  z = sig(W_z @ u); r = sig(W_r @ u)
            h_cand = tanh(W @ [r * h_prev, x]); h = (1 - z) * h_prev + z * h_cand
    memory: f, i, o = sig(W_. @ u + b_.); c_cand = tanh(W_c @ u + b_c)
            c = f * c_prev + i * c_cand; h = o * tanh(c)

Layers are stacked (layer n+1 consumes layer n's hidden sequence), each
layer's output sequence passes through inverted dropout during training, and
a linear head reads the final time step of the top layer.  Backpropagation
through time produces exact gradients for every parameter (checked against
central finite differences in the test suite), and training runs seeded
mini-batch Adam with global-norm gradient clipping.

All functions are pure: `adam_step` and `train` return new parameter
containers and never mutate their inputs, so fixed seeds give bit-identical
results across runs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import special

from .errors import CorruptModel, EmptyDataset, ShapeMismatch, StaleCache


class CellKind(Enum):
    RNN = "rnn"
    GRU = "gru"
    LSTM = "lstm"


_PARAM_KEYS = {
    CellKind.RNN: ("W_hh", "W_xh", "b_h"),
    CellKind.GRU: ("W_z", "W_r", "W"),
    CellKind.LSTM: ("W_f", "b_f", "W_i", "b_i", "W_c", "b_c", "W_o", "b_o"),
}


@dataclass(frozen=True)
class NetworkConfig:
    cell: CellKind
    layers: int = 2
    hidden: int = 64
    input_features: int = 2
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1 or self.hidden < 1 or self.input_features < 1:
            raise ShapeMismatch("layers, hidden and input_features must all be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ShapeMismatch(f"dropout_rate must be in [0,1), got {self.dropout_rate}")


@dataclass(frozen=True)
class OutputHead:
    """Linear read-out y = w_hy @ h + b_y of the final hidden state."""

    w_hy: np.ndarray  # (hidden,)
    b_y: float


@dataclass(frozen=True)
class RecurrentNetwork:
    config: NetworkConfig
    layer_params: tuple[dict[str, np.ndarray], ...]
    head: OutputHead


def _sigmoid(x):
    # closed bounds by construction: IEEE saturation reaches 0.0 / 1.0
    return special.expit(x)


def _layer_shapes(kind: CellKind, hidden: int, d_in: int) -> dict[str, tuple[int, ...]]:
    h, d = hidden, d_in
    if kind is CellKind.RNN:
        return {"W_hh": (h, h), "W_xh": (h, d), "b_h": (h,)}
    if kind is CellKind.GRU:
        return {"W_z": (h, h + d), "W_r": (h, h + d), "W": (h, h + d)}
    return {"W_f": (h, h + d), "b_f": (h,), "W_i": (h, h + d), "b_i": (h,),
            "W_c": (h, h + d), "b_c": (h,), "W_o": (h, h + d), "b_o": (h,)}


def parameter_count(config: NetworkConfig) -> int:
    """Closed-form count over all layers plus the output head."""
    total = 0
    for layer in range(config.layers):
        d_in = config.input_features if layer == 0 else config.hidden
        total += sum(int(np.prod(s)) for s in _layer_shapes(config.cell, config.hidden, d_in).values())
    return total + config.hidden + 1


def init_network(config: NetworkConfig) -> RecurrentNetwork:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    fan_in is the column count of each matrix; biases use the fan_in of the
    gate they belong to.
    """
    rng = np.random.default_rng(config.seed)
    layers = []
    for layer in range(config.layers):
        d_in = config.input_features if layer == 0 else config.hidden
        shapes = _layer_shapes(config.cell, config.hidden, d_in)
        params: dict[str, np.ndarray] = {}
        for key, shape in shapes.items():
            fan_in = shape[-1] if len(shape) > 1 else config.hidden + d_in
            bound = 1.0 / math.sqrt(fan_in)
            params[key] = rng.uniform(-bound, bound, size=shape)
        layers.append(params)
    bound = 1.0 / math.sqrt(config.hidden)
    head = OutputHead(
        w_hy=rng.uniform(-bound, bound, size=config.hidden),
        b_y=float(rng.uniform(-bound, bound)),
    )
    return RecurrentNetwork(config=config, layer_params=tuple(layers), head=head)


# ---------------------------------------------------------------------------
# Cells (accept a single state vector (H,) or a batch (B, H))
# ---------------------------------------------------------------------------

def _check_cell_shapes(params: dict, h_prev: np.ndarray, x: np.ndarray, kind: CellKind):
    any_w = params[next(iter(params))]
    h = any_w.shape[0]
    if h_prev.shape[-1] != h:
        raise ShapeMismatch(f"hidden state has {h_prev.shape[-1]} units, weights expect {h}")
    if kind is CellKind.RNN:
        d = params["W_xh"].shape[1]
    else:
        d = any_w.shape[1] - h
    if x.shape[-1] != d:
        raise ShapeMismatch(f"input has {x.shape[-1]} features, weights expect {d}")


def rnn_cell(params: dict[str, np.ndarray], h_prev, x) -> np.ndarray:
    """h = tanh(W_hh @ h_prev + W_xh @ x + b_h)."""
    h_prev = np.asarray(h_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_cell_shapes(params, h_prev, x, CellKind.RNN)
    return np.tanh(h_prev @ params["W_hh"].T + x @ params["W_xh"].T + params["b_h"])


def gru_cell(params: dict[str, np.ndarray], h_prev, x) -> np.ndarray:
    """Update/reset-gated state blend; see module docstring for the equations."""
    h_prev = np.asarray(h_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_cell_shapes(params, h_prev, x, CellKind.GRU)
    u = np.concatenate([h_prev, x], axis=-1)
    z = _sigmoid(u @ params["W_z"].T)
    r = _sigmoid(u @ params["W_r"].T)
    v = np.concatenate([r * h_prev, x], axis=-1)
    h_cand = np.tanh(v @ params["W"].T)
    return (1.0 - z) * h_prev + z * h_cand


def lstm_cell(params: dict[str, np.ndarray], h_prev, c_prev, x) -> tuple[np.ndarray, np.ndarray]:
    """Forget/input/output-gated memory cell; returns (h, c)."""
    h_prev = np.asarray(h_prev, dtype=float)
    c_prev = np.asarray(c_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_cell_shapes(params, h_prev, x, CellKind.LSTM)
    if c_prev.shape != h_prev.shape:
        raise ShapeMismatch(f"cell state shape {c_prev.shape} != hidden shape {h_prev.shape}")
    u = np.concatenate([h_prev, x], axis=-1)
    f = _sigmoid(u @ params["W_f"].T + params["b_f"])
    i = _sigmoid(u @ params["W_i"].T + params["b_i"])
    o = _sigmoid(u @ params["W_o"].T + params["b_o"])
    c_cand = np.tanh(u @ params["W_c"].T + params["b_c"])
    c = f * c_prev + i * c_cand
    return o * np.tanh(c), c


# ---------------------------------------------------------------------------
# Forward / backward over stacked layers
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """Activations retained for backpropagation; tied to one parameter set."""

    params_id: int
    inputs: list[np.ndarray]          # per layer: (B, L, D_layer) consumed input
    hidden: list[np.ndarray]          # per layer: (B, L, H) pre-dropout hidden
    gates: list[dict[str, np.ndarray]]
    masks: list[np.ndarray]           # per layer: (B, L, H) inverted-dropout masks
    dropped_last: np.ndarray          # (B, H) head input
    predictions: np.ndarray           # (B,)


def _forward_batch(net: RecurrentNetwork, batch: np.ndarray, training: bool,
                   rng: np.random.Generator | None) -> ForwardCache:
    cfg = net.config
    b, seq_len, feat = batch.shape
    if feat != cfg.input_features:
        raise ShapeMismatch(f"sequence has {feat} features, network expects {cfg.input_features}")
    if seq_len < 1:
        raise ShapeMismatch("sequence must have at least one time step")
    kind = cfg.cell
    h_dim = cfg.hidden
    inputs, hidden, gates, masks = [], [], [], []
    current = batch
    for layer in range(cfg.layers):
        params = net.layer_params[layer]
        inputs.append(current)
        h = np.zeros((b, h_dim))
        c = np.zeros((b, h_dim))
        h_seq = np.empty((b, seq_len, h_dim))
        layer_gates: dict[str, np.ndarray] = {
            key: np.empty((b, seq_len, h_dim))
            for key in (("z", "r", "hc") if kind is CellKind.GRU else
                        ("f", "i", "o", "cc", "c") if kind is CellKind.LSTM else ())
        }
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
                layer_gates["z"][:, t] = z
                layer_gates["r"][:, t] = r
                layer_gates["hc"][:, t] = hc
                h = (1.0 - z) * h + z * hc
            else:
                u = np.concatenate([h, x_t], axis=1)
                f = _sigmoid(u @ params["W_f"].T + params["b_f"])
                i = _sigmoid(u @ params["W_i"].T + params["b_i"])
                o = _sigmoid(u @ params["W_o"].T + params["b_o"])
                cc = np.tanh(u @ params["W_c"].T + params["b_c"])
                c = f * c + i * cc
                layer_gates["f"][:, t] = f
                layer_gates["i"][:, t] = i
                layer_gates["o"][:, t] = o
                layer_gates["cc"][:, t] = cc
                layer_gates["c"][:, t] = c
                h = o * np.tanh(c)
            h_seq[:, t] = h
        hidden.append(h_seq)
        gates.append(layer_gates)
        if training and cfg.dropout_rate > 0.0:
            if rng is None:
                raise ShapeMismatch("training forward pass needs a dropout generator")
            keep = 1.0 - cfg.dropout_rate
            mask = (rng.random((b, seq_len, h_dim)) < keep) / keep
        else:
            mask = np.ones((b, seq_len, h_dim))
        masks.append(mask)
        current = h_seq * mask
    dropped_last = current[:, -1, :]
    preds = dropped_last @ net.head.w_hy + net.head.b_y
    return ForwardCache(
        params_id=id(net.layer_params), inputs=inputs, hidden=hidden,
        gates=gates, masks=masks, dropped_last=dropped_last, predictions=preds,
    )


def forward(net: RecurrentNetwork, sequence, training: bool = False,
            seed: int = 0) -> tuple[float, ForwardCache]:
    """Run one (seq_len, input_features) sequence; returns (prediction, cache).

    With training=False the result is deterministic and independent of `seed`
    (dropout is inverted-scaled, so inference needs no rescaling).
    """
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d sequence, got shape {seq.shape}")
    rng = np.random.default_rng(seed) if training else None
    cache = _forward_batch(net, seq[None, :, :], training, rng)
    return float(cache.predictions[0]), cache


def predict(net: RecurrentNetwork, sequences) -> np.ndarray:
    """Inference over a (N, seq_len, input_features) batch; returns (N,) predictions.

    Row i equals `forward(net, sequences[i])` up to rounding: the batched
    matrix products may sum in another order, and a row's result can depend
    on the batch it runs in.  Reruns on the same batch are bit-identical.
    """
    batch = np.asarray(sequences, dtype=float)
    if batch.ndim != 3:
        raise ShapeMismatch(f"expected a 3-d batch of sequences, got shape {batch.shape}")
    return _forward_batch(net, batch, training=False, rng=None).predictions


def mse_loss(pred: float, target: float) -> float:
    return float((pred - target) ** 2)


def mse_loss_grad(pred: float, target: float) -> float:
    return float(2.0 * (pred - target))


def _zero_grads(net: RecurrentNetwork) -> tuple[list[dict[str, np.ndarray]], np.ndarray, float]:
    layer_grads = [{k: np.zeros_like(v) for k, v in p.items()} for p in net.layer_params]
    return layer_grads, np.zeros_like(net.head.w_hy), 0.0


def backward(net: RecurrentNetwork, cache: ForwardCache, loss_grad):
    """Full backpropagation through time from d(loss)/d(prediction).

    Returns gradients in the same structure as the network parameters:
    (per-layer dicts, head dict).  Dropout masks from the forward pass are
    reused, so the gradient matches the exact forward computation.
    """
    if cache.params_id != id(net.layer_params):
        raise StaleCache("cache was built for a different parameter set")
    cfg = net.config
    kind = cfg.cell
    d_pred = np.atleast_1d(np.asarray(loss_grad, dtype=float))
    b = cache.predictions.shape[0]
    if d_pred.size == 1 and b > 1:
        d_pred = np.full(b, float(d_pred[0]))
    if d_pred.size != b:
        raise ShapeMismatch(f"loss gradient has {d_pred.size} entries for batch of {b}")

    layer_grads, g_why, g_by = _zero_grads(net)
    g_why += cache.dropped_last.T @ d_pred
    g_by += float(d_pred.sum())

    seq_len = cache.inputs[0].shape[1]
    h_dim = cfg.hidden
    # gradient w.r.t. each layer's dropped output sequence
    d_out = np.zeros((b, seq_len, h_dim))
    d_out[:, -1, :] = d_pred[:, None] * net.head.w_hy[None, :]

    for layer in range(cfg.layers - 1, -1, -1):
        params = net.layer_params[layer]
        grads = layer_grads[layer]
        x_seq = cache.inputs[layer]
        h_seq = cache.hidden[layer]
        gate = cache.gates[layer]
        d_hidden = d_out * cache.masks[layer]  # through inverted dropout
        d_x = np.zeros_like(x_seq)
        dh_next = np.zeros((b, h_dim))
        dc_next = np.zeros((b, h_dim))
        for t in range(seq_len - 1, -1, -1):
            dh = d_hidden[:, t] + dh_next
            h_prev = h_seq[:, t - 1] if t > 0 else np.zeros((b, h_dim))
            x_t = x_seq[:, t]
            if kind is CellKind.RNN:
                h = h_seq[:, t]
                d_pre = dh * (1.0 - h * h)
                grads["W_hh"] += d_pre.T @ h_prev
                grads["W_xh"] += d_pre.T @ x_t
                grads["b_h"] += d_pre.sum(axis=0)
                dh_next = d_pre @ params["W_hh"]
                d_x[:, t] = d_pre @ params["W_xh"]
            elif kind is CellKind.GRU:
                z, r, hc = gate["z"][:, t], gate["r"][:, t], gate["hc"][:, t]
                u = np.concatenate([h_prev, x_t], axis=1)
                v = np.concatenate([r * h_prev, x_t], axis=1)
                d_z = dh * (hc - h_prev)
                d_hc = dh * z
                d_hprev = dh * (1.0 - z)
                d_av = d_hc * (1.0 - hc * hc)
                grads["W"] += d_av.T @ v
                d_v = d_av @ params["W"]
                d_rh = d_v[:, :h_dim]
                d_r = d_rh * h_prev
                d_hprev = d_hprev + d_rh * r
                d_az = d_z * z * (1.0 - z)
                d_ar = d_r * r * (1.0 - r)
                grads["W_z"] += d_az.T @ u
                grads["W_r"] += d_ar.T @ u
                d_u = d_az @ params["W_z"] + d_ar @ params["W_r"]
                dh_next = d_hprev + d_u[:, :h_dim]
                d_x[:, t] = d_v[:, h_dim:] + d_u[:, h_dim:]
            else:
                f, i, o = gate["f"][:, t], gate["i"][:, t], gate["o"][:, t]
                cc, c = gate["cc"][:, t], gate["c"][:, t]
                c_prev = gate["c"][:, t - 1] if t > 0 else np.zeros((b, h_dim))
                u = np.concatenate([h_prev, x_t], axis=1)
                tanh_c = np.tanh(c)
                d_o = dh * tanh_c
                d_c = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
                d_f = d_c * c_prev
                d_i = d_c * cc
                d_cc = d_c * i
                dc_next = d_c * f
                d_af = d_f * f * (1.0 - f)
                d_ai = d_i * i * (1.0 - i)
                d_ao = d_o * o * (1.0 - o)
                d_ac = d_cc * (1.0 - cc * cc)
                grads["W_f"] += d_af.T @ u
                grads["b_f"] += d_af.sum(axis=0)
                grads["W_i"] += d_ai.T @ u
                grads["b_i"] += d_ai.sum(axis=0)
                grads["W_o"] += d_ao.T @ u
                grads["b_o"] += d_ao.sum(axis=0)
                grads["W_c"] += d_ac.T @ u
                grads["b_c"] += d_ac.sum(axis=0)
                d_u = (d_af @ params["W_f"] + d_ai @ params["W_i"]
                       + d_ao @ params["W_o"] + d_ac @ params["W_c"])
                dh_next = d_u[:, :h_dim]
                d_x[:, t] = d_u[:, h_dim:]
        d_out = d_x  # becomes the gradient on the dropped output of the layer below
    return layer_grads, {"w_hy": g_why, "b_y": g_by}


# ---------------------------------------------------------------------------
# Flat parameter views, Adam, training loop
# ---------------------------------------------------------------------------

def flatten_parameters(net: RecurrentNetwork) -> dict[str, np.ndarray]:
    """Ordered name -> array view of every trainable parameter."""
    flat: dict[str, np.ndarray] = {}
    for layer, params in enumerate(net.layer_params):
        for key, value in params.items():
            flat[f"L{layer}.{key}"] = value
    flat["head.w_hy"] = net.head.w_hy
    flat["head.b_y"] = np.asarray(net.head.b_y)
    return flat


def _rebuild(net: RecurrentNetwork, flat: dict[str, np.ndarray]) -> RecurrentNetwork:
    layers = []
    for layer, params in enumerate(net.layer_params):
        layers.append({key: flat[f"L{layer}.{key}"] for key in params})
    head = OutputHead(w_hy=flat["head.w_hy"], b_y=float(flat["head.b_y"]))
    return RecurrentNetwork(config=net.config, layer_params=tuple(layers), head=head)


def _flatten_grads(net: RecurrentNetwork, grads) -> dict[str, np.ndarray]:
    layer_grads, head_grads = grads
    flat: dict[str, np.ndarray] = {}
    for layer, params in enumerate(layer_grads):
        for key, value in params.items():
            flat[f"L{layer}.{key}"] = value
    flat["head.w_hy"] = head_grads["w_hy"]
    flat["head.b_y"] = np.asarray(head_grads["b_y"])
    return flat


@dataclass(frozen=True)
class AdamState:
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(net: RecurrentNetwork, lr: float = 1e-3) -> AdamState:
    flat = flatten_parameters(net)
    return AdamState(
        first_moment={k: np.zeros_like(v) for k, v in flat.items()},
        second_moment={k: np.zeros_like(v) for k, v in flat.items()},
        lr=lr,
    )


def adam_step(net: RecurrentNetwork, grads, state: AdamState) -> tuple[RecurrentNetwork, AdamState]:
    """Bias-corrected Adam update; returns (new network, new state)."""
    flat_p = flatten_parameters(net)
    flat_g = grads if isinstance(grads, dict) else _flatten_grads(net, grads)
    if set(flat_p) != set(flat_g):
        raise ShapeMismatch("gradient structure does not match parameters")
    t = state.step_count + 1
    new_p, new_m, new_v = {}, {}, {}
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for key, p in flat_p.items():
        g = flat_g[key]
        if np.shape(g) != np.shape(p):
            raise ShapeMismatch(f"gradient for {key} has shape {np.shape(g)}, expected {np.shape(p)}")
        m = state.beta1 * state.first_moment[key] + (1.0 - state.beta1) * g
        v = state.beta2 * state.second_moment[key] + (1.0 - state.beta2) * g * g
        step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        new_p[key] = p - step
        new_m[key] = m
        new_v[key] = v
    new_net = _rebuild(net, new_p)
    new_state = AdamState(first_moment=new_m, second_moment=new_v, step_count=t,
                          lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_net, new_state


def clip_gradients(flat_grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Global-norm clipping; returns the (possibly scaled) gradient dict."""
    total = math.sqrt(sum(float((g * g).sum()) for g in flat_grads.values()))
    if total <= max_norm or total == 0.0:
        return flat_grads
    scale = max_norm / total
    return {k: g * scale for k, g in flat_grads.items()}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    clip_norm: float = 5.0


def train(inputs, targets, config: NetworkConfig,
          train_cfg: TrainConfig = TrainConfig()) -> tuple[RecurrentNetwork, list[float]]:
    """Mini-batch Adam over seeded shuffles of (inputs, targets).

    inputs: (N, seq_len, input_features); targets: (N,).  Returns the trained
    network and the per-epoch mean training loss.  epochs=0 returns the
    freshly initialized network unchanged.
    """
    x = np.asarray(inputs, dtype=float)
    y = np.asarray(targets, dtype=float).reshape(-1)
    if x.ndim != 3 or x.shape[0] == 0:
        raise EmptyDataset(f"expected a nonempty (N, L, D) input array, got shape {x.shape}")
    if x.shape[0] != y.size:
        raise ShapeMismatch(f"{x.shape[0]} inputs vs {y.size} targets")

    net = init_network(config)
    state = init_adam(net, lr=train_cfg.lr)
    shuffle_rng = np.random.default_rng([train_cfg.seed, 1])
    dropout_rng = np.random.default_rng([train_cfg.seed, 2])
    n = x.shape[0]
    batch = max(1, min(train_cfg.batch_size, n))
    history: list[float] = []
    for _ in range(train_cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_sq_err = 0.0
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            cache = _forward_batch(net, x[sel], training=True, rng=dropout_rng)
            err = cache.predictions - y[sel]
            epoch_sq_err += float((err * err).sum())
            d_pred = 2.0 * err / sel.size
            grads = backward(net, cache, d_pred)
            flat = clip_gradients(_flatten_grads(net, grads), train_cfg.clip_norm)
            net, state = adam_step(net, flat, state)
        history.append(epoch_sq_err / n)
    return net, history


# ---------------------------------------------------------------------------
# Checkpoint format: text, versioned, shape header + row-major values
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = "modecast-checkpoint v1"


def save_checkpoint(net: RecurrentNetwork, path) -> None:
    """Write a versioned text checkpoint; %.17g round-trips float64 exactly."""
    cfg = net.config
    buf = io.StringIO()
    buf.write(_CHECKPOINT_MAGIC + "\n")
    buf.write(f"cell={cfg.cell.value} layers={cfg.layers} hidden={cfg.hidden} "
              f"input_features={cfg.input_features} dropout_rate={cfg.dropout_rate!r} "
              f"seed={cfg.seed}\n")
    for name, arr in flatten_parameters(net).items():
        mat = np.atleast_2d(np.asarray(arr, dtype=float))
        buf.write(f"param {name} {mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            buf.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    buf.write("end\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> RecurrentNetwork:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CorruptModel(f"not a {_CHECKPOINT_MAGIC!r} file: {path}")
    try:
        return _parse_checkpoint(lines)
    except CorruptModel:
        raise
    except (IndexError, KeyError, ValueError, ShapeMismatch) as exc:  # truncated or missing entries
        raise CorruptModel(f"incomplete checkpoint {path}: {exc!r}") from exc


def _parse_checkpoint(lines: list[str]) -> RecurrentNetwork:
    fields = dict(item.split("=", 1) for item in lines[1].split())
    config = NetworkConfig(
        cell=CellKind(fields["cell"]), layers=int(fields["layers"]),
        hidden=int(fields["hidden"]), input_features=int(fields["input_features"]),
        dropout_rate=float(fields["dropout_rate"]), seed=int(fields["seed"]),
    )
    flat: dict[str, np.ndarray] = {}
    pos = 2
    while lines[pos] != "end":
        tag, name, rows, cols = lines[pos].split()
        if tag != "param":
            raise CorruptModel(f"malformed checkpoint line: {lines[pos]!r}")
        rows, cols = int(rows), int(cols)
        mat = np.array([[float(v) for v in lines[pos + 1 + r].split()] for r in range(rows)])
        flat[name] = mat
        pos += 1 + rows
    template = init_network(config)
    shaped = {}
    for name, arr in flatten_parameters(template).items():
        shaped[name] = flat[name].reshape(np.shape(arr)) if np.shape(arr) else float(flat[name][0, 0])
        shaped[name] = np.asarray(shaped[name])
    return _rebuild(template, shaped)
