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

Layout.  A layer with G gates of H units over D inputs keeps its gate
weights stacked in one (G*H, H+D) matrix, whose columns [:H] act on h_prev
and [H:] on x, plus one bias of G*H entries:

    plain  (G=1): [W_hh | W_xh], bias b_h
    gated  (G=3): rows [W_z; W_r; W], no bias
    memory (G=4): rows [W_f; W_i; W_o; W_c], bias [b_f; b_i; b_o; b_c]

Every layer and the head live in one flat parameter vector.  The stacked
matrices and the per-gate names of `layer_params` (`W_f`, `b_i`, `W_hh`, ...)
are views into it, so `flatten_parameters` sees per-gate arrays while Adam
and clipping work on the one vector, and a saved network is that vector.

Activations are stored time-major and unit-major, (L, units, B): a step's
slice is contiguous, and so is each gate's block of rows within it.  The
forward pass computes the input projection W[:, H:] @ x + b of all L steps
in one call before the time loop; each step then adds W[:, :H] @ h_prev and
applies one sigmoid over the stacked sigmoid gates.  One step function per
kind serves the batched forward pass and the public
`rnn_cell`/`gru_cell`/`lstm_cell`, and its stored activations are all that
backpropagation reads.  Backpropagation carries only the recurrent gradient
through the time loop and writes each step's pre-activation gradients into
one (L, G*H, B) buffer; the weight, bias and input gradients then take one
product or sum each after the loop.

All functions are pure: `adam_step` and `train` return new parameter
containers and never mutate their inputs, so fixed seeds give bit-identical
results across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import special

from .errors import EmptyDataset, ShapeMismatch, StaleCache


class CellKind(Enum):
    RNN = "rnn"
    GRU = "gru"
    LSTM = "lstm"


_PARAM_KEYS = {
    CellKind.RNN: ("W_hh", "W_xh", "b_h"),
    CellKind.GRU: ("W_z", "W_r", "W"),
    CellKind.LSTM: ("W_f", "b_f", "W_i", "b_i", "W_c", "b_c", "W_o", "b_o"),
}

_GATES = {CellKind.RNN: 1, CellKind.GRU: 3, CellKind.LSTM: 4}
_LSTM_ROWS = ("f", "i", "o", "c")  # sigmoid gates first, so one expit covers them


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
    layer_params: tuple[dict[str, np.ndarray], ...]  # per-gate views into `flat`
    head: OutputHead
    flat: np.ndarray = field(repr=False)  # every parameter, layer by layer, then the head
    stacked: tuple[tuple[np.ndarray, np.ndarray | None], ...] = field(repr=False)
    # per layer: the (G*H, H+D) gate matrix and its bias (None for the gated cell)


def _sigmoid(x, out=None):
    # closed bounds by construction: IEEE saturation reaches 0.0 / 1.0
    return special.expit(x, out=out)


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


def _layer_views(kind: CellKind, vec: np.ndarray, start: int, h: int, d: int):
    """(gate matrix, bias, per-gate views, end) of the layer stored at vec[start:end]."""
    rows = _GATES[kind] * h
    end = start + rows * (h + d)
    w = vec[start:end].reshape(rows, h + d)
    if kind is CellKind.GRU:
        return w, None, {"W_z": w[:h], "W_r": w[h:2 * h], "W": w[2 * h:]}, end
    b = vec[end:end + rows]
    end += rows
    if kind is CellKind.RNN:
        return w, b, {"W_hh": w[:, :h], "W_xh": w[:, h:], "b_h": b}, end
    named = {}
    for key in _PARAM_KEYS[kind]:
        row = _LSTM_ROWS.index(key[-1])
        named[key] = (w if key[0] == "W" else b)[row * h:(row + 1) * h]
    return w, b, named, end


def _network(config: NetworkConfig, vec: np.ndarray) -> RecurrentNetwork:
    """The network whose parameters are the flat vector `vec` (not copied)."""
    stacked, layers = [], []
    start = 0
    for layer in range(config.layers):
        d_in = config.input_features if layer == 0 else config.hidden
        w, b, named, start = _layer_views(config.cell, vec, start, config.hidden, d_in)
        stacked.append((w, b))
        layers.append(named)
    head = OutputHead(w_hy=vec[start:start + config.hidden], b_y=float(vec[-1]))
    return RecurrentNetwork(config=config, layer_params=tuple(layers), head=head,
                            flat=vec, stacked=tuple(stacked))


def init_network(config: NetworkConfig) -> RecurrentNetwork:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    fan_in is the column count of each matrix; biases use the fan_in of the
    gate they belong to.  Draws run per named parameter in `_PARAM_KEYS`
    order, layer by layer, then the head.
    """
    rng = np.random.default_rng(config.seed)
    vec = np.empty(parameter_count(config))
    for layer, params in enumerate(_network(config, vec).layer_params):
        d_in = config.input_features if layer == 0 else config.hidden
        for key, shape in _layer_shapes(config.cell, config.hidden, d_in).items():
            fan_in = shape[-1] if len(shape) > 1 else config.hidden + d_in
            bound = 1.0 / math.sqrt(fan_in)
            params[key][...] = rng.uniform(-bound, bound, size=shape)
    bound = 1.0 / math.sqrt(config.hidden)
    vec[-1 - config.hidden:-1] = rng.uniform(-bound, bound, size=config.hidden)
    vec[-1] = float(rng.uniform(-bound, bound))
    return _network(config, vec)


# ---------------------------------------------------------------------------
# One step per cell kind.  States are unit-major, (H, B), so every gate's
# block of a step is a contiguous row range.  A step reads its input
# projection `xp` (G*H, B) and the previous state, writes the gate
# activations to `act` (G*H, B) and the new state to `h_out` (and `c_out`).
# `w_h` is what `_recurrent_weights` returns.
# ---------------------------------------------------------------------------

def _rnn_step(xp, h, c, w_h, act, h_out, c_out):
    np.matmul(w_h, h, out=h_out)
    h_out += xp
    np.tanh(h_out, out=h_out)  # `act` is `h_out`: the activation is the state


def _gru_step(xp, h, c, w_h, act, h_out, c_out):
    n = h.shape[0]
    w_zr, w_cand = w_h
    zr, hc = act[:2 * n], act[2 * n:]
    np.matmul(w_zr, h, out=zr)
    zr += xp[:2 * n]
    _sigmoid(zr, out=zr)
    z, r = act[:n], act[n:2 * n]
    np.matmul(w_cand, r * h, out=hc)
    hc += xp[2 * n:]
    np.tanh(hc, out=hc)
    np.add((1.0 - z) * h, z * hc, out=h_out)


def _lstm_step(xp, h, c, w_h, act, h_out, c_out):
    n = h.shape[0]
    np.matmul(w_h, h, out=act)
    act += xp
    _sigmoid(act[:3 * n], out=act[:3 * n])
    np.tanh(act[3 * n:], out=act[3 * n:])
    np.add(act[:n] * c, act[n:2 * n] * act[3 * n:], out=c_out)
    np.multiply(act[2 * n:3 * n], np.tanh(c_out), out=h_out)


_STEPS = {CellKind.RNN: _rnn_step, CellKind.GRU: _gru_step, CellKind.LSTM: _lstm_step}


def _recurrent_weights(kind: CellKind, w: np.ndarray, n: int):
    """The recurrent block W[:, :H], contiguous, as `_STEPS[kind]` reads it."""
    if kind is CellKind.GRU:
        return np.ascontiguousarray(w[:2 * n, :n]), np.ascontiguousarray(w[2 * n:, :n])
    return np.ascontiguousarray(w[:, :n])


def _run_layer(kind: CellKind, w: np.ndarray, b: np.ndarray | None, x: np.ndarray,
               h0: np.ndarray, c0: np.ndarray):
    """One layer over a (L, D, B) input sequence from state (h0, c0), each (H, B).

    Returns (hidden (L, H, B), gate activations (L, G*H, B), memory cells
    (L, H, B) or None); for the plain cell the activations are the hidden.
    """
    steps, _, batch = x.shape
    n = h0.shape[0]
    xp = w[:, n:] @ x  # every step's input projection in one call
    if b is not None:
        xp += b[:, None]
    hs = np.empty((steps, n, batch))
    act = hs if kind is CellKind.RNN else np.empty((steps, w.shape[0], batch))
    cs = np.empty((steps, n, batch)) if kind is CellKind.LSTM else None
    step, w_h = _STEPS[kind], _recurrent_weights(kind, w, n)
    h, c = h0, c0
    for t in range(steps):
        c_out = None if cs is None else cs[t]
        step(xp[t], h, c, w_h, act[t], hs[t], c_out)
        h, c = hs[t], c_out
    return hs, act, cs


# ---------------------------------------------------------------------------
# Cells (accept a single state vector (H,) or a batch (B, H))
# ---------------------------------------------------------------------------

def _stack_cell(kind: CellKind, params: dict[str, np.ndarray]):
    """Per-gate parameters in the stacked (matrix, bias) layout."""
    if kind is CellKind.RNN:
        return np.concatenate([params["W_hh"], params["W_xh"]], axis=1), params["b_h"]
    if kind is CellKind.GRU:
        return np.concatenate([params["W_z"], params["W_r"], params["W"]]), None
    return (np.concatenate([params[f"W_{g}"] for g in _LSTM_ROWS]),
            np.concatenate([params[f"b_{g}"] for g in _LSTM_ROWS]))


def _unit_major(a: np.ndarray) -> np.ndarray:
    """(H,) or (B, H) as a contiguous (H, B) block."""
    return np.ascontiguousarray(np.atleast_2d(a).T)


def _cell(kind: CellKind, params: dict[str, np.ndarray], h_prev, c_prev, x):
    """One step of `_run_layer` from (h_prev, c_prev); returns (h, c)."""
    h_prev = np.asarray(h_prev, dtype=float)
    x = np.asarray(x, dtype=float)
    w, b = _stack_cell(kind, params)
    n = w.shape[0] // _GATES[kind]
    if h_prev.shape[-1] != n:
        raise ShapeMismatch(f"hidden state has {h_prev.shape[-1]} units, weights expect {n}")
    if x.shape[-1] != w.shape[1] - n:
        raise ShapeMismatch(f"input has {x.shape[-1]} features, weights expect {w.shape[1] - n}")
    c_prev = np.zeros_like(h_prev) if c_prev is None else np.asarray(c_prev, dtype=float)
    if c_prev.shape != h_prev.shape:
        raise ShapeMismatch(f"cell state shape {c_prev.shape} != hidden shape {h_prev.shape}")
    try:  # a single state serves a batch of inputs, and a single input a batch of states
        lead = np.broadcast_shapes(h_prev.shape[:-1], x.shape[:-1])
    except ValueError:
        raise ShapeMismatch(f"hidden state {h_prev.shape} and input {x.shape} differ in batch") from None
    h_prev, c_prev = (np.broadcast_to(a, lead + (n,)) for a in (h_prev, c_prev))
    x = np.broadcast_to(x, lead + x.shape[-1:])
    hs, _, cs = _run_layer(kind, w, b, _unit_major(x)[None], _unit_major(h_prev),
                           _unit_major(c_prev))
    return hs[0].T.reshape(h_prev.shape), None if cs is None else cs[0].T.reshape(h_prev.shape)


def rnn_cell(params: dict[str, np.ndarray], h_prev, x) -> np.ndarray:
    """h = tanh(W_hh @ h_prev + W_xh @ x + b_h)."""
    return _cell(CellKind.RNN, params, h_prev, None, x)[0]


def gru_cell(params: dict[str, np.ndarray], h_prev, x) -> np.ndarray:
    """Update/reset-gated state blend; see module docstring for the equations."""
    return _cell(CellKind.GRU, params, h_prev, None, x)[0]


def lstm_cell(params: dict[str, np.ndarray], h_prev, c_prev, x) -> tuple[np.ndarray, np.ndarray]:
    """Forget/input/output-gated memory cell; returns (h, c)."""
    return _cell(CellKind.LSTM, params, h_prev, c_prev, x)


# ---------------------------------------------------------------------------
# Forward / backward over stacked layers
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    """Activations retained for backpropagation; tied to one parameter set.
    Sequences are time-major and unit-major: (L, units, B)."""

    params_id: int
    inputs: list[np.ndarray]            # per layer: (L, D_layer, B) consumed input
    hidden: list[np.ndarray]            # per layer: (L, H, B) pre-dropout hidden
    gates: list[np.ndarray]             # per layer: (L, G*H, B) gate activations
    cells: list[np.ndarray | None]      # per layer: (L, H, B) memory cells (LSTM only)
    masks: list[np.ndarray | None]      # per layer: (L, H, B) inverted-dropout masks
    dropped_last: np.ndarray            # (H, B) head input
    predictions: np.ndarray             # (B,)


def _forward_batch(net: RecurrentNetwork, batch: np.ndarray, training: bool,
                   rng: np.random.Generator | None) -> ForwardCache:
    cfg = net.config
    b, seq_len, feat = batch.shape
    if feat != cfg.input_features:
        raise ShapeMismatch(f"sequence has {feat} features, network expects {cfg.input_features}")
    if seq_len < 1:
        raise ShapeMismatch("sequence must have at least one time step")
    dropout = training and cfg.dropout_rate > 0.0
    if dropout and rng is None:
        raise ShapeMismatch("training forward pass needs a dropout generator")
    inputs, hidden, gates, cells, masks = [], [], [], [], []
    current = np.ascontiguousarray(batch.transpose(1, 2, 0))
    zeros = np.zeros((cfg.hidden, b))
    for w, bias in net.stacked:
        inputs.append(current)
        hs, act, cs = _run_layer(cfg.cell, w, bias, current, zeros, zeros)
        hidden.append(hs)
        gates.append(act)
        cells.append(cs)
        mask = None
        current = hs
        if dropout:
            keep = 1.0 - cfg.dropout_rate
            # drawn as (B, L, H), so seeded streams keep their masks
            drawn = (rng.random((b, seq_len, cfg.hidden)) < keep) / keep
            mask = np.ascontiguousarray(drawn.transpose(1, 2, 0))
            current = hs * mask
        masks.append(mask)
    dropped_last = current[-1]
    preds = net.head.w_hy @ dropped_last + net.head.b_y
    return ForwardCache(
        params_id=id(net.flat), inputs=inputs, hidden=hidden, gates=gates, cells=cells,
        masks=masks, dropped_last=dropped_last, predictions=preds,
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


# ---------------------------------------------------------------------------
# Backpropagation through time, one loop per cell kind.  Each takes the
# gradient on the layer's hidden sequence and returns the pre-activation
# gradients (L, G*H, B) in the stacked gate order; `h_prev` is (L, H, B) and
# `w_h` the recurrent block W[:, :H].  The returned buffer first holds, per
# gate, the factor from the gate's pre-activation to dh (or to dc, or to
# d(r * h_prev)) at every step; the loop scales step t's factors in place.
# ---------------------------------------------------------------------------

def _rnn_bptt(d_hidden, hs, act, cs, h_prev, w_h):
    w_ht = np.ascontiguousarray(w_h.T)
    d_act = np.multiply(hs, hs)
    np.subtract(1.0, d_act, out=d_act)
    dh_next = np.zeros_like(hs[0])
    for t in range(hs.shape[0] - 1, -1, -1):
        d_act[t] *= d_hidden[t] + dh_next
        dh_next = w_ht @ d_act[t]
    return d_act


def _gru_bptt(d_hidden, hs, act, cs, h_prev, w_h):
    n = hs.shape[1]
    z, r, hc = act[:, :n], act[:, n:2 * n], act[:, 2 * n:]
    d_act = np.empty_like(act)
    np.multiply(hc - h_prev, z * (1.0 - z), out=d_act[:, :n])
    np.multiply(h_prev, r * (1.0 - r), out=d_act[:, n:2 * n])
    np.multiply(z, 1.0 - hc * hc, out=d_act[:, 2 * n:])
    carry = 1.0 - z
    w_zr_t, w_cand_t = np.ascontiguousarray(w_h[:2 * n].T), np.ascontiguousarray(w_h[2 * n:].T)
    dh_next = np.zeros_like(hs[0])
    for t in range(hs.shape[0] - 1, -1, -1):
        dh = d_hidden[t] + dh_next
        da = d_act[t]
        da[2 * n:] *= dh
        d_rh = w_cand_t @ da[2 * n:]
        da[:n] *= dh
        da[n:2 * n] *= d_rh
        dh_next = dh * carry[t] + d_rh * r[t] + w_zr_t @ da[:2 * n]
    return d_act


def _lstm_bptt(d_hidden, hs, act, cs, h_prev, w_h):
    n = hs.shape[1]
    f, i, o, cc = (act[:, k * n:(k + 1) * n] for k in range(4))
    d_act = np.empty_like(act)
    d_act[0, :n] = 0.0  # the first step's previous cell state is zero
    np.multiply(cs[:-1], f[1:] * (1.0 - f[1:]), out=d_act[1:, :n])
    np.multiply(cc, i * (1.0 - i), out=d_act[:, n:2 * n])
    g_c = np.tanh(cs)
    np.multiply(g_c, o * (1.0 - o), out=d_act[:, 2 * n:3 * n])
    np.multiply(i, 1.0 - cc * cc, out=d_act[:, 3 * n:])
    g_c *= g_c  # from dh to dc: o * (1 - tanh(c)^2)
    np.subtract(1.0, g_c, out=g_c)
    g_c *= o
    w_ht = np.ascontiguousarray(w_h.T)
    dh_next = np.zeros_like(hs[0])
    dc_next = np.zeros_like(hs[0])
    for t in range(hs.shape[0] - 1, -1, -1):
        dh = d_hidden[t] + dh_next
        d_c = dc_next + dh * g_c[t]
        da = d_act[t]
        gates_fi = da[:2 * n].reshape(2, n, -1)  # forget and input gates
        gates_fi *= d_c
        da[2 * n:3 * n] *= dh
        da[3 * n:] *= d_c
        dc_next = d_c * f[t]
        dh_next = w_ht @ da
    return d_act


_BPTT = {CellKind.RNN: _rnn_bptt, CellKind.GRU: _gru_bptt, CellKind.LSTM: _lstm_bptt}


def backward(net: RecurrentNetwork, cache: ForwardCache, loss_grad) -> np.ndarray:
    """Full backpropagation through time from d(loss)/d(prediction).

    Returns the gradient as one flat vector in the layout of `net.flat`;
    `_flatten_grads` names its parts.  Dropout masks from the forward pass
    are reused, so the gradient matches the exact forward computation.
    """
    if cache.params_id != id(net.flat):
        raise StaleCache("cache was built for a different parameter set")
    cfg = net.config
    d_pred = np.atleast_1d(np.asarray(loss_grad, dtype=float))
    b = cache.predictions.shape[0]
    if d_pred.size == 1 and b > 1:
        d_pred = np.full(b, float(d_pred[0]))
    if d_pred.size != b:
        raise ShapeMismatch(f"loss gradient has {d_pred.size} entries for batch of {b}")

    grads = np.zeros_like(net.flat)
    n = cfg.hidden
    grads[-1 - n:-1] = cache.dropped_last @ d_pred
    grads[-1] = float(d_pred.sum())
    seq_len = cache.hidden[0].shape[0]
    # gradient w.r.t. each layer's dropped output sequence
    d_out = np.zeros((seq_len, n, b))
    d_out[-1] = net.head.w_hy[:, None] * d_pred[None, :]

    grad_layers = _network(cfg, grads).stacked
    for layer in range(cfg.layers - 1, -1, -1):
        w, _ = net.stacked[layer]
        g_w, g_b = grad_layers[layer]
        hs, act, mask = cache.hidden[layer], cache.gates[layer], cache.masks[layer]
        if mask is not None:
            d_out *= mask  # through inverted dropout
        # [h_prev, x] of every step, laid out (H+D, L, B) for the products below
        u = np.empty((w.shape[1], seq_len, b))
        u[:n, 0] = 0.0
        u[:n, 1:] = hs[:-1].transpose(1, 0, 2)
        u[n:] = cache.inputs[layer].transpose(1, 0, 2)
        h_prev = u[:n].transpose(1, 0, 2)
        d_act = _BPTT[cfg.cell](d_out, hs, act, cache.cells[layer], h_prev, w[:, :n])
        if layer:
            d_out = w[:, n:].T @ d_act  # gradient on the dropped output of the layer below
        if cfg.cell is CellKind.GRU:  # the candidate reads [r * h_prev, x]
            rh = act[:, n:2 * n] * h_prev
        # weight and bias gradients after the loop, one product each over all steps
        d_act = d_act.transpose(1, 0, 2).reshape(w.shape[0], -1)
        g_w[...] = d_act @ u.reshape(w.shape[1], -1).T
        if cfg.cell is CellKind.GRU:
            g_w[2 * n:, :n] = d_act[2 * n:] @ rh.transpose(1, 0, 2).reshape(n, -1).T
        if g_b is not None:
            g_b[...] = d_act.sum(axis=1)
    return grads


# ---------------------------------------------------------------------------
# Named parameter views, Adam, training loop
# ---------------------------------------------------------------------------

def flatten_parameters(net: RecurrentNetwork) -> dict[str, np.ndarray]:
    """Ordered name -> array view of every trainable parameter."""
    flat: dict[str, np.ndarray] = {}
    for layer, params in enumerate(net.layer_params):
        for key, value in params.items():
            flat[f"L{layer}.{key}"] = value
    flat["head.w_hy"] = net.head.w_hy
    flat["head.b_y"] = net.flat[-1:].reshape(())
    return flat


def _flatten_grads(net: RecurrentNetwork, grads: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> view of a flat gradient vector, named like `flatten_parameters`."""
    return flatten_parameters(_network(net.config, np.asarray(grads)))


def _pack(net: RecurrentNetwork, named: dict[str, np.ndarray]) -> np.ndarray:
    """A name -> array dict shaped like `flatten_parameters(net)`, as one flat vector."""
    vec = np.empty_like(net.flat)
    views = _flatten_grads(net, vec)
    if set(views) != set(named):
        raise ShapeMismatch("parameter names do not match the network")
    for key, view in views.items():
        value = np.asarray(named[key], dtype=float)
        if value.shape != view.shape:
            raise ShapeMismatch(f"entry for {key} has shape {value.shape}, expected {view.shape}")
        view[...] = value
    return vec


def _rebuild(net: RecurrentNetwork, flat: dict[str, np.ndarray]) -> RecurrentNetwork:
    return _network(net.config, _pack(net, flat))


@dataclass(frozen=True)
class AdamState:
    first_moment: np.ndarray   # flat, in the layout of `RecurrentNetwork.flat`
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(net: RecurrentNetwork, lr: float = 1e-3) -> AdamState:
    return AdamState(first_moment=np.zeros_like(net.flat),
                     second_moment=np.zeros_like(net.flat), lr=lr)


def adam_step(net: RecurrentNetwork, grads, state: AdamState) -> tuple[RecurrentNetwork, AdamState]:
    """Bias-corrected Adam update; returns (new network, new state).

    `grads` is a flat gradient vector (as `backward` returns) or a
    name -> array dict keyed like `flatten_parameters`.
    """
    if isinstance(grads, dict):
        g = _pack(net, grads)
    else:
        g = np.asarray(grads, dtype=float)
        if g.shape != net.flat.shape:
            raise ShapeMismatch(f"gradient has shape {g.shape}, expected {net.flat.shape}")
    t = state.step_count + 1
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * g
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * g * g
    step = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    new_state = AdamState(first_moment=m, second_moment=v, step_count=t,
                          lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return _network(net.config, net.flat - step), new_state


def clip_gradients(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """Global-norm clipping of a flat gradient vector; returns it scaled
    down to `max_norm`, or unchanged when its norm is within it."""
    total = math.sqrt(float(np.vdot(grads, grads)))
    if total <= max_norm or total == 0.0:
        return grads
    return grads * (max_norm / total)


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
            grads = clip_gradients(backward(net, cache, d_pred), train_cfg.clip_norm)
            net, state = adam_step(net, grads, state)
        history.append(epoch_sq_err / n)
    return net, history
