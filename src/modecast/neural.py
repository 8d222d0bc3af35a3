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

Every layer and the head live in one flat parameter vector, which is the
network's only layout: the stacked matrices and the head are views into it,
Adam and clipping work on it, and a saved network is that vector.
Initialization draws one uniform block per gate (`_init_blocks`).

Activations are stored time-major and unit-major, (L, units, B): a step's
slice is contiguous, and so is each gate's block of rows within it.  The
forward pass computes the input projection W[:, H:] @ x + b of all L steps
in one call before the time loop, the bias repeated per window so that its
sum runs whole steps at a time; each step then adds W[:, :H] @ h_prev and
applies one sigmoid over the stacked sigmoid gates.  Those gates' rows are
held negated: the projection's as (-b) - W[:, H:] @ x, and the recurrent
block's in the copy the time loop reads (`_recurrent_weights`).  So a
step's sums hold -x there, and the sigmoid 1 / (1 + exp(-x)) takes three
in-place passes on numpy's vectorized `exp`: `exp`, add one,
`np.reciprocal`.  Negation is exact and round-to-nearest is symmetric, so
these are the floats of the four-pass formula on the unsigned sums; the
parameters and the stored activations stay unsigned.  The time loop
silences the overflow of exp(-x) to inf, so a saturated gate reads exactly
0.0 or 1.0 without a warning.  One step function per kind serves the
forward pass, and its stored activations are all that backpropagation
reads.  Backpropagation carries only the recurrent gradient through the
time loop and writes each step's pre-activation gradients into one
(L, G*H, B) buffer; the weight, bias and input gradients then take one
product or sum each after the loop.  Both time loops write every
intermediate into buffers made once per layer, so no step allocates.

Lockstep groups.  `train_many` trains networks that differ only in seed and
data (a mode set) together: every mini-batch of every net of a group runs
through one forward pass, one `backward` and one `adam_step`.  A group adds
a net axis: its flat parameters are (nets, P), so the stacked weights are
(nets, G*H, H+D), and its sequences are stored (L, units, nets, B), so each
gate block of a step stays contiguous across the nets and the cell and BPTT
code above serves both.  Every product is one batched `np.matmul` over
per-net strided views (`_matmul`), which BLAS runs as the call that net
alone makes; a batch of one copies its vectors contiguous first.  Each net
keeps its own shuffle and dropout generators and gradient norm, so each
result equals `train` of that net alone, bit for bit.  A single network
keeps 2-d operands.  `GROUP_BYTES` caps a group's activations, since
lockstep only pays while numpy's per-call cost outweighs the products.
`predict_many` is the inference twin: it groups networks as `train_many`
does and runs each group through one forward pass that keeps only the
hidden sequences, so each net's predictions equal `predict` of that net
alone, bit for bit; `PREDICT_BYTES` caps its groups.

Memory.  A training step's sequences are views of one workspace
(`_Workspace`) that `train_many` allocates in its first mini-batch and
reuses for every later batch of each of its lockstep groups.  Each net's
dropout generator fills its own (B, L, H) block of the gradient buffer,
idle until `backward`; one compare and one scale over the group's draws,
and one transposed copy, form a lower layer's mask.  The head reads only
the top layer's last step, so that layer's mask is formed at that step
alone, from the same draws.  `backward` consumes the cache: arrays it no
longer needs become its working arrays, and each layer's entries are
released once that layer's gradients are formed.  `adam_step` updates the
parameters and moments in place.

Two functions mutate their inputs: `backward` consumes its cache, and
`adam_step` overwrites the network's flat vector and Adam's moments.  Every
other function is pure: `train` and `train_many` start from fresh
parameters and return them, so fixed seeds give bit-identical results
across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import ConfigError, EmptyDataset, ShapeMismatch, StaleCache


class CellKind(Enum):
    RNN = "rnn"
    GRU = "gru"
    LSTM = "lstm"


_GATES = {CellKind.RNN: 1, CellKind.GRU: 3, CellKind.LSTM: 4}


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OutputHead:
    """Linear read-out y = w_hy @ h + b_y of the final hidden state."""

    w_hy: np.ndarray  # (hidden,)
    b_y: np.ndarray   # 0-d view of the last parameter (a group's: (nets,))


@dataclass(frozen=True)
class RecurrentNetwork:
    config: NetworkConfig
    head: OutputHead
    flat: np.ndarray = field(repr=False)  # every parameter, layer by layer, then the head
    stacked: tuple[tuple[np.ndarray, np.ndarray | None], ...] = field(repr=False)
    # per layer: the (G*H, H+D) gate matrix and its bias (None for the gated cell)


def parameter_count(config: NetworkConfig) -> int:
    """Closed-form count over all layers plus the output head: per layer
    G*H*(H+D) weights and, but for the gated cell, G*H biases."""
    g, h = _GATES[config.cell], config.hidden
    total = h + 1
    for layer in range(config.layers):
        d_in = config.input_features if layer == 0 else h
        total += g * h * (h + d_in) + (0 if config.cell is CellKind.GRU else g * h)
    return total


def _network(config: NetworkConfig, vec: np.ndarray) -> RecurrentNetwork:
    """The network whose parameters are the flat vector `vec` (not copied); a
    group's (nets, P) vector gives views with a leading net axis."""
    h, rows = config.hidden, _GATES[config.cell] * config.hidden
    stacked, start = [], 0
    for layer in range(config.layers):
        cols = h + (config.input_features if layer == 0 else h)
        end = start + rows * cols
        w, b = vec[..., start:end].reshape(vec.shape[:-1] + (rows, cols)), None
        if config.cell is not CellKind.GRU:
            b, end = vec[..., end:end + rows], end + rows
        stacked.append((w, b))
        start = end
    head = OutputHead(w_hy=vec[..., start:start + h], b_y=vec[..., -1])
    return RecurrentNetwork(config=config, head=head, flat=vec, stacked=tuple(stacked))


def _init_blocks(rng, kind: CellKind, w: np.ndarray, b: np.ndarray | None, h: int) -> None:
    """Fill one layer's (w, b) with one uniform draw per gate block, bounded by
    1/sqrt(fan_in): the plain cell draws W[:, :H] (fan_in H), W[:, H:] (fan_in D)
    and its bias (fan_in H+D); the others draw each gate's rows, then its bias
    if it has one (fan_in H+D)."""
    def fill(block, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        block[...] = rng.uniform(-bound, bound, size=block.shape)

    cols = w.shape[1]
    if kind is CellKind.RNN:
        fill(w[:, :h], h)
        fill(w[:, h:], cols - h)
        fill(b, cols)
        return
    # the memory cell draws its gates f, i, c, o; they are stored f, i, o, c,
    # sigmoid gates first, so one sigmoid covers them
    for k in (0, 1, 3, 2) if kind is CellKind.LSTM else (0, 1, 2):
        fill(w[k * h:(k + 1) * h], cols)
        if b is not None:
            fill(b[k * h:(k + 1) * h], cols)


def init_network(config: NetworkConfig) -> RecurrentNetwork:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    Draws run per gate block (`_init_blocks`), layer by layer, then the head's
    weights (fan_in H) and bias.
    """
    rng = np.random.default_rng(config.seed)
    net = _network(config, np.empty(parameter_count(config)))
    for w, b in net.stacked:
        _init_blocks(rng, config.cell, w, b, config.hidden)
    bound = 1.0 / math.sqrt(config.hidden)
    net.head.w_hy[...] = rng.uniform(-bound, bound, size=config.hidden)
    net.flat[-1] = float(rng.uniform(-bound, bound))
    return net


# ---------------------------------------------------------------------------
# One step per cell kind.  States are unit-major, (H, B), so every gate's
# block of a step is a contiguous row range; a group's are (H, nets, B), so
# the block stays contiguous across its nets.  A step finds its input
# projection in `act` (G*H, B), adds the recurrent product W[:, :H] @ h_prev,
# which it forms in `mm`, overwrites `act` with the gate activations and
# writes the new state to `h_out` (and `c_out`).  `w_h` is what
# `_recurrent_weights` returns, and the sigmoid gates' rows of `act` and
# `w_h` are negated, so those rows' sums are the pre-activations negated.
# Once read, `mm`'s rows are the step's scratch, so a step allocates nothing.
# ---------------------------------------------------------------------------

def _matmul(w, x, out=None):
    """Each net's w @ x.  One net's operands are 2-d (x may lead with time).
    A group's weights are (nets, R, C) and x (..., C, nets, B); each net's
    slice is a strided view BLAS runs as it runs that net's own operand,
    except a vector (B = 1), whose strided dot products BLAS sums in another
    order: those are copied contiguous first."""
    if w.ndim == 2:
        return np.matmul(w, x, out=out)
    if out is None:
        out = np.empty(x.shape[:-3] + w.shape[-2:-1] + x.shape[-2:])
    if x.shape[-1] == 1:
        out.swapaxes(-3, -2)[...] = w @ np.ascontiguousarray(x.swapaxes(-3, -2))
    else:
        np.matmul(w, x.swapaxes(-3, -2), out=out.swapaxes(-3, -2))
    return out


def _rnn_step(h, c, w_h, act, h_out, c_out, mm):
    # `act` is `h_out`, which holds the step's input projection: the activation is the state
    np.add(_matmul(w_h, h, out=mm), h_out, out=h_out)
    np.tanh(h_out, out=h_out)


def _gru_step(h, c, w_h, act, h_out, c_out, mm):
    n = h.shape[0]
    w_zr, w_cand = w_h
    zr, hc, spare = act[:2 * n], act[2 * n:], mm[:n]
    np.add(_matmul(w_zr, h, out=mm[:2 * n]), zr, out=zr)
    np.exp(zr, out=zr)  # zr held -x: the sigmoid is 1 / (1 + exp(-x))
    zr += 1.0
    np.reciprocal(zr, out=zr)
    z, r = act[:n], act[n:2 * n]
    np.add(_matmul(w_cand, np.multiply(r, h, out=spare), out=mm[2 * n:]), hc, out=hc)
    np.tanh(hc, out=hc)
    np.multiply(z, hc, out=h_out)
    np.subtract(1.0, z, out=spare)
    spare *= h
    h_out += spare  # (1 - z) * h + z * hc


def _lstm_step(h, c, w_h, act, h_out, c_out, mm):
    n = h.shape[0]
    np.add(_matmul(w_h, h, out=mm), act, out=act)
    fio = act[:3 * n]
    np.exp(fio, out=fio)  # fio held -x: the sigmoid is 1 / (1 + exp(-x))
    fio += 1.0
    np.reciprocal(fio, out=fio)
    np.tanh(act[3 * n:], out=act[3 * n:])
    np.multiply(act[:n], c, out=c_out)
    c_out += np.multiply(act[n:2 * n], act[3 * n:], out=mm[:n])
    np.tanh(c_out, out=h_out)
    h_out *= act[2 * n:3 * n]


_STEPS = {CellKind.RNN: _rnn_step, CellKind.GRU: _gru_step, CellKind.LSTM: _lstm_step}
_SIGMOID_GATES = {CellKind.RNN: 0, CellKind.GRU: 2, CellKind.LSTM: 3}  # leading each kind's rows


def _recurrent_weights(kind: CellKind, w: np.ndarray, n: int):
    """The recurrent block W[:, :H] as `_STEPS[kind]` reads it: a contiguous
    copy, the gated cell's split into (W_zr, W_cand), whose sigmoid gates'
    rows are negated.  Its products are those of W[:, :H] negated in those
    rows, bit for bit: negation is exact and round-to-nearest symmetric."""
    rows = _SIGMOID_GATES[kind] * n
    w_h = np.array(w[..., :n])
    np.negative(w_h[..., :rows, :], out=w_h[..., :rows, :])
    if kind is CellKind.GRU:
        return np.ascontiguousarray(w_h[..., :2 * n, :]), np.ascontiguousarray(w_h[..., 2 * n:, :])
    return w_h


def _run_layer(kind: CellKind, w: np.ndarray, b: np.ndarray | None, x: np.ndarray,
               h0: np.ndarray, c0: np.ndarray, workspace: _Workspace, layer: int,
               keep: bool = True):
    """One layer over a (L, D, B) input sequence from state (h0, c0), each (H, B).

    A group runs (L, D, nets, B) from (H, nets, B) states with weights
    (nets, G*H, H+D).  The sequences are buffers of `workspace` named after
    `layer`.  Returns (hidden (L, H, B), gate activations (L, G*H, B), memory
    cells (L, H, B) or None), with a group's net axis before B; for the plain
    cell the activations are the hidden.  The input projection of every step
    is computed into the gate buffer, its sigmoid gates' rows negated, and
    each step then overwrites its slot with the activations.  With `keep`
    false (inference) the memory cells take two slots, a step reading one and
    writing the other, and only the hidden sequence is returned, with None
    for the other two.
    """
    steps, n = x.shape[0], h0.shape[0]
    hs = workspace.take(("hidden", layer), (steps,) + h0.shape)
    act = hs
    if kind is not CellKind.RNN:
        act = workspace.take(("gates", layer), (steps, w.shape[-2]) + h0.shape[1:])
    cs = None
    if kind is CellKind.LSTM:
        cs = workspace.take(("cells", layer), (steps if keep else 2,) + h0.shape)
    _matmul(w[..., n:], x, out=act)  # every step's input projection in one call
    rows = _SIGMOID_GATES[kind] * n
    sig = act[:, :rows]
    if b is None:
        np.negative(sig, out=sig)
    else:  # the bias repeated per window, so each sum runs whole steps at a time
        bias = np.repeat(b.T[..., None], act.shape[-1], axis=-1)
        np.negative(bias[:rows], out=bias[:rows])
        np.subtract(bias[:rows], sig, out=sig)  # (-b) - p is -(p + b), bit for bit
        act[:, rows:] += bias[rows:]
    mm = workspace.take("step", act.shape[1:])
    step, w_h = _STEPS[kind], _recurrent_weights(kind, w, n)
    h, c = h0, c0
    with np.errstate(over="ignore"):  # a saturating gate's exp(-x) overflows to inf
        for t in range(steps):
            c_out = None if cs is None else cs[t % len(cs)]
            step(h, c, w_h, act[t], hs[t], c_out, mm)
            h, c = hs[t], c_out
    if not keep:
        return hs, None, None
    return hs, act, cs


# ---------------------------------------------------------------------------
# Forward / backward over stacked layers
# ---------------------------------------------------------------------------

class _Workspace:
    """Named buffers that the training steps of one `train_many` call share,
    its lockstep groups in turn.

    Every mini-batch's forward cache and backward's working arrays are views
    of them, so after the first step a step allocates no sequence-sized array
    and the process faults no page in again.  A buffer is allocated on its
    first request; a later request of at most as many entries (the partial
    last batch of an epoch, or a smaller group) takes its leading part, so a
    view is always contiguous."""

    def __init__(self):
        self._buffers: dict = {}

    def take(self, name, shape: tuple) -> np.ndarray:
        """An uninitialized view of buffer `name` with `shape`."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


@dataclass
class ForwardCache:
    """Activations retained for backpropagation; tied to one parameter set.
    Sequences are time-major and unit-major: (L, units, B), or a group's
    (L, units, nets, B), and are views of `workspace`'s buffers.  `backward`
    consumes the cache: it releases each layer's entries (sets them to None)
    once that layer's gradients are formed."""

    params_id: int
    inputs: list[np.ndarray]            # per layer: (L, D_layer, B) consumed input
    hidden: list[np.ndarray]            # per layer: (L, H, B) pre-dropout hidden
    gates: list[np.ndarray | None]      # per layer: (L, G*H, B) gate activations
    cells: list[np.ndarray | None]      # per layer: (L, H, B) memory cells (LSTM only)
    masks: list[np.ndarray | None]      # per layer: (L, H, B) inverted-dropout masks; the
    # top layer's holds its last step only, the one the head reads (the rest is unset)
    dropped_last: np.ndarray            # (H, B) head input; a group's (nets, H, B)
    predictions: np.ndarray             # (B,); a group's (nets, B)
    workspace: _Workspace = field(repr=False)


def _forward_batch(net: RecurrentNetwork, batch: np.ndarray, training: bool,
                   rng, keep: bool = True, workspace: _Workspace | None = None) -> ForwardCache:
    """The forward pass over a (B, L, D) batch, or over a group's (nets, B, L, D)
    batches when `net` holds a group's (nets, P) parameters.  `rng` draws the
    dropout masks: a generator, or a list of one per net.  The sequences go
    into `workspace`'s buffers (a fresh one by default), and `backward` takes
    its working arrays from the same workspace.  With `keep` false (inference)
    the cache holds no gate activations or memory cells, so it serves no
    `backward`."""
    cfg = net.config
    *nets, b, seq_len, feat = batch.shape
    if feat != cfg.input_features:
        raise ShapeMismatch(f"sequence has {feat} features, network expects {cfg.input_features}")
    if seq_len < 1:
        raise ShapeMismatch("sequence must have at least one time step")
    dropout = training and cfg.dropout_rate > 0.0
    if dropout and rng is None:
        raise ShapeMismatch("training forward pass needs a dropout generator")
    ws = _Workspace() if workspace is None else workspace
    rngs = rng if isinstance(rng, list) else [rng]
    h = cfg.hidden
    inputs, hidden, gates, cells, masks = [], [], [], [], []
    current = ws.take(("input", 0), (seq_len, feat, *nets, b))
    current[...] = batch.transpose((-2, -1) + tuple(range(batch.ndim - 2)))
    zeros = np.zeros((h, *nets, b))
    for layer, (w, bias) in enumerate(net.stacked):
        inputs.append(current)
        # inference keeps only the hidden sequences: the rest of a layer is freed with it
        layer_ws = ws if keep else _Workspace()
        hs, act, cs = _run_layer(cfg.cell, w, bias, current, zeros, zeros, layer_ws, layer, keep)
        hidden.append(hs)
        gates.append(act)
        cells.append(cs)
        mask = None
        current = hs
        if dropout:
            keep_prob = 1.0 - cfg.dropout_rate
            mask = ws.take(("mask", layer), hs.shape)
            # drawn as (B, L, H) per net, so seeded streams keep their masks; the
            # draws wait in the pre-activation gradient buffer, idle until backward
            idle = ws.take("d_act", (seq_len, _GATES[cfg.cell] * h, *nets, b))
            draws = idle.reshape(-1)[:mask.size].reshape(*nets, b, seq_len, h)
            for r, draw in zip(rngs, draws if nets else [draws]):
                r.random(out=draw)
            top = layer == cfg.layers - 1
            if top:  # the head reads the top layer's last step alone
                draws = draws[..., -1:, :]
            np.less(draws, keep_prob, out=draws)
            np.divide(draws, keep_prob, out=draws)
            np.copyto(mask[-1:] if top else mask, np.moveaxis(draws, (-2, -1), (0, 1)))
            if not top:
                current = np.multiply(hs, mask, out=ws.take(("input", layer + 1), hs.shape))
        masks.append(mask)
    last = hidden[-1][-1] if masks[-1] is None else hidden[-1][-1] * masks[-1][-1]
    dropped_last = np.ascontiguousarray(last.swapaxes(0, -2))  # nets first
    preds = (net.head.w_hy[..., None, :] @ dropped_last)[..., 0, :] + net.head.b_y[..., None]
    return ForwardCache(
        params_id=id(net.flat), inputs=inputs, hidden=hidden, gates=gates, cells=cells,
        masks=masks, dropped_last=dropped_last, predictions=preds, workspace=ws,
    )


def predict(net: RecurrentNetwork, sequences) -> np.ndarray:
    """Inference over a (N, seq_len, input_features) batch; returns (N,) predictions.

    Row i equals `predict(net, sequences[i:i + 1])` up to rounding: the
    batched matrix products may sum in another order, and a row's result
    can depend on the batch it runs in.  Reruns on the same batch are
    bit-identical.  `predict_many` of one network.
    """
    return predict_many([net], [sequences])[0]


def predict_many(networks, sequences) -> list[np.ndarray]:
    """`predict(networks[i], sequences[i])` of every i, in input order.

    Networks whose configs differ only in their seeds and whose batches share
    one shape run in lockstep, as `train_many` groups them: one forward pass
    over the group's stacked (nets, P) parameters, each product one batched
    `np.matmul` that makes every net's BLAS call of `predict`, so each result
    equals `predict` of that net alone, bit for bit.  `PREDICT_BYTES` caps
    a group's size.
    """
    networks = list(networks)
    batches = [np.asarray(s, dtype=float) for s in sequences]
    if len(networks) != len(batches):
        raise ShapeMismatch(f"{len(networks)} networks and {len(batches)} batches")
    groups: dict[tuple, list[int]] = {}
    for i, (net, batch) in enumerate(zip(networks, batches)):
        if batch.ndim != 3:
            raise ShapeMismatch(f"expected a 3-d batch of sequences, got shape {batch.shape}")
        groups.setdefault(_lockstep_key(net.config, batch.shape), []).append(i)
    results: list = [None] * len(batches)
    for (config, _, (n, seq_len, _)), members in groups.items():
        size = _group_size(replace(config, dropout_rate=0.0), max(1, seq_len), max(1, n),
                           PREDICT_BYTES)
        for start in range(0, len(members), size):
            group = members[start:start + size]
            if len(group) == 1:
                net, batch = networks[group[0]], batches[group[0]]
            else:
                net = _network(config, np.stack([networks[i].flat for i in group]))
                batch = np.stack([batches[i] for i in group])
            preds = _forward_batch(net, batch, training=False, rng=None, keep=False).predictions
            for i, row in zip(group, preds.reshape(len(group), -1)):
                results[i] = row
    return results


# ---------------------------------------------------------------------------
# Backpropagation through time, one loop per cell kind.  Each takes the
# gradient on the layer's hidden sequence and writes the pre-activation
# gradients to `d_act` (L, G*H, B) in the stacked gate order; `h_prev` is
# (L, H, B) and `w_h` the recurrent block W[:, :H].  `d_act` first receives,
# per gate, the factor from the gate's pre-activation to dh (or to dc, or to
# d(r * h_prev)) at every step, formed with `out=` so that no sequence-sized
# temporary is made; the loop scales step t's factors in place and writes
# every other intermediate into state-sized buffers made before it, so no
# step allocates.  The activations and memory cells are consumed: the gated
# cell's update gate becomes 1 - z, and the memory cell's cells become
# o * (1 - tanh(c)^2).
# ---------------------------------------------------------------------------

def _rnn_bptt(d_hidden, hs, act, cs, h_prev, w_h, d_act):
    w_ht = np.ascontiguousarray(np.swapaxes(w_h, -1, -2))
    np.multiply(hs, hs, out=d_act)
    np.subtract(1.0, d_act, out=d_act)
    dh, dh_next = np.empty_like(hs[0]), np.zeros_like(hs[0])
    for t in range(hs.shape[0] - 1, -1, -1):
        d_act[t] *= np.add(d_hidden[t], dh_next, out=dh)
        _matmul(w_ht, d_act[t], out=dh_next)


def _gru_bptt(d_hidden, hs, act, cs, h_prev, w_h, d_act):
    n = hs.shape[1]
    z, r, hc = act[:, :n], act[:, n:2 * n], act[:, 2 * n:]
    d_z, d_r, d_c = d_act[:, :n], d_act[:, n:2 * n], d_act[:, 2 * n:]
    np.subtract(1.0, z, out=d_r)  # z * (1 - z), held in d_r until d_r's turn
    np.multiply(z, d_r, out=d_r)
    np.subtract(hc, h_prev, out=d_z)
    d_z *= d_r
    np.subtract(1.0, r, out=d_r)
    np.multiply(r, d_r, out=d_r)
    d_r *= h_prev
    np.multiply(hc, hc, out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= z
    carry = np.subtract(1.0, z, out=z)
    w_t = np.swapaxes(w_h, -1, -2)
    w_zr_t = np.ascontiguousarray(w_t[..., :2 * n])
    w_cand_t = np.ascontiguousarray(w_t[..., 2 * n:])
    dh, d_rh, dh_next = np.empty_like(hs[0]), np.empty_like(hs[0]), np.zeros_like(hs[0])
    for t in range(hs.shape[0] - 1, -1, -1):
        np.add(d_hidden[t], dh_next, out=dh)
        da = d_act[t]
        da[2 * n:] *= dh
        _matmul(w_cand_t, da[2 * n:], out=d_rh)
        da[:n] *= dh
        da[n:2 * n] *= d_rh
        # dh * (1 - z) + d_rh * r + W_zr^T @ da_zr, summed in that order
        np.multiply(dh, carry[t], out=dh_next)
        dh_next += np.multiply(d_rh, r[t], out=d_rh)
        dh_next += _matmul(w_zr_t, da[:2 * n], out=d_rh)


def _lstm_bptt(d_hidden, hs, act, cs, h_prev, w_h, d_act):
    n = hs.shape[1]
    f, i, o, cc = (act[:, k * n:(k + 1) * n] for k in range(4))
    d_f, d_i, d_o, d_c = (d_act[:, k * n:(k + 1) * n] for k in range(4))
    d_f[0] = 0.0  # the first step's previous cell state is zero
    np.subtract(1.0, f[1:], out=d_f[1:])
    d_f[1:] *= f[1:]
    d_f[1:] *= cs[:-1]
    np.subtract(1.0, i, out=d_i)
    d_i *= i
    d_i *= cc
    np.multiply(cc, cc, out=d_c)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= i
    g_c = np.tanh(cs, out=cs)
    np.subtract(1.0, o, out=d_o)
    d_o *= o
    d_o *= g_c
    g_c *= g_c  # from dh to dc: o * (1 - tanh(c)^2)
    np.subtract(1.0, g_c, out=g_c)
    g_c *= o
    w_ht = np.ascontiguousarray(np.swapaxes(w_h, -1, -2))
    dh, d_cell = np.empty_like(hs[0]), np.empty_like(hs[0])
    dh_next, dc_next = np.zeros_like(hs[0]), np.zeros_like(hs[0])
    for t in range(hs.shape[0] - 1, -1, -1):
        np.add(d_hidden[t], dh_next, out=dh)
        np.multiply(dh, g_c[t], out=d_cell)
        d_cell += dc_next
        da = d_act[t]
        gates_fi = da[:2 * n].reshape((2,) + d_cell.shape)  # forget and input gates
        gates_fi *= d_cell
        da[2 * n:3 * n] *= dh
        da[3 * n:] *= d_cell
        np.multiply(d_cell, f[t], out=dc_next)
        _matmul(w_ht, da, out=dh_next)


_BPTT = {CellKind.RNN: _rnn_bptt, CellKind.GRU: _gru_bptt, CellKind.LSTM: _lstm_bptt}


def _by_net(seq: np.ndarray) -> np.ndarray:
    """A (L, units, [nets,] B) sequence as ([nets,] units, L, B), and back."""
    return seq.swapaxes(0, -2)


def _as_rows(seq: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """A (L, units, [nets,] B) sequence as the ([nets,] units, L*B) rows the
    weight products read: for a batch of one a view, otherwise a copy into
    `spare`, a consumed array of as many entries."""
    rows = _by_net(seq)
    if seq.shape[-1] > 1:
        spare = spare.reshape(rows.shape)
        spare[...] = rows
        rows = spare
    return rows.reshape(rows.shape[:-2] + (-1,))


def backward(net: RecurrentNetwork, cache: ForwardCache, loss_grad) -> np.ndarray:
    """Full backpropagation through time from d(loss)/d(prediction).

    Returns the gradient as one flat vector in the layout of `net.flat`.
    Dropout masks from the forward pass are reused, so the gradient matches
    the exact forward computation.  A group's cache takes (nets, B) loss
    gradients and gives (nets, P).

    The cache is consumed: its sequences serve as working arrays, each
    layer's entries are released once that layer's gradients are formed, top
    layer first, and a second `backward` on it raises `StaleCache`.  The
    working arrays and the returned gradient are buffers of the cache's
    workspace, so a training step that reuses the workspace overwrites them.
    """
    if cache.params_id != id(net.flat):
        raise StaleCache("cache was built for a different parameter set")
    if cache.gates[-1] is None:
        raise StaleCache("cache holds no activations: consumed by a backward, "
                         "or built for inference")
    cfg = net.config
    ws = cache.workspace
    preds = cache.predictions
    d_pred = np.asarray(loss_grad, dtype=float)
    if d_pred.size == 1:
        d_pred = np.full(preds.shape, float(d_pred.reshape(-1)[0]))
    if d_pred.size != preds.size:
        raise ShapeMismatch(f"loss gradient has {d_pred.size} entries for batch of {preds.size}")
    d_pred = d_pred.reshape(preds.shape)
    nets = preds.shape[:-1]

    grads = ws.take("grads", net.flat.shape)  # every entry is assigned below
    n = cfg.hidden
    grads[..., -1 - n:-1] = (cache.dropped_last @ d_pred[..., None])[..., 0]
    grads[..., -1] = d_pred.sum(axis=-1)
    # gradient w.r.t. each layer's dropped output sequence, kept in the top
    # layer's dropout mask (without dropout, in a mask of ones)
    d_out = cache.masks[-1]
    if d_out is None:
        d_out = ws.take("d_out", cache.hidden[-1].shape)
        d_out[-1] = 1.0
    d_out[:-1] = 0.0
    d_out[-1] *= net.head.w_hy.T[..., None] * d_pred
    seq_len, b = d_out.shape[0], d_out.shape[-1]

    grad_layers = _network(cfg, grads).stacked
    for layer in range(cfg.layers - 1, -1, -1):
        w, _ = net.stacked[layer]
        g_w, g_b = grad_layers[layer]
        rows, cols = w.shape[-2:]
        hs, act = cache.hidden[layer], cache.gates[layer]
        # [h_prev, x] of every step, laid out (H+D, L, B) for the products below
        u = ws.take("u", nets + (cols, seq_len, b))
        u[..., :n, 0, :] = 0.0
        u[..., :n, 1:, :] = _by_net(hs[:-1])
        u[..., n:, :, :] = _by_net(cache.inputs[layer])
        h_prev = _by_net(u[..., :n, :, :])
        d_act = ws.take("d_act", (seq_len, rows) + nets + (b,))
        _BPTT[cfg.cell](d_out, hs, act, cache.cells[layer], h_prev, w[..., :n], d_act)
        if layer:  # gradient on the dropped output of the layer below
            _matmul(np.swapaxes(w[..., n:], -1, -2), d_act, out=d_out)
            if cache.masks[layer - 1] is not None:
                d_out *= cache.masks[layer - 1]  # through inverted dropout
        if cfg.cell is CellKind.GRU:  # the candidate reads [r * h_prev, x]
            rh = np.multiply(act[:, n:2 * n], h_prev, out=hs)
        # weight and bias gradients after the loop, one product each over all steps
        d_rows = _as_rows(d_act, act)
        g_w[...] = d_rows @ np.swapaxes(u.reshape(nets + (cols, -1)), -1, -2)
        if cfg.cell is CellKind.GRU:
            rh = _as_rows(rh, u[..., :n, :, :])
            g_w[..., 2 * n:, :n] = d_rows[..., 2 * n:, :] @ np.swapaxes(rh, -1, -2)
        if g_b is not None:
            g_b[...] = d_rows.sum(axis=-1)
        for entries in (cache.inputs, cache.hidden, cache.gates, cache.cells, cache.masks):
            entries[layer] = None
    return grads


# ---------------------------------------------------------------------------
# Adam, training loop
# ---------------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass(frozen=True)
class AdamState:
    """Adam's moments, flat in the layout of `RecurrentNetwork.flat`, its step
    count and learning rate; the decays and guard are `_BETA1`, `_BETA2`, `_EPS`."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3


def init_adam(net: RecurrentNetwork, lr: float = 1e-3) -> AdamState:
    return AdamState(first_moment=np.zeros_like(net.flat),
                     second_moment=np.zeros_like(net.flat), lr=lr)


def adam_step(net: RecurrentNetwork, grads, state: AdamState) -> tuple[RecurrentNetwork, AdamState]:
    """Bias-corrected Adam update from a flat gradient of `net.flat`'s shape (as
    `backward` returns), in place: it overwrites `net.flat`, which the stacked
    views follow, and the state's moments, and returns (net, the state with its
    step count advanced).  A forward cache of `net` must go through `backward`
    before the step: `backward` checks the vector's identity, which the step
    keeps.  The operands combine in the order of b1*m + (1-b1)*g,
    b2*v + ((1-b2)*g)*g and lr*(m/bc1) / (sqrt(v/bc2) + eps)."""
    g = np.asarray(grads, dtype=float)
    if g.shape != net.flat.shape:
        raise ShapeMismatch(f"gradient has shape {g.shape}, expected {net.flat.shape}")
    t = state.step_count + 1
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    m, v = state.first_moment, state.second_moment
    scratch = np.multiply(1.0 - _BETA1, g)
    m *= _BETA1
    m += scratch
    np.multiply(1.0 - _BETA2, g, out=scratch)
    scratch *= g
    v *= _BETA2
    v += scratch
    denom = np.divide(v, bc2)
    np.sqrt(denom, out=denom)
    denom += _EPS
    np.divide(m, bc1, out=scratch)
    scratch *= state.lr
    scratch /= denom
    np.subtract(net.flat, scratch, out=net.flat)
    return net, replace(state, step_count=t)


def clip_gradients(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """Global-norm clipping of a flat gradient vector in place: scales it
    down to `max_norm` when its norm exceeds it, and returns it."""
    total = math.sqrt(float(np.vdot(grads, grads)))
    if total <= max_norm or total == 0.0:
        return grads
    grads *= max_norm / total
    return grads


CLIP_NORM = 5.0  # each net's gradient is clipped to this global norm


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < math.inf:  # NaN included
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _lockstep_key(config: NetworkConfig, shape: tuple, train_cfg: TrainConfig | None = None):
    """What the networks of one lockstep group share: their configs and
    training configs up to the seed, and the shape of their inputs."""
    return (replace(config, seed=0), None if train_cfg is None else replace(train_cfg, seed=0),
            shape)


# A lockstep group's training batch keeps at most this many bytes of
# activations for backpropagation: its forward cache, as `_step_bytes`
# counts it.  The group's workspace also holds backward's pre-activation
# gradients (G*H units per step), [h_prev, x] rows (H+D) and gradient
# vector, so a step has 1.4x the count live for a 2-layer LSTM with dropout;
# the parameters, Adam moments and the Adam step's two temporaries come on
# top (a 2x64 LSTM epoch peaks at 1.6x in `tracemalloc`).  Lockstep saves
# numpy's per-call cost, which dominates small networks; once a net's products
# outweigh it, the group's larger working set costs more than it saves.
# Measured one epoch at batch 32 on one CPU with a 2 MiB L2 cache, as the
# speedup of lockstep (one-by-one time / lockstep time; below 1x lockstep
# is slower): 10 LSTM nets of 1x4, seq 12 (0.8 MB as a group) 2.7-3.1x;
# 3 LSTM 2x16, seq 25, dropout (4.6 MB) 1.1-1.3x; 3 LSTM 2x24 (6.9 MB)
# 0.96x; 3 RNN 2x64, seq 50 (4.1 MB each) 0.73x; 3 LSTM 2x64, seq 50
# (12.3 MB each) 0.88-1.02x.
GROUP_BYTES = 5 << 20

# `predict_many`'s cap on a group, in the bytes `_step_bytes` counts for
# training without dropout.  Inference keeps less: every layer's hidden
# sequence, and one layer at a time its gate buffer (which first holds the
# input projection) and two memory-cell slots.  Measured LSTM inference
# on one CPU by the group's counted bytes, as the speedup of lockstep
# (one-by-one time / lockstep time; below 1x lockstep is slower): 3 nets of
# 2x64, seq 50: 6 windows (5.7 MB) 1.15x, 20 (19 MB) 1.03x, 70 (67 MB)
# 0.79x; 3 of 2x16, seq 25: 70 windows (8.4 MB) 1.18x, 200 (24 MB) 1.05x,
# 500 (60 MB) 0.75x; 10 of 1x4, seq 12: 200 windows (4.8 MB) 1.45x, 1000
# (24 MB) 0.97x; 10 of 2x64, seq 50, 70 windows (223 MB) 0.65x.
PREDICT_BYTES = 16 << 20


def _step_bytes(config: NetworkConfig, seq_len: int, batch: int) -> int:
    """The bytes one net's training batch keeps for backpropagation: per layer
    its input, hidden, gate, memory-cell and dropout-mask sequences."""
    h, kind = config.hidden, config.cell
    units = 0
    for layer in range(config.layers):
        units += (config.input_features if layer == 0 else h) + h
        units += 0 if kind is CellKind.RNN else _GATES[kind] * h
        units += h if kind is CellKind.LSTM else 0
        units += h if config.dropout_rate > 0.0 else 0
    return 8 * units * seq_len * batch


def _group_size(config: NetworkConfig, seq_len: int, batch: int,
                budget: int = GROUP_BYTES) -> int:
    """How many networks of this shape `train_many` trains in one lockstep group:
    as many as fit `budget` with the `_step_bytes` of each."""
    if config.hidden == 1:
        # a one-unit net's products have a single row, which BLAS runs as
        # strided vector products whose sums a group would reorder
        return 1
    return max(1, budget // _step_bytes(config, seq_len, batch))


def train(inputs, targets, config: NetworkConfig,
          train_cfg: TrainConfig = TrainConfig()) -> tuple[RecurrentNetwork, list[float]]:
    """Mini-batch Adam over seeded shuffles of (inputs, targets).

    inputs: (N, seq_len, input_features); targets: (N,).  Returns the trained
    network and the per-epoch mean training loss.  epochs=0 returns the
    freshly initialized network unchanged.  `train_many` of one network.
    """
    return train_many([inputs], [targets], [config], [train_cfg])[0]


def train_many(inputs, targets, configs,
               train_configs) -> list[tuple[RecurrentNetwork, list[float]]]:
    """`train` of every (inputs[i], targets[i], configs[i], train_configs[i]).

    Networks whose configs differ only in their seeds and whose inputs share
    one shape train in lockstep groups of at most `GROUP_BYTES` of
    activations: each mini-batch of every net of a group runs through one
    forward pass, one `backward` and one `adam_step` over the group's
    stacked (nets, P) parameters, each product one batched `np.matmul` that
    makes every net's BLAS call of `train`.  Each net keeps its own shuffle
    and dropout generators and clips its own gradient, so every result equals
    `train` of that net alone, bit for bit.  The groups train one after
    another in one workspace.  Results come in input order.
    """
    xs = [np.asarray(x, dtype=float) for x in inputs]
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in targets]
    configs, train_configs = list(configs), list(train_configs)
    if not len(xs) == len(ys) == len(configs) == len(train_configs):
        raise ShapeMismatch(f"{len(xs)} inputs, {len(ys)} targets, {len(configs)} network "
                            f"configs and {len(train_configs)} training configs")
    groups: dict[tuple, list[int]] = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x.ndim != 3 or x.shape[0] == 0:
            raise EmptyDataset(f"expected a nonempty (N, L, D) input array, got shape {x.shape}")
        if x.shape[0] != y.size:
            raise ShapeMismatch(f"{x.shape[0]} inputs vs {y.size} targets")
        groups.setdefault(_lockstep_key(configs[i], x.shape, train_configs[i]), []).append(i)
    results: list = [None] * len(xs)
    workspace = _Workspace()
    for (config, train_cfg, (n, seq_len, _)), members in groups.items():
        size = _group_size(config, seq_len, max(1, min(train_cfg.batch_size, n)))
        for start in range(0, len(members), size):
            group = members[start:start + size]
            trained = _train_group([xs[i] for i in group], [ys[i] for i in group],
                                   [configs[i] for i in group], [train_configs[i] for i in group],
                                   workspace)
            for i, result in zip(group, trained):
                results[i] = result
    return results


def _train_group(xs, ys, configs, train_configs,
                 workspace: _Workspace) -> list[tuple[RecurrentNetwork, list[float]]]:
    """`train_many` of one lockstep group; a group of one runs without a net axis.
    Every mini-batch's forward cache and backward's working arrays are views of
    `workspace`, which the groups of one `train_many` call share in turn."""
    one = len(xs) == 1
    stack = (lambda arrays: arrays[0]) if one else np.stack
    net = _network(configs[0], stack([init_network(c).flat for c in configs]))
    train_cfg = train_configs[0]
    state = init_adam(net, lr=train_cfg.lr)
    shuffle_rngs = [np.random.default_rng([t.seed, 1]) for t in train_configs]
    dropout_rngs = [np.random.default_rng([t.seed, 2]) for t in train_configs]
    n = xs[0].shape[0]
    batch = max(1, min(train_cfg.batch_size, n))
    history = []
    for _ in range(train_cfg.epochs):
        orders = [r.permutation(n) for r in shuffle_rngs]
        sq_err = np.zeros(len(xs))
        for start in range(0, n, batch):
            sels = [order[start:start + batch] for order in orders]
            cache = _forward_batch(net, stack([x[sel] for x, sel in zip(xs, sels)]),
                                   training=True, rng=dropout_rngs, workspace=workspace)
            err = cache.predictions - stack([y[sel] for y, sel in zip(ys, sels)])
            sq_err += (err * err).sum(axis=-1)
            d_pred = 2.0 * err / sels[0].size
            grads = backward(net, cache, d_pred)
            for g in grads.reshape(-1, grads.shape[-1]):  # each net's own norm
                clip_gradients(g, CLIP_NORM)
            net, state = adam_step(net, grads, state)
        history.append(sq_err / n)
    if one:
        return [(net, [float(h[0]) for h in history])]
    return [(_network(c, net.flat[j].copy()), [float(h[j]) for h in history])
            for j, c in enumerate(configs)]
