from __future__ import annotations

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scipy import special

from modecast import neural, persist
from modecast.errors import EmptyDataset, ShapeMismatch, StaleCache
from modecast.neural import (
    CellKind,
    NetworkConfig,
    TrainConfig,
    adam_step,
    backward,
    clip_gradients,
    init_adam,
    init_network,
    parameter_count,
    train,
    _network,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


# ---------------------------------------------------------------------------
# Cells: one step of the engine's layer loop on stacked (w, b).  A gate matrix
# is (G*H, H+D) with columns [:H] on h_prev and [H:] on x; the memory cell's
# rows (and bias) run f, i, o, c.
# ---------------------------------------------------------------------------

def _one_step(kind, w, b, h_prev, x, c_prev=None):
    """One step of `neural._run_layer` from state (h_prev, c_prev) on input x,
    each a vector or a (B, units) batch; returns (h, c), c None but for LSTM."""
    def unit_major(a):  # (units,) or (B, units) as a contiguous (units, B) block
        return np.ascontiguousarray(np.atleast_2d(np.asarray(a, dtype=float)).T)

    c0 = np.zeros(np.shape(h_prev)) if c_prev is None else c_prev
    hs, _, cs = neural._run_layer(kind, w, b, unit_major(x)[None], unit_major(h_prev),
                                  unit_major(c0), neural._Workspace(), 0)
    h, c = hs[0].T, None if cs is None else cs[0].T
    if np.ndim(h_prev) == 1:
        return h[0], None if c is None else c[0]
    return h, c


def _sigmoid_inputs():
    grid = np.linspace(-60.0, 60.0, 2001).reshape(3, -1)
    return grid, np.random.default_rng(11).standard_normal(10**6) * 5.0


def _gate_sigmoid(x, chunk=10**5):
    """The engine's sigmoid of every entry of x: the forget gate of one step of
    a one-unit LSTM layer whose input weight is one and whose other parameters
    are zero, so the gate's sum is x (held negated).  Run in chunks of
    windows, to keep the layer's buffers small."""
    w, flat = np.zeros((4, 2)), np.asarray(x, dtype=float).reshape(-1)
    w[0, 1] = 1.0
    out = np.empty_like(flat)
    for start in range(0, flat.size, chunk):
        part = flat[start:start + chunk]
        zeros = np.zeros((1, part.size))
        _, act, _ = neural._run_layer(CellKind.LSTM, w, np.zeros(4), part[None, None], zeros,
                                      zeros, neural._Workspace(), 0)
        out[start:start + part.size] = act[0, 0]
    return out.reshape(np.shape(x))


def test_sigmoid_is_expit_and_saturates():
    # numpy's vectorized exp may round the last bit unlike libm's, which expit
    # calls; sigmoid values are non-negative, so their bit patterns count ulps
    for x in _sigmoid_inputs():
        ulps = np.abs(_gate_sigmoid(x).view(np.int64) - special.expit(x).view(np.int64))
        assert ulps.max() <= 2
    with warnings.catch_warnings():  # exp(1000) overflows to inf, which the layer allows
        warnings.simplefilter("error")
        assert _gate_sigmoid(np.array([-1000.0, 1000.0])).tolist() == [0.0, 1.0]


def test_sigmoid_is_reciprocal_of_one_plus_numpy_exp():
    # the steps' three passes over the negated sums give the four-pass formula's floats
    for x in _sigmoid_inputs():
        assert np.array_equal(_gate_sigmoid(x), 1.0 / (1.0 + np.exp(-x)))


@pytest.mark.parametrize("pre", [-1000.0, 1000.0])
def test_saturated_gates_give_exact_states_without_warning(pre):
    h = 3
    gru = np.zeros((3 * h, h + 1))
    gru[:2 * h, h:] = pre  # z = r = sigmoid(pre) on an input of one
    h_prev = np.full(h, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_lstm, c_lstm = _one_step(CellKind.LSTM, np.zeros((4 * h, h + 1)), np.full(4 * h, pre),
                                   np.zeros(h), np.ones(1), np.zeros(h))
        h_gru, _ = _one_step(CellKind.GRU, gru, None, h_prev, np.ones(1))
    on = pre > 0  # every gate 1.0, or every gate 0.0
    assert c_lstm.tolist() == [1.0 if on else 0.0] * h
    assert np.array_equal(h_lstm, np.tanh(np.ones(h)) if on else np.zeros(h))
    assert h_gru.tolist() == [0.0 if on else 0.5] * h


def test_rnn_cell_zero_weights():
    out, _ = _one_step(CellKind.RNN, np.zeros((3, 5)), np.zeros(3), np.ones(3), np.ones(2))
    assert np.array_equal(out, np.zeros(3))


def test_rnn_cell_closed_form():
    # [W_hh | W_xh] = [0 | 1], b_h = 0
    out, _ = _one_step(CellKind.RNN, np.array([[0.0, 1.0]]), np.zeros(1), np.zeros(1), np.array([0.5]))
    assert out[0] == pytest.approx(math.tanh(0.5), abs=1e-12)
    assert -1.0 < out[0] < 1.0


def test_gru_cell_zero_weights_halves_state():
    h_prev = np.array([0.6, -0.4])
    out, _ = _one_step(CellKind.GRU, np.zeros((6, 4)), None, h_prev, np.ones(2))
    assert np.allclose(out, 0.5 * h_prev, atol=1e-12)


def test_gru_cell_saturated_update_gate():
    # huge update-gate weights (row 0) on a constant input force z -> 1, so h -> candidate
    w = np.zeros((3, 2))
    w[0] = 50.0
    out, _ = _one_step(CellKind.GRU, w, None, np.array([0.9]), np.array([1.0]))
    assert out[0] == pytest.approx(0.0, abs=1e-6)  # candidate is tanh(0) = 0


def test_gru_cell_hand_case():
    # hidden=1, input=1, all weights 1, h_prev=0, x=1
    z = sigmoid(1.0)
    h_cand = math.tanh(1.0)
    expected = z * h_cand
    out, _ = _one_step(CellKind.GRU, np.ones((3, 2)), None, np.zeros(1), np.ones(1))
    assert out[0] == pytest.approx(expected, abs=1e-12)


def _lstm_params(h, d, fill=0.5, bias=0.0):
    return np.full((4 * h, h + d), fill), np.full(4 * h, bias)


def test_lstm_cell_zero_weights():
    w, b = _lstm_params(1, 1, fill=0.0)
    h, c = _one_step(CellKind.LSTM, w, b, np.zeros(1), np.ones(1), np.array([2.0]))
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert h[0] == pytest.approx(0.5 * math.tanh(1.0), abs=1e-12)


def test_lstm_cell_saturated_gates_keep_memory():
    # forget gate driven to 1 and input gate to 0: c carries over unchanged
    w, b = _lstm_params(1, 1, fill=0.0)
    b[:2] = 50.0, -50.0  # b_f, b_i
    c_prev = np.array([1.3])
    _, c = _one_step(CellKind.LSTM, w, b, np.zeros(1), np.ones(1), c_prev)
    assert c[0] == pytest.approx(c_prev[0], abs=1e-6)


def test_lstm_cell_hand_case():
    gate = sigmoid(0.5)
    c_cand = math.tanh(0.5)
    c_expected = gate * c_cand
    h_expected = gate * math.tanh(c_expected)
    w, b = _lstm_params(1, 1, fill=0.5)
    h, c = _one_step(CellKind.LSTM, w, b, np.zeros(1), np.ones(1), np.zeros(1))
    assert c[0] == pytest.approx(c_expected, abs=1e-12)
    assert h[0] == pytest.approx(h_expected, abs=1e-12)


def test_state_stays_bounded_from_bounded_state():
    # gates live in (0,1) and the candidate in (-1,1), so the blended state
    # stays inside (-1,1) whenever the previous state does
    rng = np.random.default_rng(0)
    w = rng.standard_normal((12, 6))
    h = np.zeros(4)
    for _ in range(20):
        h, _ = _one_step(CellKind.GRU, w, None, h, rng.standard_normal(2))
        assert np.all(np.abs(h) < 1.0)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def _forward(net, seq, training=False, seed=0):
    """One (seq_len, features) sequence through the forward pass: (prediction, cache).
    Inference reads no generator, so its `seed` must not matter."""
    cache = neural._forward_batch(net, np.asarray(seq, dtype=float)[None], training,
                                  np.random.default_rng(seed))
    return float(cache.predictions[0]), cache


def test_forward_no_dropout_training_equals_inference():
    cfg = NetworkConfig(cell=CellKind.GRU, layers=2, hidden=6, input_features=2,
                        dropout_rate=0.0, seed=1)
    net = init_network(cfg)
    seq = np.random.default_rng(2).standard_normal((7, 2))
    p_train, _ = _forward(net, seq, training=True, seed=5)
    p_infer, _ = _forward(net, seq, training=False)
    assert p_train == p_infer


def test_forward_inference_independent_of_seed():
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=5, input_features=2,
                        dropout_rate=0.5, seed=3)
    net = init_network(cfg)
    seq = np.random.default_rng(4).standard_normal((6, 2))
    a, _ = _forward(net, seq, training=False, seed=1)
    b, _ = _forward(net, seq, training=False, seed=999)
    assert a == b


def test_forward_matches_hand_unrolled_rnn():
    # single layer, hidden=1: h_t = tanh(w_h * h_{t-1} + w_x . x_t + b)
    cfg = NetworkConfig(cell=CellKind.RNN, layers=1, hidden=1, input_features=2,
                        dropout_rate=0.0, seed=0)
    net = init_network(cfg)
    w, b = net.stacked[0]  # [W_hh | W_xh], b_h
    w_hh, w_xh, b_h = float(w[0, 0]), w[0, 1:], float(b[0])
    seq = np.array([[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]])
    h = 0.0
    for x in seq:
        h = math.tanh(w_hh * h + float(w_xh @ x) + b_h)
    expected = float(net.head.w_hy[0]) * h + net.head.b_y
    pred, _ = _forward(net, seq)
    assert pred == pytest.approx(expected, abs=1e-12)


def test_forward_rejects_wrong_feature_count():
    net = init_network(NetworkConfig(cell=CellKind.RNN, layers=1, hidden=2, input_features=2))
    with pytest.raises(ShapeMismatch):
        _forward(net, np.zeros((5, 3)))


def test_dropout_expectation_matches_identity():
    # inverted dropout: averaging the masked linear read-out over many masks
    # approaches the unmasked value within 1%
    rate = 0.3
    rng = np.random.default_rng(8)
    activations = rng.standard_normal(64)
    weights = rng.standard_normal(64)
    reference = float(weights @ activations)
    keep = 1.0 - rate
    total = 0.0
    n_masks = 20_000
    mask_rng = np.random.default_rng(123)
    for _ in range(n_masks):
        mask = (mask_rng.random(64) < keep) / keep
        total += float(weights @ (activations * mask))
    assert total / n_masks == pytest.approx(reference, rel=0.01)


# ---------------------------------------------------------------------------
# Backward: the flagship finite-difference checks
# ---------------------------------------------------------------------------

def _numeric_vs_analytic(kind: CellKind, seed: int = 3, dropout: float = 0.0) -> float:
    # with training=True the masks are a pure function of the fixed seed, so
    # central differences remain valid through active dropout
    cfg = NetworkConfig(cell=kind, layers=2, hidden=4, input_features=2,
                        dropout_rate=dropout, seed=seed)
    net = init_network(cfg)
    seq = np.random.default_rng(seed + 50).standard_normal((5, 2))
    target = 0.37
    training = dropout > 0.0

    def loss_at(vec):  # squared error of the network whose parameters are `vec`
        pred, _ = _forward(_network(cfg, vec), seq, training=training, seed=777)
        return (pred - target) ** 2

    pred, cache = _forward(net, seq, training=training, seed=777)
    grads = backward(net, cache, 2.0 * (pred - target))
    worst = 0.0
    eps = 1e-5
    for i in range(net.flat.size):
        plus, minus = net.flat.copy(), net.flat.copy()
        plus[i] += eps
        minus[i] -= eps
        numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps)
        analytic = float(grads[i])
        scale = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / scale)
    return worst


@pytest.mark.parametrize("kind", [CellKind.RNN, CellKind.GRU, CellKind.LSTM])
def test_bptt_gradients_match_finite_differences(kind):
    assert _numeric_vs_analytic(kind) < 1e-4


@pytest.mark.parametrize("kind", [CellKind.RNN, CellKind.GRU, CellKind.LSTM])
def test_bptt_gradients_exact_through_dropout(kind):
    assert _numeric_vs_analytic(kind, dropout=0.4) < 1e-4


def test_zero_loss_gradient_gives_zero_parameter_gradients():
    net = init_network(NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=3, input_features=2,
                                     dropout_rate=0.0, seed=1))
    seq = np.random.default_rng(0).standard_normal((4, 2))
    _, cache = _forward(net, seq)
    assert np.all(backward(net, cache, 0.0) == 0.0)


def test_backward_deterministic():
    net = init_network(NetworkConfig(cell=CellKind.GRU, layers=2, hidden=3, input_features=2,
                                     dropout_rate=0.0, seed=2))
    seq = np.random.default_rng(1).standard_normal((4, 2))
    pred, cache = _forward(net, seq)
    g1 = backward(net, cache, 1.0)
    pred2, cache2 = _forward(net, seq)
    g2 = backward(net, cache2, 1.0)
    assert pred == pred2
    assert np.array_equal(g1, g2)


def test_backward_rejects_stale_cache():
    cfg = NetworkConfig(cell=CellKind.RNN, layers=1, hidden=2, input_features=2,
                        dropout_rate=0.0, seed=0)
    net = init_network(cfg)
    seq = np.zeros((3, 2))
    _, cache = _forward(net, seq)
    other = init_network(cfg)
    with pytest.raises(StaleCache):
        backward(other, cache, 1.0)


def test_backward_consumes_its_cache():
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=3, input_features=2,
                        dropout_rate=0.3, seed=4)
    net = init_network(cfg)
    x = np.random.default_rng(0).standard_normal((5, 4, 2))
    cache = neural._forward_batch(net, x, True, np.random.default_rng(1))
    backward(net, cache, np.ones(5))
    for entries in (cache.inputs, cache.hidden, cache.gates, cache.cells, cache.masks):
        assert entries == [None, None]  # every layer released
    with pytest.raises(StaleCache):
        backward(net, cache, np.ones(5))
    with pytest.raises(StaleCache):  # an inference pass keeps no activations
        backward(net, neural._forward_batch(net, x, False, None, keep=False), np.ones(5))


def test_training_epoch_peak_memory_at_the_served_shape():
    # the reference-size network `forecast-serve` trains: 2x64 LSTM, seq 50, batch 32,
    # 154 windows (a partial last batch); the cache counted by `_step_bytes` is 12.3 MB.
    # What a step keeps beyond it: the pre-activation gradients (4H units), the
    # [h_prev, x] rows (2H), parameters, Adam moments and the in-place Adam
    # step's two temporaries; 1.60x in all.  A step that allocated its own
    # arrays peaked at 2.42x, and an Adam step that returned new arrays at 1.70x.
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=64, input_features=2,
                        dropout_rate=0.2, seed=1)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((154, 50, 2)), rng.standard_normal(154)
    tracemalloc.start()
    try:
        train(x, y, cfg, TrainConfig(epochs=1, batch_size=32, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.65 * neural._step_bytes(cfg, 50, 32)


def test_gradient_flows_through_dropout_masks():
    cfg = NetworkConfig(cell=CellKind.RNN, layers=2, hidden=4, input_features=2,
                        dropout_rate=0.5, seed=9)
    net = init_network(cfg)
    seq = np.random.default_rng(7).standard_normal((5, 2))
    pred, cache = _forward(net, seq, training=True, seed=11)
    assert np.any(backward(net, cache, 1.0) != 0.0)


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,per_layer", [
    (CellKind.RNN, lambda h, d: h * (h + d) + h),
    (CellKind.GRU, lambda h, d: 3 * h * (h + d)),
    (CellKind.LSTM, lambda h, d: 4 * (h * (h + d) + h)),
])
def test_parameter_count_closed_form(kind, per_layer):
    h, d = 8, 2
    cfg = NetworkConfig(cell=kind, layers=2, hidden=h, input_features=d)
    expected = per_layer(h, d) + per_layer(h, h) + h + 1
    assert parameter_count(cfg) == expected
    # the stacked gate matrices, biases and head tile the flat vector exactly
    vec = np.zeros(expected)
    net = _network(cfg, vec)
    for w, b in net.stacked:
        w += 1.0
        if b is not None:
            b += 1.0
    net.head.w_hy[...] += 1.0
    net.head.b_y[...] += 1.0
    assert np.array_equal(vec, np.ones(expected))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_is_signed_learning_rate():
    net = init_network(NetworkConfig(cell=CellKind.RNN, layers=1, hidden=2, input_features=2, seed=4))
    before = net.flat.copy()  # the step updates the parameters in place
    state = init_adam(net, lr=1e-3)
    g = np.full(net.flat.shape, 0.25)
    after_net, after_state = adam_step(net, g, state)
    expected = -1e-3 * g / (np.abs(g) + 1e-8)
    assert np.abs(after_net.flat - before - expected).max() < 1e-12
    assert after_state.step_count == 1


def test_adam_zero_gradient_keeps_parameters():
    net = init_network(NetworkConfig(cell=CellKind.GRU, layers=1, hidden=2, input_features=2, seed=5))
    before = net.flat.copy()
    state = init_adam(net)
    after_net, after_state = adam_step(net, np.zeros_like(net.flat), state)
    assert np.array_equal(after_net.flat, before)
    assert after_state.step_count == 1


def test_adam_in_place_equals_the_copying_formula():
    # five steps of a lockstep group's (nets, P) update, in place, against the
    # expressions written out on copies: equal bit for bit
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=3, input_features=2, seed=6)
    flat = np.stack([init_network(cfg).flat, init_network(replace(cfg, seed=7)).flat])
    net = _network(cfg, flat)
    state = init_adam(net, lr=3e-3)
    params, m, v = flat.copy(), np.zeros_like(flat), np.zeros_like(flat)
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        grads = rng.standard_normal(flat.shape) * 10.0 ** rng.integers(-6, 3, flat.shape)
        net, state = adam_step(net, grads, state)
        m = 0.9 * m + (1.0 - 0.9) * grads
        v = 0.999 * v + (1.0 - 0.999) * grads * grads
        params = params - 3e-3 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        assert state.step_count == t
    assert net.flat is flat
    for got, want in ((net.flat, params), (state.first_moment, m), (state.second_moment, v)):
        assert got.tobytes() == want.tobytes()


def test_adam_streams_stay_bit_identical():
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=1, hidden=2, input_features=2, seed=6)
    net_a, net_b = init_network(cfg), init_network(cfg)
    state_a, state_b = init_adam(net_a), init_adam(net_b)
    rng = np.random.default_rng(0)
    for _ in range(5):
        grads = rng.standard_normal(net_a.flat.shape)
        net_a, state_a = adam_step(net_a, grads, state_a)
        net_b, state_b = adam_step(net_b, grads, state_b)
    assert np.array_equal(net_a.flat, net_b.flat)


def test_adam_shape_mismatch_rejected():
    net = init_network(NetworkConfig(cell=CellKind.RNN, layers=1, hidden=2, input_features=2))
    state = init_adam(net)
    for shape in (net.flat.size + 3, (1, net.flat.size)):
        with pytest.raises(ShapeMismatch):
            adam_step(net, np.zeros(shape), state)


def test_clip_gradients_global_norm():
    clipped = clip_gradients(np.array([3.0, 4.0]), 1.0)  # norm 5
    assert np.allclose(clipped, [0.6, 0.8])
    untouched = clip_gradients(np.array([0.3, 0.4]), 1.0)
    assert np.array_equal(untouched, [0.3, 0.4])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _constant_dataset(n=40, seq_len=5):
    rng = np.random.default_rng(1)
    consts = rng.uniform(0.2, 0.8, size=n)
    x = np.repeat(consts[:, None, None], seq_len, axis=1)
    return np.repeat(x, 2, axis=2), consts


def test_train_learns_constant_mapping():
    x, y = _constant_dataset()
    cfg = NetworkConfig(cell=CellKind.GRU, layers=2, hidden=8, input_features=2,
                        dropout_rate=0.0, seed=1)
    _, history = train(x, y, cfg, TrainConfig(epochs=200, batch_size=16, lr=0.01, seed=1))
    assert history[-1] < 1e-3
    assert history[-1] < history[0]


def test_train_zero_epochs_returns_initialized_network():
    x, y = _constant_dataset()
    cfg = NetworkConfig(cell=CellKind.RNN, layers=2, hidden=4, input_features=2, seed=9)
    net, history = train(x, y, cfg, TrainConfig(epochs=0, seed=9))
    assert history == []
    assert np.array_equal(net.flat, init_network(cfg).flat)


def test_train_fixed_seed_bit_identical_history():
    x, y = _constant_dataset()
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=4, input_features=2,
                        dropout_rate=0.2, seed=2)
    _, h1 = train(x, y, cfg, TrainConfig(epochs=10, batch_size=8, lr=1e-3, seed=3))
    _, h2 = train(x, y, cfg, TrainConfig(epochs=10, batch_size=8, lr=1e-3, seed=3))
    assert h1 == h2


def test_train_rejects_empty_dataset():
    with pytest.raises(EmptyDataset):
        train(np.zeros((0, 5, 2)), np.zeros(0),
              NetworkConfig(cell=CellKind.RNN, layers=1, hidden=2, input_features=2))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_exact(tmp_path):
    # a network is saved as its parameter vector in arrays.f64 (its config is
    # derived from the header's settings); the vector must come back bit for bit
    cfg = NetworkConfig(cell=CellKind.LSTM, layers=2, hidden=5, input_features=2,
                        dropout_rate=0.2, seed=17)
    net = init_network(cfg)
    path = tmp_path / "net.f64"
    layout, crc = persist._write_arrays(path, {"flat": net.flat})
    header = json.loads(json.dumps({"arrays": layout, "crc32": crc}))
    loaded = _network(cfg, persist._read_arrays(path, header["arrays"], header["crc32"])["flat"])
    assert np.array_equal(net.flat, loaded.flat)
    seq = np.random.default_rng(3).standard_normal((6, 2))
    assert _forward(net, seq)[0] == _forward(loaded, seq)[0]
