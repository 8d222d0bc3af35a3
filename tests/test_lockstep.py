"""Lockstep training and inference: `neural.train_many` trains each network
of a group bit for bit as `neural.train` trains it alone, and
`neural.predict_many` predicts with each as `neural.predict` does."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from modecast import neural
from modecast.errors import EmptyDataset, ShapeMismatch
from modecast.neural import (
    CellKind,
    NetworkConfig,
    TrainConfig,
    init_network,
    predict,
    predict_many,
    train,
    train_many,
)

SEQ_LEN = 6
SEEDS = (7, 1, 12)  # mixed, so every net draws its own shuffles and masks


def _data(n: int, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return ([rng.standard_normal((n, SEQ_LEN, 2)) for _ in range(count)],
            [rng.standard_normal(n) for _ in range(count)])


def _configs(kind, layers, dropout, hidden=5, seeds=SEEDS):
    return ([NetworkConfig(cell=kind, layers=layers, hidden=hidden, input_features=2,
                           dropout_rate=dropout, seed=s) for s in seeds],
            [TrainConfig(epochs=2, batch_size=32, lr=1e-2, seed=s) for s in seeds])


def _assert_equal_to_alone(xs, ys, configs, train_cfgs, got):
    assert len(got) == len(xs)
    for (net, history), x, y, cfg, tcfg in zip(got, xs, ys, configs, train_cfgs):
        alone, alone_history = train(x, y, cfg, tcfg)
        assert net.config == cfg
        assert np.array_equal(net.flat, alone.flat)
        assert history == alone_history


CASES = [(kind, layers, dropout, n) for kind in CellKind for layers in (1, 2)
         for dropout in (0.0, 0.2) for n in (33, 63)]
IDS = [f"{k.value}-L{layers}-p{dropout}-last{(n - 1) % 32 + 1}" for k, layers, dropout, n in CASES]


@pytest.mark.parametrize("kind,layers,dropout,n", CASES, ids=IDS)
def test_train_many_equals_train_of_each_net_alone(kind, layers, dropout, n, monkeypatch):
    # 33 windows at batch 32 end on a batch of 1, 63 on a batch of 31
    xs, ys = _data(n, len(SEEDS), seed=n + layers)
    configs, train_cfgs = _configs(kind, layers, dropout)
    calls = []
    original = neural.backward
    monkeypatch.setattr(neural, "backward", lambda *a: calls.append(1) or original(*a))
    got = train_many(xs, ys, configs, train_cfgs)
    assert len(calls) == 2 * 2  # one pass per batch for the whole group: it ran in lockstep
    monkeypatch.undo()
    _assert_equal_to_alone(xs, ys, configs, train_cfgs, got)


def _count_growth(monkeypatch):
    """Count the training steps (`backward` calls) and record, per workspace
    buffer allocated, the number of steps completed before it."""
    steps, grown = [], []
    take, original_backward = neural._Workspace.take, neural.backward

    def counted_take(self, name, shape):
        before = self._buffers.get(name)
        view = take(self, name, shape)
        if self._buffers[name] is not before:
            grown.append((len(steps), name))
        return view

    def counted_backward(*args):
        grads = original_backward(*args)
        steps.append(1)
        return grads

    monkeypatch.setattr(neural._Workspace, "take", counted_take)
    monkeypatch.setattr(neural, "backward", counted_backward)
    return steps, grown


@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
def test_training_allocates_its_workspace_in_the_first_step(kind, monkeypatch):
    steps, grown = _count_growth(monkeypatch)
    xs, ys = _data(70, len(SEEDS))  # two full batches and one of 6, three epochs
    configs, train_cfgs = _configs(kind, 2, 0.2)
    train_cfgs = [replace(t, epochs=3) for t in train_cfgs]
    train_many(xs, ys, configs, train_cfgs)
    assert len(steps) == 9
    assert grown and all(step == 0 for step, _ in grown)


def test_groups_of_one_call_share_its_workspace(monkeypatch):
    # three groups of one net, one after another: every buffer is allocated in
    # the call's first step, and the later groups take views of the same ones
    steps, grown = _count_growth(monkeypatch)
    monkeypatch.setattr(neural, "_group_size", lambda *args: 1)
    xs, ys = _data(40, len(SEEDS))
    configs, train_cfgs = _configs(CellKind.LSTM, 2, 0.2)
    got = train_many(xs, ys, configs, train_cfgs)
    assert len(steps) == 3 * 2 * 2
    assert grown and all(step == 0 for step, _ in grown)
    monkeypatch.undo()
    _assert_equal_to_alone(xs, ys, configs, train_cfgs, got)


def test_train_many_groups_by_shape_and_keeps_input_order():
    xs, ys = _data(40, 5)
    xs[1] = xs[1][:, :4]  # another window length
    configs, train_cfgs = _configs(CellKind.GRU, 1, 0.2, seeds=(3, 4, 5, 6, 7))
    configs[3] = NetworkConfig(cell=CellKind.LSTM, layers=1, hidden=5, input_features=2,
                               dropout_rate=0.2, seed=6)  # another cell kind
    configs[4] = NetworkConfig(cell=CellKind.GRU, layers=1, hidden=1, input_features=2,
                               dropout_rate=0.2, seed=7)  # one unit: trains alone
    _assert_equal_to_alone(xs, ys, configs, train_cfgs, train_many(xs, ys, configs, train_cfgs))


@pytest.mark.parametrize("kind", list(CellKind))
def test_group_cap_on_the_benchmark_shapes(kind):
    def size(layers, hidden, dropout, seq_len):
        cfg = NetworkConfig(cell=kind, layers=layers, hidden=hidden, input_features=2,
                            dropout_rate=dropout)
        return neural._group_size(cfg, seq_len, 32)

    assert size(1, 4, 0.0, 12) >= 10     # cpi-volatility: ten modes, one group
    assert size(2, 16, 0.2, 25) >= 3     # matrix: three modes, one group
    assert size(2, 64, 0.2, 50) == 1     # reference size: one at a time


def test_train_many_rejects_bad_inputs():
    xs, ys = _data(10, 2)
    configs, train_cfgs = _configs(CellKind.RNN, 1, 0.0, seeds=(1, 2))
    with pytest.raises(ShapeMismatch):
        train_many(xs, ys, configs, train_cfgs[:1])
    with pytest.raises(ShapeMismatch):
        train_many(xs, [ys[0], ys[1][:9]], configs, train_cfgs)
    with pytest.raises(EmptyDataset):
        train_many([xs[0], xs[1][:0]], [ys[0], ys[1][:0]], configs, train_cfgs)
    assert train_many([], [], [], []) == []


def _counting_forward(monkeypatch):
    calls = []
    original = neural._forward_batch
    monkeypatch.setattr(neural, "_forward_batch", lambda *a, **kw: calls.append(1)
                        or original(*a, **kw))
    return calls


@pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.value)
@pytest.mark.parametrize("layers", [1, 2], ids=lambda n: f"L{n}")
def test_predict_many_equals_predict_of_each_net_alone(kind, layers, monkeypatch):
    calls = _counting_forward(monkeypatch)
    for hidden in (2, 3, 4, 16, 64):
        for batch in (1, 2, 6, 20, 70):
            for nets in (2, 3, 10):
                networks = [init_network(NetworkConfig(cell=kind, layers=layers, hidden=hidden,
                                                       input_features=2, seed=s))
                            for s in range(nets)]
                rng = np.random.default_rng([hidden, batch, nets])
                xs = [rng.standard_normal((batch, SEQ_LEN, 2)) for _ in range(nets)]
                calls.clear()
                got = predict_many(networks, xs)
                cap = neural._group_size(replace(networks[0].config, dropout_rate=0.0), SEQ_LEN,
                                         batch, neural.PREDICT_BYTES)
                assert len(calls) == -(-nets // cap)  # one pass per group under the cap
                assert len(got) == nets
                for net, x, y in zip(networks, xs, got):
                    assert np.array_equal(y, predict(net, x))


def test_predict_many_groups_by_shape_and_keeps_input_order(monkeypatch):
    def net(kind=CellKind.GRU, hidden=5, seed=0):
        return init_network(NetworkConfig(cell=kind, layers=1, hidden=hidden, input_features=2,
                                          seed=seed))

    networks = [net(seed=3), net(seed=4), net(CellKind.LSTM, seed=5), net(seed=6),
                net(hidden=1, seed=7), net(hidden=1, seed=8), net(seed=9)]
    rng = np.random.default_rng(2)
    xs = [rng.standard_normal((8, SEQ_LEN, 2)) for _ in networks]
    xs[3] = xs[3][:, :4]  # another window length
    xs[6] = xs[6][:5]     # another batch size
    calls = _counting_forward(monkeypatch)
    got = predict_many(networks, xs)
    # GRU 5 units on (8, 6, 2): nets 0 and 1; each other net alone, one-unit nets included
    assert len(calls) == 6
    monkeypatch.undo()
    assert [y.shape for y in got] == [(x.shape[0],) for x in xs]
    for n, x, y in zip(networks, xs, got):
        assert np.array_equal(y, predict(n, x))


def test_predict_many_rejects_bad_inputs():
    networks = [init_network(NetworkConfig(cell=CellKind.RNN, layers=1, hidden=3, seed=s))
                for s in (1, 2)]
    x = np.zeros((4, SEQ_LEN, 2))
    with pytest.raises(ShapeMismatch):
        predict_many(networks, [x])
    with pytest.raises(ShapeMismatch):
        predict_many(networks, [x, x[0]])
    with pytest.raises(ShapeMismatch):
        predict_many(networks, [x[..., :1], x[..., :1]])
    assert predict_many([], []) == []
