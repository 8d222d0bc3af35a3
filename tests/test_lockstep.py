"""Lockstep training: `neural.train_many` trains each network of a group bit
for bit as `neural.train` trains it alone."""

from __future__ import annotations

import numpy as np
import pytest

from modecast import neural
from modecast.errors import EmptyDataset, ShapeMismatch
from modecast.neural import CellKind, NetworkConfig, TrainConfig, train, train_many

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
