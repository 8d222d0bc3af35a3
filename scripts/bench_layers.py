#!/usr/bin/env python3
"""Layer-level timing of the recurrent engine (one forward step and one
backpropagation-through-time step per cell kind), stage timing of mode-set
training, of mode-set inference, of VMD and of the GARCH fit, of saving and
loading a model directory, and the package's start-up cost.

    python3 scripts/bench_layers.py [--only {layers,training,memory,inference,vmd,garch,persist,startup}]

--only runs one section; by default all eight run, in that order.

layers: for each cell kind at batch x hidden 32x16 and 32x64, it times a
training forward pass (`neural._forward_batch`, dropout 0.2) and its
`neural.backward` over one layer of SEQ_LEN steps, REPEATS times, and prints
the median time of each divided by the step count.  Only `init_network`,
`_forward_batch` and `backward` are used, so this part runs against older
versions of the engine too.

training: it takes three mode sets of LSTM networks on standard-normal
windows, one epoch at batch 32: the `cpi-volatility` benchmark's (10 nets,
1x4, seq 12, 447 windows, no dropout), the `matrix` benchmark's (3 nets,
2x16, seq 25, 655 windows, dropout 0.2) and the reference size of
`forecast-serve` (3 nets, 2x64, seq 50, 154 windows, dropout 0.2).  Each set
trains two ways, one `neural.train` per net and all nets as one lockstep
group (`neural._train_group`, which `train_many` runs under its group cap),
interleaved over TRAIN_ROUNDS rounds (alternating which way goes first); it
prints the median of each way, their ratio, and the group size `train_many`
chooses for that shape.  This part needs an engine with `train_many`.

memory: for the same three mode sets it prints the bytes of activations the
engine counts for one lockstep group's mini-batch (`neural._step_bytes` times
the group size `train_many` chooses), the `tracemalloc` peak of one epoch of
`neural.train_many` over the set and their ratio, and the minor page faults
(`getrusage`) of a second, untraced epoch.  This part needs an engine with
`_step_bytes`.

inference: it takes mode sets of freshly initialized LSTM networks (dropout
0.2) on standard-normal windows: the served forecast of `forecast-serve` (3
nets, 2x64, seq 50, 6 windows), the `matrix` benchmark's rolling forecast (3
nets, 2x16, seq 25, 70 windows) and a reference-protocol comparison's (10
nets, 2x64, seq 50, 70 windows).  Each set predicts two ways, one
`neural.predict` per net and one `neural.predict_many` over all of them,
interleaved over INFER_ROUNDS rounds of INFER_REPEATS calls (alternating which
way goes first); it prints the median time per call of each way, their ratio
and how many `_forward_batch` passes `predict_many` ran.  Then it times one
call of the engine's sigmoid (`neural._sigmoid`) against `scipy.special.expit`
over the stacked sigmoid gates of one LSTM step of each set as a lockstep
group, (3H, nets, windows).  This part needs an engine with `predict_many`.

vmd: it times `vmd.vmd_decompose` of the committed CPI fixture at K=10 (tol
1e-7, which runs all 500 sweeps) and of `synthetic.benchmark_series()` under
`benchmark_config()` (K=3), VMD_REPEATS times each, and prints the median and
the median divided by the sweep count.  Only `vmd_decompose` and its config
are used, so this part runs against older versions of the decomposition too.

garch: it takes the training split (85%) of each mode of the committed CPI
fixture's K=10 decomposition: the ten segments a comparison fits.  At (1,1)
and (2,2) it fits the ten segments two ways, one `garch.fit` per segment and
one `garch.fit_many` over all ten, interleaved in one process over
GARCH_ROUNDS rounds (alternating which way goes first), so the host's speed
phases fall on both alike; it prints the median of each way and their ratio.
One more, untimed `fit_many` per order counts what the search asked of its
evaluator, through a wrapper around `garch._bfgs`: the evaluator calls, the
rows (one trial point of one search each), the rounds (the calls after the
one at the start points; each round evaluates one trial point of every live
search) and the longest search's BFGS iterations.  The filter floor is rows x
the median time of a row's two filter calls over a segment (`garch._linear_filter`,
the compiled routine `signal.lfilter` runs: one over the variance path, one
backwards over the score's weights), the cost no bookkeeping change can
remove; the rest of `fit_many` is numpy and Python overhead per round, per
call and per row.  The round cost splits one value-and-score call
(`garch._Batch.objective_and_score` on the normalized segments at the start
points) into a fixed part and a part per row: the least-squares line through
the median times of calls of ROUND_ROWS rows, timed interleaved (each round
times every row count once, alternating their order); the medians at 1 and
30 rows are printed beside it, since a line through five medians is steered
by the noise at few rows.  Then it times one `garch.fit_many` of all ten
segments at (10,10) and prints its round cost.

persist: it saves and loads two VMD-GARCH-LSTM records built from seeded
random arrays of the right shapes (no fitting): the served model of
`forecast-serve` (K=3, 2x64, T=240, GARCH(1,1)) and a reference-size one
(K=10, 2x64, T=636, GARCH(10,10)).  For each it prints the bytes on disk,
the median time of `persist.save_forecaster` and of
`persist.load_forecaster`, interleaved over PERSIST_ROUNDS rounds of
PERSIST_REPEATS calls, and the load split into its parts, each a median
over the same rounds: the header's JSON parse, the read of the array file,
its checksum and the record (a load whose array read is replaced by the
arrays already read, less the header's parse).  A model directory that
holds an `.npz` archive is read by `np.load`, whose member CRCs are part of
the read, so it prints no separate checksum.

startup: it runs `python -c "import modecast.cli"` in a fresh interpreter
STARTUP_RUNS times and prints the median wall time of the whole child
process (interpreter start included), the child's peak resident set
(`ru_maxrss`) and which of STARTUP_WATCHED the import loaded.

BLAS runs on one thread, fixed before numpy loads, and the process is pinned
to one CPU.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

SIZES = ((32, 16), (32, 64))  # (batch, hidden)
SEQ_LEN = 25
REPEATS = 300
VMD_REPEATS = 7
TRAIN_SHAPES = (  # name, nets, layers, hidden, seq_len, windows, dropout
    ("cpi", 10, 1, 4, 12, 447, 0.0),
    ("matrix", 3, 2, 16, 25, 655, 0.2),
    ("reference", 3, 2, 64, 50, 154, 0.2),
)
TRAIN_ROUNDS = 7
INFER_SHAPES = (  # name, nets, layers, hidden, seq_len, windows
    ("served", 3, 2, 64, 50, 6),
    ("matrix", 3, 2, 16, 25, 70),
    ("reference", 10, 2, 64, 50, 70),
)
INFER_ROUNDS = 7
INFER_REPEATS = 20
SIGMOID_REPEATS = 2000
GARCH_ORDERS = ((1, 1), (2, 2))
GARCH_ROUNDS = 5
FILTER_REPEATS = 2000
ROUND_ROWS = (1, 5, 10, 20, 30)  # rows per timed value-and-score call
ROUND_REPEATS = 200
ROUND_ROUNDS = 7
PERSIST_SHAPES = (  # name, modes, length, GARCH order
    ("served", 3, 240, (1, 1)),
    ("reference", 10, 636, (10, 10)),
)
PERSIST_ROUNDS = 7
PERSIST_REPEATS = 20
STARTUP_RUNS = 7
STARTUP_WATCHED = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.special")
SECTIONS = ("layers", "training", "memory", "inference", "vmd", "garch", "persist", "startup")
CPI_FIXTURE = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"
CPI_MODES = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=SECTIONS, help="run one section")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sections = {"layers": bench_layers, "training": bench_training, "memory": bench_memory,
                "inference": bench_inference, "vmd": bench_vmd, "garch": bench_garch,
                "persist": bench_persist, "startup": bench_startup}
    for name in ([args.only] if args.only else SECTIONS):
        sections[name]()
    return 0


def bench_layers() -> None:
    import numpy as np

    from modecast import neural

    print(f"{'cell':<5} {'batch x hidden':>14} {'forward us/step':>16} {'bptt us/step':>13}")
    for kind in neural.CellKind:
        for batch, hidden in SIZES:
            cfg = neural.NetworkConfig(cell=kind, layers=1, hidden=hidden, input_features=2,
                                       dropout_rate=0.2, seed=0)
            net = neural.init_network(cfg)
            inputs = np.random.default_rng(1).standard_normal((batch, SEQ_LEN, 2))
            d_pred = np.random.default_rng(2).standard_normal(batch)
            rng = np.random.default_rng(3)
            fwd, bwd = [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                cache = neural._forward_batch(net, inputs, True, rng)
                t1 = time.perf_counter()
                neural.backward(net, cache, d_pred)
                t2 = time.perf_counter()
                fwd.append(t1 - t0)
                bwd.append(t2 - t1)
            per_step = 1e6 / SEQ_LEN
            print(f"{kind.value:<5} {f'{batch}x{hidden}':>14} "
                  f"{statistics.median(fwd) * per_step:16.2f} "
                  f"{statistics.median(bwd) * per_step:13.2f}")


def _training_set(nets, layers, hidden, seq_len, windows, dropout):
    """Standard-normal windows and targets with LSTM and one-epoch training
    configs for `nets` networks of one shape."""
    import numpy as np

    from modecast import neural

    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((windows, seq_len, 2)) for _ in range(nets)]
    ys = [rng.standard_normal(windows) for _ in range(nets)]
    configs = [neural.NetworkConfig(cell=neural.CellKind.LSTM, layers=layers, hidden=hidden,
                                    input_features=2, dropout_rate=dropout, seed=i + 1)
               for i in range(nets)]
    train_cfgs = [neural.TrainConfig(epochs=1, batch_size=32, seed=i + 1) for i in range(nets)]
    return xs, ys, configs, train_cfgs


def bench_training() -> None:
    from modecast import neural

    print(f"\n{'training':<10} {'nets':>4} {'per-net ms':>11} {'lockstep ms':>12} {'ratio':>6} "
          f"{'group':>5}")
    for name, nets, *shape in TRAIN_SHAPES:
        xs, ys, configs, train_cfgs = _training_set(nets, *shape)
        seq_len = shape[2]
        ways = {
            "per-net": lambda: [neural.train(*args) for args in zip(xs, ys, configs, train_cfgs)],
            "lockstep": lambda: neural._train_group(xs, ys, configs, train_cfgs, neural._Workspace()),
        }
        times = {way: [] for way in ways}
        for r in range(TRAIN_ROUNDS):
            for way in sorted(ways, reverse=r % 2 == 1):
                t0 = time.perf_counter()
                ways[way]()
                times[way].append(time.perf_counter() - t0)
        per_net = statistics.median(times["per-net"])
        lockstep = statistics.median(times["lockstep"])
        group = min(neural._group_size(configs[0], seq_len, 32), nets)
        print(f"{name:<10} {nets:4d} {per_net * 1e3:11.1f} {lockstep * 1e3:12.1f} "
              f"{per_net / lockstep:6.2f} {group:5d}")


def bench_memory() -> None:
    import resource
    import tracemalloc

    from modecast import neural

    print(f"\n{'memory':<10} {'nets':>4} {'group':>5} {'counted MB':>11} {'peak MB':>8} "
          f"{'ratio':>6} {'faults':>7}")
    for name, nets, *shape in TRAIN_SHAPES:
        xs, ys, configs, train_cfgs = _training_set(nets, *shape)
        seq_len = shape[2]
        group = min(neural._group_size(configs[0], seq_len, 32), nets)
        counted = group * neural._step_bytes(configs[0], seq_len, 32)
        tracemalloc.start()
        neural.train_many(xs, ys, configs, train_cfgs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        neural.train_many(xs, ys, configs, train_cfgs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(f"{name:<10} {nets:4d} {group:5d} {counted / 1e6:11.2f} {peak / 1e6:8.2f} "
              f"{peak / counted:6.2f} {faults:7d}")


def _per_call_s(fn, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / repeats


def bench_inference() -> None:
    import numpy as np
    from scipy import special

    from modecast import neural

    print(f"\n{'inference':<10} {'nets':>4} {'per-net ms':>11} {'predict_many ms':>16} "
          f"{'ratio':>6} {'passes':>6}")
    gates = []
    for name, nets, layers, hidden, seq_len, windows in INFER_SHAPES:
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal((windows, seq_len, 2)) for _ in range(nets)]
        networks = [neural.init_network(neural.NetworkConfig(
            cell=neural.CellKind.LSTM, layers=layers, hidden=hidden, input_features=2,
            dropout_rate=0.2, seed=i + 1)) for i in range(nets)]
        ways = {
            "per-net": lambda: [neural.predict(net, x) for net, x in zip(networks, xs)],
            "predict_many": lambda: neural.predict_many(networks, xs),
        }
        times = {way: [] for way in ways}
        for r in range(INFER_ROUNDS):
            for way in sorted(ways, reverse=r % 2 == 1):
                times[way].append(_per_call_s(ways[way], INFER_REPEATS))
        per_net = statistics.median(times["per-net"])
        together = statistics.median(times["predict_many"])
        passes = []
        forward_batch = neural._forward_batch
        neural._forward_batch = lambda *a, **kw: passes.append(1) or forward_batch(*a, **kw)
        try:
            neural.predict_many(networks, xs)
        finally:
            neural._forward_batch = forward_batch
        print(f"{name:<10} {nets:4d} {per_net * 1e3:11.2f} {together * 1e3:16.2f} "
              f"{together / per_net:6.2f} {len(passes):6d}")
        gates.append((name, (3 * hidden, nets, windows)))
    print(f"\n{'sigmoid':<10} {'shape':>14} {'expit us':>9} {'_sigmoid us':>12} {'ratio':>6}")
    for name, shape in gates:
        x = np.random.default_rng(1).standard_normal(shape) * 5.0
        out = np.empty(shape)
        ways = {"expit": lambda: special.expit(x, out=out),
                "_sigmoid": lambda: neural._sigmoid(x, out=out)}
        times = {way: [] for way in ways}
        for r in range(INFER_ROUNDS):
            for way in sorted(ways, reverse=r % 2 == 1):
                times[way].append(_per_call_s(ways[way], SIGMOID_REPEATS))
        expit = statistics.median(times["expit"])
        own = statistics.median(times["_sigmoid"])
        print(f"{name:<10} {'x'.join(map(str, shape)):>14} {expit * 1e6:9.2f} {own * 1e6:12.2f} "
              f"{own / expit:6.2f}")


def bench_vmd() -> None:
    from modecast import data, synthetic, vmd

    series = data.load_csv(CPI_FIXTURE)
    cases = (
        (f"CPI fixture, K={CPI_MODES}", series,
         vmd.VmdConfig(n_modes=CPI_MODES, alpha=2000.0, tol=1e-7)),
        ("benchmark_series, K=3", synthetic.benchmark_series(), synthetic.benchmark_config().vmd),
    )
    print(f"\n{'vmd':<24} {'length':>6} {'sweeps':>6} {'ms':>9} {'us/sweep':>9}")
    for label, signal, config in cases:
        elapsed = []
        for _ in range(VMD_REPEATS):
            t0 = time.perf_counter()
            decomposed = vmd.vmd_decompose(signal, config)
            elapsed.append(time.perf_counter() - t0)
        median = statistics.median(elapsed)
        print(f"{label:<24} {len(signal):6d} {decomposed.iterations:6d} {median * 1e3:9.2f} "
              f"{median / decomposed.iterations * 1e6:9.1f}")


def _search_counts(garch, segments, spec) -> tuple[int, int, int]:
    """Evaluator calls, rows and the longest search's iterations of one
    `fit_many`, counted around `_bfgs`."""
    counts = {"calls": 0, "rows": 0, "iterations": 0}
    search = garch._bfgs

    def counted(evaluate, *args, **kwargs):
        def counting(searches, points):
            counts["calls"] += 1
            counts["rows"] += len(searches)
            return evaluate(searches, points)

        found = search(counting, *args, **kwargs)
        counts["iterations"] = int(found.nit.max())
        return found

    garch._bfgs = counted
    try:
        garch.fit_many(segments, spec)
    finally:
        garch._bfgs = search
    return counts["calls"], counts["rows"], counts["iterations"]


def _filter_call_s(length: int, l: int) -> float:
    """Median time of one row's filter calls over `length` slots with l
    lagged variances: the variance path's and the score's reversed weights'."""
    import numpy as np

    from modecast import garch

    denom = np.concatenate([[1.0], np.full(l, -0.8 / l)])
    zi = garch._filter_state(denom[None, :], np.ones((1, l)))[0]
    rng = np.random.default_rng(0)
    base = rng.uniform(0.5, 1.5, length)
    weights = rng.uniform(-0.5, 0.5, length)
    zeros = np.zeros(l)
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(FILTER_REPEATS):
            garch._linear_filter(garch._ONE, denom, base, -1, zi)
            garch._linear_filter(garch._ONE, denom, weights[::-1], -1, zeros)
        elapsed.append((time.perf_counter() - t0) / FILTER_REPEATS)
    return statistics.median(elapsed)


def _round_cost_s(garch, segments, spec) -> tuple[float, float, dict[int, float]]:
    """The fixed and per-row time of one value-and-score call over the
    normalized segments at the start points: the least-squares line through
    the median call times at ROUND_ROWS rows, and those medians by row count.
    The row counts are timed interleaved, ROUND_ROUNDS rounds of each."""
    import numpy as np

    batch = garch._Batch([garch._prepare(s, spec, garch.FitOptions()).a_norm for s in segments],
                         spec.k, spec.l)
    starts = np.array(garch._start_points(spec))
    calls = {n_rows: (np.arange(n_rows) % len(segments), starts[np.arange(n_rows) % len(starts)])
             for n_rows in ROUND_ROWS}
    elapsed = {n_rows: [] for n_rows in ROUND_ROWS}
    for r in range(ROUND_ROUNDS):
        for n_rows in sorted(ROUND_ROWS, reverse=r % 2 == 1):
            elapsed[n_rows].append(_per_call_s(lambda: batch.objective_and_score(*calls[n_rows]),
                                               ROUND_REPEATS))
    medians = {n_rows: statistics.median(times) for n_rows, times in elapsed.items()}
    per_row, fixed = np.polyfit(ROUND_ROWS, list(medians.values()), 1)
    return float(fixed), float(per_row), medians


def bench_garch() -> None:
    import numpy as np

    from modecast import data, garch, vmd

    series = data.load_csv(CPI_FIXTURE)
    modes = vmd.vmd_decompose(series, vmd.VmdConfig(n_modes=CPI_MODES, alpha=2000.0, tol=1e-7))
    segments = list(modes.modes[:, :int(np.floor(0.85 * len(series)))])
    ways = {
        "fit": lambda spec: [garch.fit(segment, spec) for segment in segments],
        "fit_many": lambda spec: garch.fit_many(segments, spec),
    }
    times = {(order, way): [] for order in GARCH_ORDERS for way in ways}
    for r in range(GARCH_ROUNDS):
        for order in GARCH_ORDERS:
            for way in sorted(ways, reverse=r % 2 == 1):
                t0 = time.perf_counter()
                ways[way](garch.GarchSpec(*order))
                times[order, way].append(time.perf_counter() - t0)
    print(f"\n{'garch':<7} {f'{CPI_MODES} fits s':>10} {'fit_many s':>11} {'ratio':>6} "
          f"{'calls':>6} {'rows':>6} {'rounds':>6} {'iters':>6} {'floor s':>8} {'rest s':>7} "
          f"{'fixed us':>9} {'row us':>7} {'1 row us':>9} {'30 rows us':>11}")
    for k, l in GARCH_ORDERS:
        one_by_one = statistics.median(times[(k, l), "fit"])
        together = statistics.median(times[(k, l), "fit_many"])
        calls, rows, iterations = _search_counts(garch, segments, garch.GarchSpec(k, l))
        floor = rows * _filter_call_s(segments[0].size, l) if l else 0.0
        fixed, per_row, medians = _round_cost_s(garch, segments, garch.GarchSpec(k, l))
        print(f"{f'({k},{l})':<7} {one_by_one:10.2f} {together:11.2f} "
              f"{together / one_by_one:6.2f} {calls:6d} {rows:6d} {calls - 1:6d} {iterations:6d} "
              f"{floor:8.3f} {together - floor:7.3f} {fixed * 1e6:9.0f} {per_row * 1e6:7.1f} "
              f"{medians[1] * 1e6:9.0f} {medians[30] * 1e6:11.0f}")
    t0 = time.perf_counter()
    garch.fit_many(segments, garch.GarchSpec(10, 10))
    elapsed = time.perf_counter() - t0
    fixed, per_row, medians = _round_cost_s(garch, segments, garch.GarchSpec(10, 10))
    print(f"{'(10,10)':<7} {CPI_MODES} segments, one fit_many: {elapsed:.2f} s; "
          f"round: {fixed * 1e6:.0f} us fixed + {per_row * 1e6:.1f} us per row; "
          f"medians {medians[1] * 1e6:.0f} us at 1 row, {medians[30] * 1e6:.0f} us at 30")


def _persist_record(n_modes: int, length: int, order: tuple[int, int]):
    """A VMD-GARCH-LSTM record of seeded random arrays, shaped as one fitted
    on `length` points with reference-size networks."""
    import numpy as np

    from modecast import garch, neural, pipeline, series, vmd

    cfg = pipeline.PipelineConfig(
        vmd=vmd.VmdConfig(n_modes=n_modes, alpha=2000.0, tol=1e-7),
        garch=garch.GarchSpec(*order),
        network=neural.NetworkConfig(cell=neural.CellKind.LSTM, layers=2, hidden=64,
                                     input_features=2, dropout_rate=0.2, seed=0),
        train=neural.TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=0),
        split=series.SplitSpec(0.85), seq_len=50)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((n_modes, length))
    train = int(np.floor(0.85 * length))
    k, l = order
    fits = tuple(garch.GarchFit(params=garch.GarchParams(0.1, np.full(k, 0.4 / k), np.full(l, 0.5 / l)),
                                sigma2_path=rng.uniform(0.5, 1.5, train),
                                residuals=rng.standard_normal(train),
                                log_likelihood=-float(train), mean=0.0, converged=True)
                 for _ in range(n_modes))
    size = neural.parameter_count(pipeline.mode_network_config(cfg, neural.CellKind.LSTM, 1))
    return pipeline.EnsembleForecaster(
        variant=pipeline.Variant.VMD_GARCH, cell=neural.CellKind.LSTM, config=cfg,
        modes=vmd.ModeSet(values, rng.uniform(0.0, 0.5, n_modes), rng.standard_normal(length),
                          iterations=500, final_delta=1e-5, converged=False),
        mode_values=values, garch=fits, networks=0.1 * rng.standard_normal((n_modes, size)))


def _raw_read(path):
    """The array file in one buffer: the read `persist.load_forecaster` makes."""
    import numpy as np

    with open(path, "rb", buffering=0) as fh:
        flat = np.empty(os.fstat(fh.fileno()).st_size // 8)
        fh.readinto(flat)
    return flat


def bench_persist() -> None:
    import json
    import tempfile
    import zlib

    import numpy as np

    from modecast import persist

    archive = persist.ARRAYS.endswith(".npz")  # a tree of the earlier format

    def read_archive(path):
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}

    print(f"\n{'persist':<10} {'modes':>5} {'bytes':>9} {'save ms':>8} {'load ms':>8} "
          f"{'header ms':>10} {'read ms':>8} {'crc ms':>7} {'record ms':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, n_modes, length, order in PERSIST_SHAPES:
            record = _persist_record(n_modes, length, order)
            model_dir = Path(tmp) / name
            persist.save_forecaster(record, model_dir)
            header_path, arrays_path = model_dir / persist.HEADER, model_dir / persist.ARRAYS
            header = json.loads(header_path.read_text(encoding="utf-8"))
            arrays = (read_archive(arrays_path) if archive else
                      persist._read_arrays(arrays_path, header["arrays"], header["crc32"]))
            real_read = persist._read_arrays

            def record_only():
                persist._read_arrays = lambda *args: arrays
                try:
                    persist.load_forecaster(model_dir)
                finally:
                    persist._read_arrays = real_read

            ways = {"save": lambda: persist.save_forecaster(record, model_dir),
                    "load": lambda: persist.load_forecaster(model_dir),
                    "header": lambda: json.loads(header_path.read_text(encoding="utf-8")),
                    "read": lambda: (read_archive if archive else _raw_read)(arrays_path),
                    "header+record": record_only}
            if not archive:
                flat = _raw_read(arrays_path)
                ways["crc"] = lambda: zlib.crc32(flat)
            times = {way: [] for way in ways}
            for r in range(PERSIST_ROUNDS):
                for way in sorted(ways, reverse=r % 2 == 1):
                    times[way].append(_per_call_s(ways[way], PERSIST_REPEATS))
            ms = {way: statistics.median(t) * 1e3 for way, t in times.items()}
            size = sum(p.stat().st_size for p in model_dir.iterdir())
            crc = f"{ms['crc']:7.3f}" if "crc" in ms else f"{'-':>7}"
            print(f"{name:<10} {n_modes:5d} {size:9d} {ms['save']:8.3f} {ms['load']:8.3f} "
                  f"{ms['header']:10.3f} {ms['read']:8.3f} {crc} "
                  f"{ms['header+record'] - ms['header']:10.3f}")


def bench_startup() -> None:
    import subprocess

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import modecast.cli\n"
             "import resource, sys\n"
             f"print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
             f"*[name for name in {STARTUP_WATCHED!r} if name in sys.modules])")
    elapsed, rss_kb = [], []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        elapsed.append(time.perf_counter() - t0)
        rss_kb.append(int(out[0]))
        loaded = out[1:]
    print(f"\n{'startup':<20} {'runs':>4} {'median s':>9} {'peak MB':>8}  loaded")
    print(f"{'import modecast.cli':<20} {STARTUP_RUNS:4d} {statistics.median(elapsed):9.3f} "
          f"{statistics.median(rss_kb) / 1024:8.1f}  {' '.join(loaded) or '-'}")


if __name__ == "__main__":
    sys.exit(main())
