#!/usr/bin/env python3
"""Layer-level timing of the recurrent engine (one forward step and one
backpropagation-through-time step per cell kind) and of the GARCH search
(one likelihood evaluation and one full fit per order).

    python3 scripts/bench_layers.py

For each cell kind at batch x hidden 32x16 and 32x64, it times a training
forward pass (`neural._forward_batch`, dropout 0.2) and its `neural.backward`
over one layer of SEQ_LEN steps, REPEATS times, and prints the median time of each
divided by the step count.  Only `init_network`, `_forward_batch` and
`backward` are used, so the script runs against older versions of the
engine too.

For GARCH orders (1,1), (2,2) and (10,10) it takes one fixed segment: the
training split (85%) of the fifth mode of the committed CPI fixture's K=10
decomposition, demeaned and scaled to unit variance, as the fit's search
sees it.  It times the search objective (`garch._likelihood_objective`) in
blocks of OBJECTIVE_POINTS calls at fixed search points, over OBJECTIVE_ROUNDS
rounds that cycle through the orders, and prints the median block time per
call, then times one `garch.fit` of the segment.  Only
`_likelihood_objective` and `fit` are used, so this part too runs against
older versions of the evaluator.

BLAS runs on one thread, fixed before numpy loads, and the process is pinned
to one CPU.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

SIZES = ((32, 16), (32, 64))  # (batch, hidden)
SEQ_LEN = 25
REPEATS = 300
GARCH_ORDERS = ((1, 1), (2, 2), (10, 10))
CPI_FIXTURE = Path(__file__).resolve().parents[1] / "data" / "cpi_germany_synthetic.csv"
CPI_MODES = 10
CPI_MODE = 4  # the fifth mode; its level series rejects a unit root, so no differencing
OBJECTIVE_POINTS = 200
OBJECTIVE_ROUNDS = 40


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy as np

    from modecast import data, garch, neural, vmd

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

    series = data.load_csv(CPI_FIXTURE)
    modes = vmd.vmd_decompose(series, vmd.VmdConfig(n_modes=CPI_MODES, alpha=2000.0, tol=1e-7))
    segment = modes.modes[CPI_MODE, :int(np.floor(0.85 * len(series)))]
    a = segment - segment.mean()
    a_norm = a / np.std(a)
    print(f"\n{'garch':<7} {'objective us/call':>17} {'fit s':>7}")
    cases = []
    for k, l in GARCH_ORDERS:
        objective = garch._likelihood_objective(a_norm, garch.GarchSpec(k, l))
        thetas = np.random.default_rng(4).normal(0.0, 1.0, size=(OBJECTIVE_POINTS, 2 + k + l))
        cases.append((objective, list(thetas), []))
    # rounds cycle through the orders, so each order's blocks span the whole run
    for _ in range(OBJECTIVE_ROUNDS):
        for objective, thetas, blocks in cases:
            t0 = time.perf_counter()
            for theta in thetas:
                objective(theta)
            blocks.append((time.perf_counter() - t0) / OBJECTIVE_POINTS)
    for (k, l), (_, _, blocks) in zip(GARCH_ORDERS, cases):
        t0 = time.perf_counter()
        garch.fit(segment, garch.GarchSpec(k, l))
        fit_s = time.perf_counter() - t0
        print(f"{f'({k},{l})':<7} {statistics.median(blocks) * 1e6:17.1f} {fit_s:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
