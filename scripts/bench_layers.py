#!/usr/bin/env python3
"""Layer-level timing of the recurrent engine: one forward step and one
backpropagation-through-time step per cell kind.

    python3 scripts/bench_layers.py

For each cell kind at batch x hidden 32x16 and 32x64, it times a training
forward pass (`neural._forward_batch`, dropout 0.2) and its `neural.backward`
over one layer of SEQ_LEN steps, REPEATS times, and prints the median time of each
divided by the step count.  Only `init_network`, `_forward_batch` and
`backward` are used, so the script runs against older versions of the
engine too.  BLAS runs on one thread, fixed before numpy loads, and the
process is pinned to one CPU.
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


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import numpy as np

    from modecast import neural

    print(f"{'cell':<5} {'batch x hidden':>14} {'forward us/step':>16} {'bptt us/step':>13}")
    for kind in neural.CellKind:
        for batch, hidden in SIZES:
            cfg = neural.NetworkConfig(cell=kind, layers=1, hidden=hidden, input_features=2,
                                       dropout_rate=0.2, seed=0)
            net = neural.init_network(cfg)
            data = np.random.default_rng(1).standard_normal((batch, SEQ_LEN, 2))
            d_pred = np.random.default_rng(2).standard_normal(batch)
            rng = np.random.default_rng(3)
            fwd, bwd = [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                cache = neural._forward_batch(net, data, True, rng)
                t1 = time.perf_counter()
                neural.backward(net, cache, d_pred)
                t2 = time.perf_counter()
                fwd.append(t1 - t0)
                bwd.append(t2 - t1)
            per_step = 1e6 / SEQ_LEN
            print(f"{kind.value:<5} {f'{batch}x{hidden}':>14} "
                  f"{statistics.median(fwd) * per_step:16.2f} "
                  f"{statistics.median(bwd) * per_step:13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
