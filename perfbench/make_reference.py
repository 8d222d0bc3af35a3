#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: per workload and seed, the RMSE of
every output row and the deterministic per-op counts of one traced op.

    python3 perfbench/make_reference.py --seeds 0-31 [--workload matrix]

Run it only when a change is meant to move results; the checks in run.py
compare every op against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-20")
    p.add_argument("--workload", action="append", help="default: all workloads")
    args = p.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from tracer import Tracer

    refs = json.loads(workloads.REFERENCE.read_text()) if workloads.REFERENCE.exists() else {}
    workdir = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    decompositions = workloads.Decompositions()
    decompositions.install()
    failed = False
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            for seed in parse_seeds(args.seeds):
                tracer = Tracer()
                tracer.install_modecast()
                try:
                    state = workload.make_state(seed, workdir)
                    tracer.uninstall()
                    if workload.finish_setup is not None:
                        workload.finish_setup(state)
                    tracer.install_modecast()
                    tracer.op_id = "op-0"
                    decompositions.calls.clear()
                    outcome = workload.check(state, workload.run(state), decompositions.calls)
                finally:
                    tracer.uninstall()
                if outcome.problems:
                    print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                    failed = True
                    continue
                refs.setdefault(name, {})[str(seed)] = {
                    "rmse": outcome.rmse, "counts": tracer.op_counts("op-0")}
                print(f"{name} seed {seed}: rmse_mean {outcome.rmse_mean:.6g}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
