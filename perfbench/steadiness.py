#!/usr/bin/env python3
"""Run each workload once per seed, each run in a fresh process, and report
every end-to-end metric's median, quartiles and spread (interquartile range
over median) against the bounds in BENCHMARK.json, next to the unscaled
wall times and the op's process CPU time.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload matrix] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, ok = {}, True
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {m: [] for m in [*bounds, "raw_op_ms_p50",
                                                          "cpu_op_ms_p50", "raw_setup_s"]}
        for seed in seeds:
            out = subprocess.run(spec["command"] + ["--workload", name, "--seed", str(seed),
                                                    "--seconds", str(args.seconds),
                                                    "--trace", "0"],
                                 cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            environment = report["environment"]
            ok &= result["correct"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            # unscaled wall and CPU times, for comparison only
            values["raw_op_ms_p50"].append(statistics.median(report["op_ms"]))
            values["cpu_op_ms_p50"].append(statistics.median(report["op_cpu_ms"]))
            values["raw_setup_s"].append(report["setup"]["import_s"]
                                         + statistics.median(report["setup"]["build_s"]))
            print(f"{name} seed {seed}: correct={result['correct']} " + " ".join(
                f"{m}={v[-1]:.5g}" for m, v in values.items()), flush=True)
        summary[name] = {"seconds": args.seconds, "seeds": list(seeds),
                         "environment": environment}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(metric)
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": bound, "values": vals}
            flag = "" if bound is None or metric == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"  {name:<15} {metric:<13} median {median:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:6.3f} (bound {bound}){flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
