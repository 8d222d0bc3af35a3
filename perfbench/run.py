#!/usr/bin/env python3
"""modecast performance benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload matrix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each workload in a fresh process

One caller runs ops back to back, each starting after the last one finished,
for --seconds seconds; every op's outputs are checked.  --trace 0 reports the
end-to-end metrics; --trace 1 spends the first half of the run untraced and
the second half traced, and reports per-layer metrics plus the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("matrix", "cpi-volatility", "forecast-serve")
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100  # p90 is reported only with at least ten samples beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0, help="0: the committed inputs")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "modecast").is_dir():
        print(f"perfbench: no src/modecast under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # One BLAS thread, fixed before numpy loads: runs then do not depend on
    # how OpenBLAS splits small matrix products across the cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    start = time.perf_counter()
    import numpy  # noqa: F401  (the yardstick needs it; timed raw as part of the import)
    numpy_s = time.perf_counter() - start
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from yardstick import Yardstick

    yardstick = Yardstick()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        yardstick.interval(import_modecast)
        setup = {"import_s": numpy_s + yardstick.own_s,
                 "import_scaled_s": numpy_s + yardstick.scaled_s}
        import workloads

        workdir.mkdir(parents=True, exist_ok=True)
        result = run_workload(workloads.WORKLOADS[args.workload], args, setup, workdir,
                              yardstick)
    finally:
        yardstick.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def import_modecast() -> None:
    import modecast.data, modecast.persist, modecast.pipeline, modecast.synthetic  # noqa: E401,F401


def run_all(args) -> int:
    """Run every workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

class Loop:
    """Closed-loop op runner with per-op checks and failure accounting."""

    def __init__(self, workload, state, reference, decompositions, yardstick):
        self.workload, self.state, self.reference = workload, state, reference
        self.decompositions, self.yardstick = decompositions, yardstick
        self.samples: list[float] = []  # raw wall seconds per op
        self.cpu: list[float] = []      # process CPU seconds per op
        self.scaled: list[float] = []   # the same, yardstick-scaled
        self.failed = 0
        self.problems: list[str] = []
        self.first_rmse = None
        self.bit_identical = None if reference is None else True
        self.rmse_mean = None

    def run(self, seconds: float, before_op=None, min_ops: int = 1) -> list[float]:
        """Run ops until `seconds` have passed; returns their scaled times."""
        scaled = []
        deadline = time.perf_counter() + seconds
        while len(scaled) < min_ops or time.perf_counter() < deadline:
            if before_op is not None:
                before_op(len(scaled))
            self.decompositions.calls.clear()
            try:
                output = self.yardstick.interval(lambda: self.workload.run(self.state))
            except Exception:  # an op that raises is a failed op; keep measuring
                output = None
                problems = [traceback.format_exc(limit=3)]
            self.samples.append(self.yardstick.own_s)
            self.cpu.append(self.yardstick.cpu_s)
            scaled.append(self.yardstick.scaled_s)
            if output is not None:
                problems = self._check(output)
            if problems:
                self.failed += 1
                self.problems += problems
        self.scaled += scaled
        return scaled

    def _check(self, output) -> list[str]:
        import workloads

        outcome = self.workload.check(self.state, output, self.decompositions.calls)
        problems = list(outcome.problems)
        ref_rmse = None if self.reference is None else self.reference["rmse"]
        problems += workloads.check_rmse(outcome.rmse, ref_rmse)
        if self.first_rmse is None:
            self.first_rmse, self.rmse_mean = outcome.rmse, outcome.rmse_mean
        elif outcome.rmse != self.first_rmse:
            problems.append("op outputs differ from the first op of this run")
        if ref_rmse is not None and outcome.rmse != ref_rmse:
            self.bit_identical = False
        return problems


def run_workload(workload, args, setup: dict, workdir: Path, yardstick) -> dict:
    import workloads
    from tracer import Tracer

    reference = workloads.load_reference(workload.name, args.seed)
    decompositions = workloads.Decompositions()
    decompositions.install()
    tracer = Tracer(clock=yardstick.clock) if args.trace else None

    # Set-up: the import (timed once, in main) plus building the inputs, repeated.
    setup.update(build_s=[], build_scaled_s=[])
    for _ in range(1 if tracer else SETUP_REPEATS):
        if tracer:
            tracer.install_modecast()
        try:
            state = yardstick.interval(lambda: workload.make_state(args.seed, workdir))
        finally:
            if tracer:
                tracer.uninstall()
        setup["build_s"].append(yardstick.own_s)
        setup["build_scaled_s"].append(yardstick.scaled_s)
    if workload.finish_setup is not None:
        workload.finish_setup(state)
    loop = Loop(workload, state, reference, decompositions, yardstick)

    report = {}
    if tracer is None:
        loop.run(args.seconds)
        metrics = end_to_end(loop, setup)
    else:
        untraced = loop.run(args.seconds / 2)

        def label(i):
            tracer.op_id = f"op-{i}"

        tracer.install_modecast()
        try:
            traced = loop.run(args.seconds / 2, before_op=label, min_ops=2)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, untraced, traced)
        # The counts are deterministic: a traced op that differs is a failed op.
        counts = [tracer.op_counts(f"op-{i}") for i in range(len(traced))]
        differ = [i for i, c in enumerate(counts) if c != counts[0]]
        if differ:
            loop.failed = min(len(loop.samples), loop.failed + len(differ))
            loop.problems.append(f"traced ops {differ} have counts other than op 0's {counts[0]}")
        report["counts"] = counts[0]
        report["counts_match_reference"] = None if reference is None \
            else counts[0] == reference["counts"]
        report["spans_file"] = write_spans(tracer, workload.name, args.seed)

    report.update({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": len(loop.samples), "failed": loop.failed,
        "error_rate": loop.failed / max(1, len(loop.samples)),
        "bit_identical_to_reference": loop.bit_identical,
        "reference_recorded": reference is not None,
        "setup": setup,
        "op_ms": [round(1e3 * t, 3) for t in loop.samples],
        "op_scaled_ms": [round(1e3 * t, 3) for t in loop.scaled],
        "op_cpu_ms": [round(1e3 * t, 3) for t in loop.cpu],
        "yardstick_ms": [round(1e3 * t, 4) for t in yardstick.samples],
        "rmse": loop.first_rmse, "problems": list(dict.fromkeys(loop.problems))[:5],
        "environment": environment(),
    })
    print_summary(report, metrics, loop)
    print(json.dumps({"report": report}))
    return {"correct": loop.failed == 0, "attempted": len(loop.samples),
            "failed": loop.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def with_units(values: dict, section: str) -> dict:
    """Exactly the metrics BENCHMARK.json lists in `section`, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def end_to_end(loop: Loop, setup: dict) -> dict:
    """Gated metrics; both times are yardstick-scaled."""
    return with_units({
        "setup_s": setup["import_scaled_s"] + statistics.median(setup["build_scaled_s"]),
        "op_ms_p50": 1e3 * statistics.median(loop.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, "end_to_end")


def per_layer(tracer, untraced: list[float], traced: list[float]) -> dict:
    """Layer metrics (raw span times) plus the tracing overhead: traced minus
    untraced median op, both yardstick-scaled."""
    values = tracer.layer_metrics()
    base, with_trace = statistics.median(untraced), statistics.median(traced)
    values["trace.overhead_ms"] = 1e3 * (with_trace - base)
    values["trace.overhead_share"] = (with_trace - base) / base
    return with_units(values, "per_layer")


def write_spans(tracer, workload: str, seed: int) -> str:
    out = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps([s.to_dict(i) for i, s in enumerate(tracer.spans)]),
                   encoding="utf-8")
    return str(out.relative_to(ROOT))


def print_summary(report: dict, metrics: dict, loop: Loop) -> None:
    """Human-readable lines: metric name, value, unit.  Gated metrics are
    yardstick-scaled; the workload-specific latencies below them are raw."""
    name = report["workload"]
    lines = [f"{name}: {report['ops']} ops in {report['seconds']:g} s, seed {report['seed']}"]
    if report["trace"] == 0:
        named = {"op_ms_p50": (metrics["op_ms_p50"]["value"], "ms (scaled)"),
                 "setup_s": (metrics["setup_s"]["value"], "s (scaled)")}
        setup = report["setup"]
        named["setup_raw_s"] = (setup["import_s"] + statistics.median(setup["build_s"]), "s")
        ms = [1e3 * s for s in loop.samples]
        if name == "forecast-serve":
            named["forecast_ms_p50"] = (statistics.median(ms), "ms")
            if len(ms) >= P90_MIN_SAMPLES:
                named["forecast_ms_p90"] = (statistics.quantiles(ms, n=10)[8], "ms")
        else:
            named["compare_s"] = (statistics.median(ms) / 1e3, "s")
        named["rmse_mean"] = (float("nan") if loop.rmse_mean is None else loop.rmse_mean,
                              "series-units")
        named["peak_rss_mb"] = (metrics["peak_rss_mb"]["value"], "MB")
        named["error_rate"] = (report["error_rate"], "ratio")
        lines += [f"  {k:<18} {v:>14.6g} {u}" for k, (v, u) in named.items()]
    else:
        lines += [f"  {k:<30} {m['value']:>14.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"  bit-identical to reference: {report['bit_identical_to_reference']}")
    for problem in report["problems"]:
        lines.append(f"  FAILED CHECK: {problem}")
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def blas_threads(numpy) -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
