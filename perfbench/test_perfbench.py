"""Tests of the benchmark itself: the output checks reject perturbed outputs,
traced counts repeat exactly across runs, a slowdown of the whole benchmarked
process shows in scaled times, and the harness refuses to run without the
program.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from yardstick import Yardstick  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
REPEAT_COUNTS = ("garch.loglik_evals", "garch.fit_calls", "neural.backward_calls",
                 "neural.forward_calls", "vmd.iterations")


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One forecast-serve set-up and op on the committed inputs."""
    workload = workloads.WORKLOADS["forecast-serve"]
    state = workload.make_state(0, tmp_path_factory.mktemp("serve"))
    workload.finish_setup(state)
    forecaster, result = workload.run(state)
    return workload, state, forecaster, result


def _judge(workload, state, forecaster, result):
    outcome = workload.check(state, (forecaster, result), [])
    reference = workloads.load_reference("forecast-serve", 0)
    return outcome.problems + workloads.check_rmse(outcome.rmse, reference["rmse"]), outcome


def test_clean_op_passes_and_matches_reference(served):
    problems, outcome = _judge(*served)
    assert problems == []
    assert outcome.rmse == workloads.load_reference("forecast-serve", 0)["rmse"]


def test_one_ulp_perturbed_prediction_is_rejected(served):
    workload, state, forecaster, result = served
    nudged = result.predictions.copy()
    nudged[2] = np.nextafter(nudged[2], np.inf)
    problems, _ = _judge(workload, state, forecaster,
                         dataclasses.replace(result, predictions=nudged))
    assert any("differs from the in-memory" in p for p in problems)


def test_shifted_prediction_fails_reference_rmse(served):
    workload, state, forecaster, result = served
    shifted = dataclasses.replace(result, predictions=result.predictions + 0.5)
    problems, _ = _judge(workload, state, forecaster, shifted)
    assert any("vs reference" in p for p in problems)


def test_non_finite_prediction_is_rejected(served):
    workload, state, forecaster, result = served
    broken = result.predictions.copy()
    broken[0] = np.nan
    problems, _ = _judge(workload, state, forecaster,
                         dataclasses.replace(result, predictions=broken))
    assert any("non-finite" in p for p in problems)


def test_reconstruction_check_is_exact(served):
    _, state, forecaster, _ = served
    modes = forecaster.modes
    assert workloads.check_decomposition(state.series.values, modes) == []
    residual = modes.residual.copy()
    residual[5] += np.spacing(state.series.values[5])  # one ulp of the input
    assert workloads.check_decomposition(state.series.values,
                                         dataclasses.replace(modes, residual=residual))


def _traced_run() -> dict:
    out = subprocess.run(RUN + ["--workload", "forecast-serve", "--seed", "0",
                                "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_between_runs():
    first, second = _traced_run(), _traced_run()
    assert first["correct"] and second["correct"]
    for name in REPEAT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def _python_work() -> int:
    total = 0
    for i in range(1_500_000):
        total += i % 7
    return total


class _GilHolder:
    """A thread that holds the GIL: every bytecode of the process slows."""

    def __enter__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._spin)
        self._thread.start()

    def _spin(self):
        while not self._stop.is_set():
            pass

    def __exit__(self, *_exc):
        self._stop.set()
        self._thread.join()


class _LineTrace:
    """A leftover trace hook: every traced line of the thread slows."""

    def __enter__(self):
        sys.settrace(self._trace)

    def _trace(self, _frame, _event, _arg):
        return self._trace

    def __exit__(self, *_exc):
        sys.settrace(None)


@pytest.mark.parametrize("slowdown", [_GilHolder, _LineTrace])
def test_scaled_time_shows_a_slowdown_of_the_whole_process(slowdown):
    """The yardstick is timed in its own process, so it does not slow with
    the benchmarked process and cancel the slowdown out."""
    yardstick = Yardstick()
    try:
        yardstick.interval(_python_work)
        plain = yardstick.scaled_s
        with slowdown():
            yardstick.interval(_python_work)
        slowed = yardstick.scaled_s
    finally:
        yardstick.stop()
    assert slowed > 1.4 * plain, (plain, slowed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "matrix",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, env=env, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
