"""Machine-speed reference for the benchmark's timings.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the host's speed
swings by up to 1.7x in phases of seconds to minutes, so a raw wall time
mostly measures which phase a run landed in.  Process CPU time swings with it:
the host slows the vCPU down rather than taking it away.  The yardstick is a
fixed chunk of benchmark-owned work, timed in a helper process that imports
no modecast code and is pinned to the benchmark's CPU.  The helper times the
chunk in its own CPU time, so a busy thread of the benchmarked process that
shares the CPU does not lengthen a sample either.  So the yardstick slows
down with the machine but not with anything the program does to its own
interpreter (a thread holding the GIL, a profile hook, a numpy error
handler).  It is timed between ops and, from an interval timer, inside them;
the main process waits for each sample, and the time it waits is left out of
the op.  An interval scaled by REF_S / (mean yardstick during it) reads
as time on a machine where the yardstick takes REF_S: the program's speed,
not the host's phase.

    python3 perfbench/yardstick.py    # the helper: one sample per input line
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

REF_S = 1e-3           # yardstick time of the machine scaled times refer to
SAMPLE_EVERY_S = 0.25  # timer period of the samples taken inside intervals
CHUNKS = 3             # a sample is the median time of CHUNKS chunks
STEPS = 400            # matrix-vector steps in one chunk

_W = np.random.default_rng(0).uniform(-0.1, 0.1, size=(64, 66))


def yardstick_s() -> float:
    """Median CPU time of a fixed chunk of small matrix-vector work in a
    Python loop: the same mix of interpreter and numpy cost as the program."""
    times = []
    x = np.full(66, 0.5)
    for _ in range(CHUNKS):
        t0 = time.thread_time()
        for _ in range(STEPS):
            x[:64] = np.tanh(_W @ x)
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def serve() -> None:
    """Helper loop: answer each line on stdin with one sample, until EOF."""
    for _ in sys.stdin:
        print(repr(yardstick_s()), flush=True)


class Yardstick:
    """Samples the yardstick from now until `stop`; `interval` times code with it."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # seconds spent waiting for the yardstick
        self._busy = False
        # One CPU for this process and the helper, which inherits it: a
        # vCPU's speed can differ from its neighbour's, and the yardstick
        # must see the speed the op saw.
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.sample()
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._helper.stdin.close()
        self._helper.wait()
        os.sched_setaffinity(0, self._cpus)

    def clock(self) -> float:
        """perf_counter without the time spent waiting for the yardstick."""
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        if self._busy:  # the timer fired while a sample was being taken
            return
        self._busy = True
        t0 = time.perf_counter()
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        self.samples.append(float(self._helper.stdout.readline()))
        self.paused += time.perf_counter() - t0
        self._busy = False

    def interval(self, fn):
        """Run fn; leave its own time in `own_s`, its process CPU time in
        `cpu_s` and its scaled time in `scaled_s`."""
        first = len(self.samples) - 1
        t0, c0 = self.clock(), time.process_time()
        try:
            return fn()
        finally:
            self.own_s = self.clock() - t0
            self.cpu_s = time.process_time() - c0
            self.sample()
            self.scaled_s = self.own_s * REF_S / statistics.fmean(self.samples[first:])


if __name__ == "__main__":
    serve()
