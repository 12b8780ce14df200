"""Host-pace correction for timings.

On a shared machine the same op can take 1.5x longer from one second to the
next, because the host runs slower, not the program.  While an op runs, a
timer signal interrupts it every `TICK_S` seconds and times a fixed
reference loop (pure-Python integer arithmetic and small numpy matrix
products, independent of prmlearn).  The op's pace-corrected time is its
wall time, less the time spent in the reference loops, scaled by the
reference's nominal time over its mean time seen during that op: the op's
time at the pace at which the reference takes its nominal time.

The reference is tiny and stays in cache, so it tracks the host's pace and
not the op's working set; the garbage collector is off while it runs.
Set-up is timed with the integer loop alone, because set-up includes
importing numpy and the pacer must not import it first.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

TICK_S = 0.1
# about one reference loop on a 2-vCPU Xeon VM with an idle host
INTS_NOMINAL_S = 0.15e-3
FULL_NOMINAL_S = 0.25e-3


def ints() -> None:
    s = 0
    for i in range(2000):
        s += i * i


class Pacer:
    """`start()` before a timed call and `stop()` after it; `stop()` returns
    the call's wall time without the reference loops and the mean
    reference time seen while it ran.  With `matrices=False` the reference
    is the integer loop alone and numpy is not imported."""

    def __init__(self, matrices: bool = True):
        if matrices:
            import numpy as np

            mat = np.random.default_rng(0).random((8, 8))

            def reference():
                ints()
                x = mat
                for _ in range(25):
                    x = x @ mat
                    x = x / x.sum()

            self.reference, self.nominal_s = reference, FULL_NOMINAL_S
        else:
            self.reference, self.nominal_s = ints, INTS_NOMINAL_S
        self.samples, self.spent = [], 0.0
        self._start = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            self.reference()
            best = min(best, time.perf_counter() - t)
        self.samples.append(best)
        self.spent += time.perf_counter() - start
        if collecting:
            gc.enable()

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._start = time.perf_counter()
        # the first tick comes at once, so that every call has a sample
        signal.setitimer(signal.ITIMER_REAL, 1e-6, TICK_S)

    def stop(self) -> tuple:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - self._start - self.spent
        return wall, statistics.fmean(self.samples)

    def corrected(self, wall_s: float, ref_s: float) -> float:
        return wall_s * self.nominal_s / ref_s
