"""Machine-speed calibration for shared hosts.

On a shared host the speed of one core drifts by up to 40% within seconds
(other tenants, frequency changes), which would swamp any change to peritl.
A background thread runs a fixed pure-Python kernel every PERIOD_S and
records its CPU time c.  A request's latency is then multiplied by the mean
of REFERENCE_S / c over the samples taken during it (and within WINDOW_S of
it), i.e. expressed at the speed the kernel has on an unloaded reference
machine; for a long request this integrates the drifting speed over its
duration.  CPU time, not wall time, is used for the kernel, so waiting
for the interpreter lock does not count.  Changing `kernel` or REFERENCE_S
redefines every reported time.
"""
from __future__ import annotations

import bisect
import statistics
import threading
from time import perf_counter, thread_time

PERIOD_S = 0.02
WINDOW_S = 0.1
# CPU time of one `kernel()` call on the reference machine (2 shared cores,
# Python 3.11) at its fastest observed speed
REFERENCE_S = 0.25e-3


def kernel() -> int:
    """Interpreter-bound work resembling the library: tuples, dicts, loops."""
    counts: dict = {}
    acc = 0
    for i in range(1500):
        t = (i, i + 1, i & 7)
        counts[t[2]] = counts.get(t[2], 0) + len(t)
        acc += t[0] - t[1]
    return acc


def sample() -> float:
    c0 = thread_time()
    kernel()
    return thread_time() - c0


class SpeedProbe:
    """Context manager that samples kernel CPU time in a daemon thread."""

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t = perf_counter()
            self.costs.append(sample())
            self.times.append(t)

    def __enter__(self):
        self.costs.append(sample())
        self.times.append(perf_counter())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REFERENCE_S / c over the samples within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi <= lo:
            lo, hi = max(0, lo - 1), max(1, lo)
        return statistics.fmean(REFERENCE_S / c for c in self.costs[lo:hi])
