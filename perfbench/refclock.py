"""Host time at reference speed.

On a shared box the speed of the same Python code drifts by tens of per
cent over seconds to minutes, because other tenants load the same cores
and caches, and a slow phase can cover a whole run. So while the workload
runs, a timer interrupts it every INTERVAL_S to time a fixed pure-Python
reference loop (heap events with closures, like the simulator's kernel).
Each scenario's host time, less the calibrations inside it, is scaled by
NOMINAL_S over the reference times measured during it (or, for a scenario
shorter than the interval, just before and after it). The result reads as
seconds on a box where the reference loop takes NOMINAL_S.

The module imports only small standard modules (`bisect`, `gc`, `heapq`,
`signal`, `time`), so a process can import it and time a reference loop
before timing the import of `mpsim` without taking much of that import's
work out of the timed part.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import time

# Typical time of one `reference()` call on the 2-core box the baseline was
# taken on. It only fixes the scale of the reported values.
NOMINAL_S = 0.011
INTERVAL_S = 0.2   # host time between two calibrations, about 7 % of
                   # which the calibrations take
LIVE = 512         # events pending at once in the reference loop


class _Event:
    __slots__ = ("time", "fn")

    def __init__(self, t, fn):
        self.time = t
        self.fn = fn


def reference(n=8000):
    """A fixed toy event loop; its host time measures the machine's speed.

    At most LIVE events are pending at once, so the loop's memory stays
    small: it runs inside the workload's process, whose peak resident
    memory is a metric.
    """
    queue = []
    total = [0]

    def handler(i):
        total[0] += i

    for i in range(n):
        heapq.heappush(queue, (i + i * 7919 % 1000, i,
                               _Event(i, lambda i=i: handler(i))))
        if len(queue) > LIVE:
            heapq.heappop(queue)[2].fn()
    while queue:
        heapq.heappop(queue)[2].fn()
    return total[0]


def measure():
    """Host time of one reference loop. The cyclic garbage collector is off
    meanwhile, so the simulator's live heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Context manager that calibrates on entry, every INTERVAL_S from a
    SIGALRM handler, and on exit."""

    def __init__(self):
        self.starts = []  # perf_counter() at the start of each calibration
        self.ends = []
        self.refs = []    # reference-loop time of each calibration
        self._previous = None

    def _calibrate(self, *_):
        start = time.perf_counter()
        ref = measure()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.refs.append(ref)

    def __enter__(self):
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()

    def times(self, t0, t1):
        """(host seconds, seconds at reference speed) of the interval
        [t0, t1], both without the calibrations that ran inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        own = (t1 - t0) - sum(self.ends[k] - self.starts[k]
                              for k in range(lo, hi))
        refs = self.refs[lo:hi] or self.refs[max(lo - 1, 0):hi + 1]
        return own, at_reference_speed(own, refs)


def at_reference_speed(host_s, refs):
    """`host_s` scaled by NOMINAL_S over the mean of the reference times
    `refs` measured around it."""
    return host_s * NOMINAL_S * len(refs) / sum(refs)
