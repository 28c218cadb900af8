"""Host speed, sampled on the measured process's own core while it runs.

The benchmark's host is a few virtual cores of a shared machine whose
speed drifts: a fixed pure-Python loop runs 1.5x slower for seconds at a
time, and stretches of minutes run up to 2.4x slower than others.  Some
of the drift hits every core at once, some only one core, so the speed
that matters is that of the core the measured process runs on.

:class:`SpeedProbe` pins the benchmark's main thread, and with it every
child it spawns, to one core, and runs a thread pinned to the same core
under ``SCHED_FIFO`` that times a fixed *round* of work every
``PROBE_PAUSE_S``.  Being real-time, a round preempts the child at once
and runs to its end, so its time is the core's speed at that moment,
and the child loses exactly the rounds that overlap it.  A round mixes
the kinds of work ``pincer`` does: an interpreter loop, AND + popcount
over packed bit rows, and tuple-keyed dict updates.

:meth:`SpeedProbe.seconds` turns an interval of the child into
*reference seconds*: its length minus the rounds inside it, divided by
the mean slowdown of those rounds, where slowdown 1 means one round
takes ``NOMINAL_S``.  A time in reference seconds is what the interval
would have taken on a core running at that speed.

On a 2-vCPU Xeon, over ten single mines of each one-shot cell, the
rounds took 6% of the child's core; the mine's time left correlated
with the round time at 0.88 (Figure 3 cell) and 0.95 (Figure 4 cell),
and dividing by it cut the quartile spread over median from 0.10 to
0.036 and from 0.11 to 0.034.  The same round timed on the other core
did not help (0.10 and 0.14): the drift of that stretch was per core.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from statistics import fmean
from typing import Callable, List

import numpy as np

# pause between rounds; the rounds take about 6% of the child's core
PROBE_PAUSE_S = 0.045
# one round's time at slowdown 1, a fixed unit (on a 2-vCPU Xeon with
# Python 3.11.7 and NumPy 2.4.6, rounds took 2.7 ms while the Figure 3
# cell took 6.5 s)
NOMINAL_S = 0.0015
# an interval holding fewer rounds than this is widened around it
MIN_POINTS = 10
# real-time priority of the probe thread (any SCHED_FIFO level preempts
# the ordinary processes it shares the core with)
FIFO_PRIORITY = 10


def probe_round() -> Callable[[], None]:
    """The fixed work of one round (NumPy >= 2.0 for ``bitwise_count``).

    The bit rows are 256 KB, so a round evicts little of the child's
    cache.
    """
    rows = np.random.default_rng(0).integers(
        0, 2 ** 63, size=(64, 512), dtype=np.uint64
    )

    def work() -> None:
        x = 0
        for j in range(10_000):
            x += j * j
        for i in range(12):
            np.bitwise_count(np.bitwise_and(rows[i], rows)).sum()
        table = {}
        for i in range(1_500):
            key = (i % 97, i % 89, i % 83)
            table[key] = table.get(key, 0) + 1
        sorted(table)

    return work


class SpeedProbe:
    """Pins this thread and a real-time probe thread to one core.

    Use as a context manager around the measured spawns; leaving it
    stops the probe and restores the thread's CPU affinity.
    """

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        self.realtime = False
        self.starts: List[float] = []
        self.finishes: List[float] = []
        self._ready = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        self._ready.wait()
        if not self.realtime:
            sys.stderr.write(
                "perfbench: SCHED_FIFO refused; probe rounds may include "
                "the child's time slices\n"
            )
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        try:
            os.sched_setaffinity(0, {self.cpu})
            try:
                os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(FIFO_PRIORITY))
                self.realtime = True
            except (AttributeError, OSError):
                pass
            work = probe_round()
        finally:
            # on failure the thread ends here and ``_rounds`` reports it
            self._ready.set()
        clock = time.monotonic
        while not self._stop.is_set():
            started = clock()
            work()
            finished = clock()
            # finishes first: a reader sizes both lists by starts
            self.finishes.append(finished)
            self.starts.append(started)
            self._stop.wait(PROBE_PAUSE_S)

    def _rounds(self):
        count = len(self.starts)
        if count == 0:
            raise RuntimeError("the speed probe has no rounds yet")
        return self.starts[:count], self.finishes[:count]

    def slowdown(self, start: float, end: float) -> float:
        """Mean round time over ``[start, end]`` (monotonic) over ``NOMINAL_S``.

        Rounds that began inside the interval count; when fewer than
        ``MIN_POINTS`` did, the nearest ones on either side are added.
        """
        starts, finishes = self._rounds()
        count = len(starts)
        lo = bisect_left(starts, start)
        hi = bisect_right(starts, end)
        while hi - lo < min(MIN_POINTS, count):
            if lo > 0:
                lo -= 1
            if hi < count and hi - lo < MIN_POINTS:
                hi += 1
        return fmean(finishes[i] - starts[i] for i in range(lo, hi)) / NOMINAL_S

    def stolen(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that probe rounds took from the core."""
        starts, finishes = self._rounds()
        lo = bisect_right(finishes, start)
        hi = bisect_left(starts, end)
        return sum(
            min(finishes[i], end) - max(starts[i], start) for i in range(lo, hi)
        )

    def seconds(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference seconds."""
        return (end - start - self.stolen(start, end)) / self.slowdown(start, end)
