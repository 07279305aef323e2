"""Machine-speed calibration for the end-to-end times.

Shared hosts change speed by tens of percent within seconds: on a 2-vCPU Xeon
VM the same exact-ladder pass took from 4.7 s to 8.1 s within minutes while
stodep did identical work, so raw times of two runs are not comparable.
While a run sets up and measures, a timer interrupts it every TICK_INTERVAL_S
to time a short fixed pure-Python loop (a tick).  A measured span is scaled by
REFERENCE_TICK_S / (median of the ticks taken during it) to "reference
seconds": the time it would have taken at the speed where a tick takes
REFERENCE_TICK_S.  Ticks spread over the span see the speed changes the span
saw; on that VM this cut the spread of 30-second medians of the pass time
from 17% to 3% of the median, where timing the loop only before and after
each pass reached 11%.  Ticks take about 2% of the measured time.  The loop is
benchmark code, so a change to stodep cannot move it; raw times stay in the
run record.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

from . import stats

TICK_INTERVAL_S = 0.2
MIN_TICKS = 5
# Median tick on the 2-vCPU Xeon VM where the benchmark was defined (Python 3.11).
REFERENCE_TICK_S = 0.0036


def reference_factor(ticks) -> float:
    """Reference seconds per raw second at the speed these ticks saw."""
    return REFERENCE_TICK_S / stats.median(ticks)


def tick_seconds() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - started


class Calibration:
    """The ticks of one run, as (time the tick ended, tick seconds) in time order."""

    def __init__(self):
        self.at: list[float] = []
        self.ticks: list[float] = []

    def _tick(self) -> None:
        seconds = tick_seconds()
        self.at.append(time.perf_counter())
        self.ticks.append(seconds)

    @contextmanager
    def ticking(self):
        """Tick on a timer inside the block, and at least MIN_TICKS times in all."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.ticks) < MIN_TICKS:
            self._tick()

    @contextmanager
    def paused(self):
        """No ticks inside the block, e.g. while a child process runs beside this one."""
        remaining, interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            if remaining or interval:
                signal.setitimer(signal.ITIMER_REAL, remaining or interval, interval)

    def factor(self, start: float, seconds: float) -> float:
        """Reference seconds per raw second for the span [start, start + seconds].

        Uses the ticks inside the span, widened on both sides until it holds
        MIN_TICKS of them, so short spans take the speed of their surroundings.
        """
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, start + seconds)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return reference_factor(self.ticks[lo:hi])

    def scale(self, spans) -> list[float]:
        """Reference seconds of (start, seconds) spans."""
        return [seconds * self.factor(start, seconds) for start, seconds in spans]
