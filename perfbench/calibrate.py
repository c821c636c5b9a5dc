"""Measure how fast the machine runs while a phase of the benchmark runs.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
within seconds (neighbours on the same cores, frequency changes), in CPU
time as well as in wall time.  A Sampler interrupts the measured phase
every INTERVAL_S with SIGALRM and times one chunk of a fixed reference loop.
The time spent in those ticks is taken out of the phase's time, and the
chunks give the machine's mean speed over the phase:

    reference seconds = (phase time - tick time) * mean(REFERENCE_S / chunk)

that is, the phase's time on a machine that runs one chunk in REFERENCE_S.
Ticks are spread evenly over wall time, so the mean of their speeds is the
mean speed over the phase, which is what stretches or shrinks its time.

The loop does what the package does most (tuple-of-tuple integer matrices,
column updates, dict lookups keyed by matrices) and keeps its memory small,
so it does not raise the worker's peak RSS.  It never calls the package, so
a change to the package moves the measured phase and not the reference.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

REFERENCE_S = 0.002  # one chunk on a 2.0 GHz Xeon vCPU, Python 3.11
INTERVAL_S = 0.025
LOCAL_S = 0.025
_ROUNDS = 250
_N = 8


def chunk() -> int:
    rows = tuple(tuple(int(i == j) for j in range(_N)) for i in range(_N))
    seen: dict = {}
    hits = 0
    for k in range(_ROUNDS):
        j = k % _N
        nxt = (j + 1) % _N
        rows = tuple(r[:j] + ((r[nxt] - r[j] + k) % 5,) + r[j + 1:] for r in rows)
        if rows in seen:
            hits += 1
        seen[rows] = k
    return hits


class Sampler:
    """Times a reference chunk every INTERVAL_S while it is running.

    `spent` is the time taken by all ticks so far, `chunks` holds the time
    of every chunk and `ticks` the clock() reading when it started; clock()
    is perf_counter() without the ticks.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.chunks: list[float] = []
        self.ticks: list[float] = []  # clock() at each tick
        self._old = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.ticks.append(start - self.spent)
        chunk()
        self.chunks.append(perf_counter() - start)
        self.spent += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.spent

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self, first: int = 0) -> float:
        """Mean speed relative to the reference machine over chunks[first:].

        Times one more chunk outside any phase when a phase was too short
        to be ticked.
        """
        if len(self.chunks) <= first:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                self._tick(None, None)
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        chunks = self.chunks[first:]
        return sum(REFERENCE_S / c for c in chunks) / len(chunks)

    def local_speed(self, at: float, fallback: float) -> float:
        """Mean speed over the ticks within LOCAL_S of clock() reading `at`.

        Short operations are scaled by this rather than by the speed of the
        whole phase, because the machine's speed changes within a phase.
        """
        lo = bisect.bisect_left(self.ticks, at - LOCAL_S)
        hi = bisect.bisect_right(self.ticks, at + LOCAL_S)
        if lo == hi:
            return fallback
        return sum(REFERENCE_S / c for c in self.chunks[lo:hi]) / (hi - lo)
