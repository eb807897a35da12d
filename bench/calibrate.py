"""Host-speed calibration: a fixed pure-Python tick, timed throughout a run.

On a shared host the speed of pure Python code swings by 20–40%, in phases
that last from under a second to minutes, and ringlab's time swings with it.
While a run measures, a ``Sampler`` times one tick every ``INTERVAL_S`` of
wall time from a ``SIGALRM`` handler, so the ticks sample the host's speed
evenly over the run, inside ops as well as between them. Times are then
reported in reference seconds:

    scaled = measured * REFERENCE_S / harmonic_mean(tick times)

over the ticks taken during the op that is scaled (at least ``LOCAL_TICKS``
of them, the nearest, for a short op). The harmonic mean is the right
average here: the work done in a stretch of wall time is proportional to
the mean of 1/tick over it. A value therefore
reads as the seconds the work takes on a host where one tick takes
``REFERENCE_S``. The time spent in ticks is taken out of every measured
interval. The tick does what ringlab's hot loops do (builds and walks a
list-of-lists table, spans a bitmask, encodes JSON) but calls no ringlab
code, so a change to ringlab moves the scaled times exactly as it moves the
measured ones. The measured times and the scale are printed beside every
result.
"""
from __future__ import annotations

import json
import signal
from bisect import bisect_left
from time import perf_counter

# One tick on the host the benchmark was written on, at a typical speed.
REFERENCE_S = 0.0012
INTERVAL_S = 0.05
# fewest ticks an op is scaled by (about half a second of them)
LOCAL_TICKS = 10

_N = 64
_ROWS = [[(a * b) % 1000 + 300 for b in range(512)] for a in range(12)]


def tick() -> int:
    n = _N
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    bad = 0
    for a in range(n):
        row = add[a]
        for b in range(n):
            if row[b] != add[b][a]:
                bad += 1
    bits = 0
    for b in add[3]:
        bits |= 1 << (b * 7 % 200)
    return bad + bits.bit_count() + len(json.dumps(_ROWS))


def timed_ticks(count: int) -> list[float]:
    """The durations of ``count`` ticks in a row."""
    out = []
    for _ in range(count):
        start = perf_counter()
        tick()
        out.append(perf_counter() - start)
    return out


def scale(durations: list[float]) -> float:
    """Reference seconds per measured second, given these tick durations."""
    return REFERENCE_S * sum(1 / d for d in durations) / len(durations)


class Sampler:
    """Times one tick every ``INTERVAL_S`` of wall time while it is entered."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = [0.0]  # _busy[k]: seconds in the first k ticks
        self._ticking = False

    def _handler(self, signum, frame) -> None:
        if self._ticking:  # a signal that arrives during a tick is dropped
            return
        self._ticking = True
        start = perf_counter()
        tick()
        duration = perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        self._busy.append(self._busy[-1] + duration)
        self._ticking = False

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Seconds spent in ticks that began within [start, end)."""
        return self._busy[bisect_left(self.starts, end)] - self._busy[bisect_left(self.starts, start)]

    def scale(self) -> float:
        """Reference seconds per measured second, over the ticks so far."""
        return scale(self.durations) if self.durations else 1.0

    def scale_between(self, start: float, end: float) -> float:
        """The scale over the ticks that began within [start, end), widened
        on both sides to the ``LOCAL_TICKS`` nearest when fewer fell inside.
        The host's speed swings within a second, so a scale taken over the
        op itself follows it far better than one taken over the whole run."""
        first, last = bisect_left(self.starts, start), bisect_left(self.starts, end)
        short = max(0, LOCAL_TICKS - (last - first))
        first = max(0, first - (short + 1) // 2)
        last = min(len(self.starts), last + (short + 1) // 2)
        return scale(self.durations[first:last]) if last > first else self.scale()
