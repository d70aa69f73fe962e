"""Host-speed meter: a fixed probe, timed every ``INTERVAL_S`` while a workload runs.

The machines this benchmark runs on share their CPUs with other tenants.
On a shared 2-core virtual machine the same 4x4 sweep took 20 s to 45 s
within one hour, with CPU time equal to wall time, so raw times mostly
measure the neighbours.  The meter times a fixed piece of harness-only work
(the probe) from a ``SIGALRM`` interval timer, whose handler runs in the
main thread between bytecodes, so probes land inside library calls as well
as between them without the meter knowing any library name.  The benchmark
reports each time scaled to a reference host on which one probe takes
``REF_PROBE_S``::

    reference time = measured time * REF_PROBE_S / mean(probes during the span
                                                        or within WINDOW_S of it)

On that machine the host flips between a quiet and a contended state (probes
of about 1.8 ms and 3.5 ms) several times a second, so only the probes
during a span and right next to it say how fast the host ran it, and their
mean, not their median, is the time average over a long span.  Over five
seeds of the random 8x8 batch, scaling by the probes within 0.15 s gave
interquartile spreads of 2 % (wall time) and 5 % (99th percentile call),
against 6 % and 32 % with a 1 s window's median.

The probe never calls the library, so a change to the library moves the
scaled times and leaves the probe alone; the cyclic garbage collector is off
while it runs, so the size of the library's heap does not reach it either.
It does what the library spends its time on: frozen slotted point objects,
set membership under king moves, a breadth-first search, and splicing
vertices into a tuple with a position map.  Host contention slows that work
by the same factor as the workloads; a probe of dict and sort operations did
not track them.  The time of every probe that ran inside a measured span is
taken out of that span (``HostMeter.inside``, and ``HostMeter.clock`` for
the tracer's spans).
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

REF_PROBE_S = 2e-3  # about one probe on that machine when its neighbours are quiet
INTERVAL_S = 0.1  # from the end of one timer probe to the start of the next
WINDOW_S = 0.15  # probes this close to a span scale it: one on each side
BURST = 5  # probes in a row for a calibration reading


@dataclass(frozen=True, slots=True)
class _Cell:
    x: int
    y: int


_KING = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))
_REGION = frozenset(_Cell(x, y) for x in range(12) for y in range(12) if (7 * x + 3 * y) % 11)


def _probe_work() -> int:
    start = min(_REGION, key=lambda c: (c.y, c.x))
    seen = {start}
    queue = deque([start])
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for dx, dy in _KING:
            w = _Cell(v.x + dx, v.y + dy)
            if w in _REGION and w not in seen:
                seen.add(w)
                queue.append(w)
    cycle = tuple(order[:40])
    for i in range(40):
        cycle = cycle[: i + 1] + (order[40 + i],) + cycle[i + 1:]
        position = {v: j for j, v in enumerate(cycle)}
    return len(position)


class HostMeter:
    def __init__(self):
        self.samples: list[float] = []  # probe durations
        self.stamps: list[float] = []  # when each probe ended, ascending
        self._cumulative = [0.0]  # _cumulative[i] = sum(samples[:i])
        self._busy = False  # a probe is running; the timer must not nest another
        self._timing = False

    def probe(self) -> float:
        """Run the probe once and record it; returns its duration."""
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _probe_work()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(end - start)
        self.stamps.append(end)
        self._cumulative.append(self._cumulative[-1] + end - start)
        self._busy = False
        return end - start

    def burst(self) -> float:
        """Median of ``BURST`` probes in a row, in milliseconds."""
        return statistics.median(self.probe() for _ in range(BURST)) * 1e3

    def _on_alarm(self, signum, frame) -> None:
        if not self._timing:
            return
        if not self._busy:
            self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def timer(self):
        """Probe every ``INTERVAL_S`` inside the block, wherever the main thread is."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._timing = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            self._timing = False  # a handler already pending must not re-arm
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spent_by(self, t: float) -> float:
        """Total time of the probes that ended by ``t``.  A probe runs in the
        main thread, so one that ended after a time that thread read also
        began after it."""
        return self._cumulative[bisect_right(self.stamps, t)]

    def inside(self, start: float, end: float) -> float:
        """Probe time within [start, end]."""
        return self.spent_by(end) - self.spent_by(start)

    def count_inside(self, start: float, end: float) -> int:
        return bisect_right(self.stamps, end) - bisect_right(self.stamps, start)

    def clock(self) -> float:
        """``perf_counter`` with the time of every probe so far taken out."""
        t = perf_counter()
        return t - self.spent_by(t)

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the mean probe within ``WINDOW_S`` of [start, end],
        or over the last probe before it and the first after it if none is."""
        lo = bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect_right(self.stamps, end + WINDOW_S)
        window = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
        return REF_PROBE_S / statistics.fmean(window)
