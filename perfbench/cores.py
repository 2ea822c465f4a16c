"""The cores a workload runs on: picked, pinned and timed.

Each vCPU of the shared host switches on its own between a fast and a slow
state that can last a minute or more (README.md, "Machine drift"): while
one core runs a fixed loop in 5.3 ms, the other may run it in 3.3 ms.  So
the benchmark times :func:`_loop`, whose work never changes, next to every
timing, and scales the timing to a core that runs the loop in
``REFERENCE_LOOP_S``: what the program would read on cores of that speed.
A change to the program moves the scaled figures, while a slow stretch of
a core moves the loop's time with the program's and cancels out.

A sync workload's program runs in the load generator's thread, on one
core: before each timed piece of work the benchmark pins itself to the
core that runs the loop fastest, and times the loop on that core.  With
process workers the parent and its workers share every core: nothing is
pinned, and the loop is timed on each core in turn and averaged.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from typing import List, Optional, Set

#: Timings of the loop per measurement; each takes about 1 ms.
PROBES = 3
#: The loop's time on a fast core of the machine the benchmark was defined
#: on.  It only sets the scale of the timed metrics, and is the same on both
#: sides of any comparison.
REFERENCE_LOOP_S = 0.001


def _loop() -> int:
    """A fixed loop of dictionary updates."""
    counts: dict = {}
    for i in range(6000):
        counts[i % 500] = counts.get(i % 500, 0) + i
    return len(counts)


class CorePicker:
    """Pins this process to its fastest core (``pin``), and times the loop."""

    def __init__(self, pin: bool) -> None:
        self.pin = pin
        self.original: Optional[Set[int]] = None
        self.cpus: List[int] = []
        self.picks: Counter = Counter()
        if hasattr(os, "sched_getaffinity"):
            self.original = os.sched_getaffinity(0)
            self.cpus = sorted(self.original)

    def pick(self) -> None:
        """When pinning, pin to the fastest core, if there is a choice."""
        if not self.pin or len(self.cpus) < 2:
            return
        try:
            best = min(self.cpus, key=self._time_on)
            os.sched_setaffinity(0, {best})
        except OSError:
            self.cpus = []
            return
        self.picks[best] += 1

    def time_loop(self, probes: int = PROBES) -> float:
        """The loop's time: on the current core when pinning, otherwise the
        mean over every core, the affinity restored afterwards."""
        if self.pin or len(self.cpus) < 2:
            return self._time_here(probes)
        try:
            return statistics.fmean(self._time_on(cpu, probes) for cpu in self.cpus)
        except OSError:
            self.cpus = []
            return self._time_here(probes)
        finally:
            self.restore()

    def _time_on(self, cpu: int, probes: int = PROBES) -> float:
        os.sched_setaffinity(0, {cpu})
        return self._time_here(probes)

    @staticmethod
    def _time_here(probes: int) -> float:
        clock = time.perf_counter
        taken = []
        for _ in range(probes):
            start = clock()
            _loop()
            taken.append(clock() - start)
        return statistics.median(taken)

    def restore(self) -> None:
        """Undo any pinning."""
        if self.original is not None:
            os.sched_setaffinity(0, self.original)
