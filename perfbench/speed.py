"""The host-speed yardstick.

The benchmark shares a few cores of a busy host. The speed of one core
swings by up to 40% for seconds to minutes at a time (the process's CPU time
swings with its wall time, so the core runs it more slowly rather than
leaving it waiting). A fixed pure-Python kernel, timed between the units of
work, tracks that speed: each unit's time is divided by the kernel's time
measured around it and multiplied by the kernel's nominal time, which gives
the unit's time on a host running at nominal speed.

The kernel is frozen. It imports nothing from ccmax, so no change to the
program moves it; a change to the kernel changes every normalised figure
and is a change to the benchmark.
"""

from __future__ import annotations

import bisect
import os
import random
from time import perf_counter

# The kernel's time on the host the baseline comes from (2 vCPUs, "Intel(R)
# Xeon(R) Processor", Python 3.11.7), in its fast state. Any constant would
# do: it only sets the scale of the normalised seconds.
NOMINAL_S = 0.001
# Least time between two probes of the kernel.
PROBE_EVERY_S = 0.1
# A probe times the kernel this many times back to back and keeps the least
# time, which drops a run that an interrupt landed in.
REPS = 3


def _graphs():
    rng = random.Random(20240611)
    out = []
    for n in (14, 16, 18, 20, 22, 24):
        masks = [0] * n
        for v in range(n):
            for w in range(v + 1, n):
                if rng.random() < 0.3:
                    masks[v] |= 1 << w
                    masks[w] |= 1 << v
        out.append(masks)
    return out


_GRAPHS = _graphs()


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def kernel() -> int:
    """Colour refinement, bit scans, tuples, sorting and dicts on six fixed
    graphs: the operations the ccmax layers spend their time in."""
    total = 0
    for masks in _GRAPHS:
        n = len(masks)
        colors = [0] * n
        ncolors = 1
        while True:
            keys = [(colors[v], tuple(sorted(colors[w] for w in _bits(masks[v])))) for v in range(n)]
            palette = sorted(set(keys))
            index = {k: i for i, k in enumerate(palette)}
            colors = [index[k] for k in keys]
            if len(palette) == ncolors:
                break
            ncolors = len(palette)
        for v in range(n):
            for w in _bits(masks[v]):
                total += bin(masks[v] & masks[w]).count("1") + colors[w]
    return total


_EXPECTED = kernel()


class Speedometer:
    """Probes of the kernel, taken between units of work: the time at the
    end of each probe, and its kernel seconds.

    A workload that runs in one process is probed where it runs. One that
    spreads over a pool runs on every CPU the process may use, and the CPUs
    of a shared host do not slow down together, so `cpus` names them and a
    probe runs the kernel pinned to each in turn and takes the mean.
    """

    def __init__(self, clock=perf_counter, kernel=kernel, cpus=None):
        self.clock = clock
        self.kernel = kernel
        self.cpus = cpus
        self.at: list[float] = []
        self.took: list[float] = []

    def _least(self) -> float:
        took = []
        for _ in range(REPS):
            t0 = self.clock()
            if self.kernel() != _EXPECTED:
                raise RuntimeError("the speed kernel gave a different result")
            took.append(self.clock() - t0)
        return min(took)

    def probe(self) -> None:
        if self.cpus:
            allowed = os.sched_getaffinity(0)
            try:
                took = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    took.append(self._least())
            finally:
                os.sched_setaffinity(0, allowed)
            self.took.append(sum(took) / len(took))
        else:
            self.took.append(self._least())
        self.at.append(self.clock())

    def between(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if not self.at or self.clock() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the kernel's mean time in the last probe ending
        before `start` and the first ending after `end`: the speed of the
        host, relative to nominal, around a unit of work."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        near = [self.took[k] for k in (i, j) if 0 <= k < len(self.took)]
        return NOMINAL_S / (sum(near) / len(near))
