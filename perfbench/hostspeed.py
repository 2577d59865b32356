"""A host-speed probe, so timings from a busy host can be normalised.

On a shared machine the same work can take 1.7 times as long in one
minute as in the next, and a slow phase can outlast a whole run.  The
probe is a fixed piece of pure-Python work (integer arithmetic, a heap
of small objects, dict writes, string formatting) that shares nothing
with the program.  Taken between the units of a repetition, it slows
down with the host and not with the program.  A repetition's times are
scaled by ``REFERENCE_S / median(probe times)``, that is, expressed in
seconds of a host on which the probe takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

clock = time.perf_counter

#: The probe's median time on a 2-vCPU Xeon VM; normalised times are in
#: seconds of that host.
REFERENCE_S = 0.014

#: Wall seconds of workload between probes.
PROBE_PERIOD = 0.5


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key = key
        self.label = label


def probe() -> float:
    """Wall seconds of one run of the fixed probe work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = clock()
        total = 0
        for i in range(60_000):
            total += i * i % 7
        heap: list = []
        table = {}
        for i in range(8_000):
            heapq.heappush(heap, (i * 7919 % 1009, i, _Item(i, f"s{i}")))
            table[f"k{i % 2_000}"] = i
        while heap:
            total += heapq.heappop(heap)[2].key
        return clock() - begin
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Probe samples taken through one repetition."""

    def __init__(self) -> None:
        self.samples: List[float] = [probe()]
        self._last = clock()

    def tick(self) -> None:
        """Probe again if :data:`PROBE_PERIOD` has passed since the last."""
        if clock() - self._last >= PROBE_PERIOD:
            self.samples.append(probe())
            self._last = clock()


def scale(samples: List[float]) -> float:
    """The factor that turns this host's seconds into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
