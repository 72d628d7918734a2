"""Host-speed reference: a fixed kernel timed between the workload's calls.

Other tenants of a shared host slow this process by 20-50 % for tens of
seconds at a time, in CPU time as well as wall time, and a run of the
same code reads that much slower.  For interpreter-bound code the
slow-down is common to every loop in the process, so a fixed kernel
timed between the calls tracks it: each timed block of calls takes the
median of the kernel samples nearest to it, and its times are divided
by ``median / REFERENCE_MS`` to give them at the reference host's speed.

The kernel depends on nothing in ``sthrn`` and fits in the CPU caches:
a pure-Python integer loop, element-wise numpy operations on a 6x6
array and short-lived small lists, with the collector off, so no work
of the program (live objects, heap state) changes what it measures.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Median sample on the reference machine (2-vCPU Xeon, Python 3.11,
# scipy-openblas 0.3.31, 2 threads).  A host at this speed leaves the
# timings unchanged.
REFERENCE_MS = 42.0


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((6, 6))
        self.samples_ms: list[float] = []

    def _kernel(self) -> None:
        s = 0
        for i in range(200_000):
            s += i * i % 7
        x = self._small
        for _ in range(5_000):
            x = np.tanh(x * 0.5 + self._small)
        for _ in range(10):
            held = [(i, [i]) for i in range(5_000)]
            del held

    def sample(self) -> float:
        """Time one kernel run; returns and records its milliseconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            ms = (time.perf_counter() - t0) * 1e3
        finally:
            if enabled:
                gc.enable()
        self.samples_ms.append(ms)
        return ms

    def factors(self, samples: list[float], blocks: int) -> list[float]:
        """How much slower than the reference the host ran during each block.

        Block ``i`` ran between ``samples[i]`` and ``samples[i + 1]``.  The
        host drifts over tens of seconds while single samples scatter by
        10-20 %, so each block takes the median of the six samples
        nearest to it.
        """
        out = []
        for i in range(blocks):
            window = samples[max(0, i - 2):i + 4]
            out.append(statistics.median(window) / REFERENCE_MS)
        return out

    def median_factor(self) -> float:
        return statistics.median(self.samples_ms) / REFERENCE_MS
