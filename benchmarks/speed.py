"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same decision can take twice as long from one minute
to the next. The kernel below does a fixed amount of the kind of work fhtp
does (tuple arithmetic, dict and heap operations, generator-driven
comparisons, small numpy calls) without calling fhtp, so its time moves with
the machine and not with the program. Timing it between requests gives a
speed factor: measured times multiplied by ``REFERENCE_MS / kernel ms`` are
times at the speed where the kernel takes ``REFERENCE_MS``. Each request is
scaled by the median of the timings taken around it, so a burst of
contention that slows some requests is taken out of them as well.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

import numpy as np

REFERENCE_MS = 2.5
SAMPLE_EVERY_S = 0.05  # of deciding time between two kernel timings
WINDOW = 9  # kernel timings in the median that scales one request
_DRAIN = np.array((0.01, 0.02, 0.03, 0.01, 0.02))


def reference_table(rows: int = 1000) -> dict:
    """The kernel's data: a dict the size of a search frontier."""
    return {(i, i % 7): tuple(float((i * k) % 101) for k in (3, 5, 7, 11)) for i in range(rows)}


def reference_kernel(table: dict) -> float:
    heap: list = []
    acc = 0.0
    probe = (50.0, 50.0, 50.0, 50.0)
    for key, row in table.items():
        if all(x >= y for x, y in zip(probe, row)):
            acc += row[0]
        heapq.heappush(heap, (row[1], key))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    q = np.arange(5.0)
    for _ in range(25):
        q = np.maximum(q - _DRAIN, 0.0)
        acc += float(np.log2(1.0 + q).sum())
    return acc


class SpeedProbe:
    """Times the kernel once per ``SAMPLE_EVERY_S`` of request time."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = math.inf
        self._table = reference_table()

    def tick(self, busy: float) -> int:
        """Count ``busy`` seconds of requests; return a mark for `local_factor`."""
        self._since += busy
        if self._since >= SAMPLE_EVERY_S:
            start = time.perf_counter()
            reference_kernel(self._table)
            self.samples.append(time.perf_counter() - start)
            self._since = 0.0
        return len(self.samples)

    def local_factor(self, mark: int) -> float:
        """The factor from the ``WINDOW`` timings centred on the latest one at ``mark``."""
        lo = max(0, mark - 1 - WINDOW // 2)
        return REFERENCE_MS / (statistics.median(self.samples[lo : mark + WINDOW // 2]) * 1e3)

    @property
    def kernel_ms(self) -> float:
        return statistics.median(self.samples) * 1e3

    @property
    def factor(self) -> float:
        """Multiply a time measured during the run by this to get it at reference speed."""
        return REFERENCE_MS / self.kernel_ms
