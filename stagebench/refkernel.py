"""The fixed reference kernel that stage times are divided by.

It is pure numpy and calls nothing from dualprune, so no change to the
program can make it faster or slower; it only tracks how fast the machine
runs at the moment.  Its mix resembles the model's: small float64 GEMMs of
the model's widths with a row softmax (exp and max) between them.

The machine's speed jumps between modes that last from a fraction of a
second to several seconds (the kernel's own time moves between about 4.5 and
6.5 ms), so the benchmark samples the kernel often, between pieces of work
in the same process, and measures every stretch of work against the samples
taken just before and just after it (`RefClock.measure`).
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

KERNEL_SEED = 20240510
ROWS, D_MODEL, D_FF = 256, 64, 128
ITERATIONS = 16
SAMPLES_PER_POINT = 3


def reference_kernel(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                     iterations: int = ITERATIONS) -> np.ndarray:
    for _ in range(iterations):
        h = x @ w1
        e = np.exp(h - h.max(axis=-1, keepdims=True))
        x = (e / e.sum(axis=-1, keepdims=True)) @ w2
    return x


class RefClock:
    """Samples of the reference kernel taken between pieces of work."""

    def __init__(self):
        rng = np.random.default_rng(KERNEL_SEED)
        self._x = rng.standard_normal((ROWS, D_MODEL))
        self._w1 = rng.standard_normal((D_MODEL, D_FF)) / np.sqrt(D_MODEL)
        self._w2 = rng.standard_normal((D_FF, D_MODEL))
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []  # median kernel seconds of each sample

    def sample(self, reps: int = SAMPLES_PER_POINT) -> None:
        start = perf_counter()
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            reference_kernel(self._x, self._w1, self._w2)
            times.append(perf_counter() - t0)
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.samples.append(statistics.median(times))

    def median(self) -> float:
        return statistics.median(self.samples)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, reference units) of the work in [start, end].

        Samples taken inside the interval cut it into segments and are not
        counted as work.  Each segment is divided by the mean of the samples
        on either side of it, so that it is measured against the speed the
        machine had while it ran.
        """
        i = bisect.bisect_right(self.ends, start) - 1
        j = bisect.bisect_left(self.starts, end)
        if i < 0 or j >= len(self.samples):
            raise ValueError("the reference kernel was not sampled on both sides of the interval")
        seconds = units = 0.0
        seg_start, before = start, self.samples[i]
        for k in range(i + 1, j + 1):
            seg_end = min(self.starts[k], end)
            seconds += seg_end - seg_start
            units += (seg_end - seg_start) / (0.5 * (before + self.samples[k]))
            seg_start, before = self.ends[k], self.samples[k]
        return seconds, units
