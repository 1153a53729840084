"""Host-speed calibration for the benchmark's time metrics.

On a 2-core x86-64 host shared with other tenants, the same single-threaded
Python loop takes 0.21 s or 0.34 s depending on the moment, in phases of
5-20 s, so raw times of whole runs spread by 13-36 % across runs. The
benchmark therefore times a fixed reference routine (pure Python plus small
numpy calls, the mix of distgates' hot path) between verdicts, at most every
``MIN_GAP_S``. The local scale at a sample is ``NOMINAL_S`` over the median
reference time of the samples within ``NEAR_S`` of it; a scaled interval is
the integral of the nearest sample's scale over it, less the reference
samples taken inside it. A scaled time is the time the host would have shown
at the speed where the reference takes ``NOMINAL_S``. The reference never
calls distgates, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from types import SimpleNamespace

import numpy as np

NOMINAL_S = 0.007   # the reference's time at this host's usual quiet speed
MIN_GAP_S = 0.1     # sample at most this often, so calibration costs < ~7 %
NEAR_S = 0.25       # samples this close to each other are pooled

_REF_MAT = np.eye(4, dtype=complex)


def reference() -> int:
    total = 0
    for i in range(60_000):
        total += i * i
    amps = np.ones((4, 64), dtype=complex)
    for _ in range(300):
        amps = (_REF_MAT @ amps.reshape(4, -1)).reshape(4, 4, 16).transpose(1, 0, 2)
        amps = amps.reshape(4, -1)
    return total


class HostSpeed:
    """Reference-routine samples over a run, and the time scale they imply."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end), in time order
        self.spent_cpu = 0.0  # CPU time inside reference(), left out of cpu_s
        self._mids: list[float] = []
        self._scales: list[float] = []

    def sample(self):
        cpu0 = time.process_time()
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter()))
        self.spent_cpu += time.process_time() - cpu0

    def tick(self):
        """Take a sample unless the last one is recent; call between timed intervals."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] > MIN_GAP_S:
            self.sample()

    def _local_scales(self) -> tuple[list[float], list[float]]:
        """(sample midpoints, local scale at each)."""
        if len(self._scales) != len(self.samples):
            mids = [(a + b) / 2 for a, b in self.samples]
            lengths = [b - a for a, b in self.samples]
            self._mids, self._scales = mids, []
            for mid in mids:
                lo = bisect.bisect_left(mids, mid - NEAR_S)
                hi = bisect.bisect_right(mids, mid + NEAR_S)
                self._scales.append(NOMINAL_S / statistics.median(lengths[lo:hi]))
        return self._mids, self._scales

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] at nominal speed, reference samples inside left out."""
        mids, scales = self._local_scales()
        first = max(0, bisect.bisect_left(mids, start) - 1)
        last = min(len(mids), bisect.bisect_right(mids, end) + 1)
        total = 0.0
        for i in range(first, last):
            lo = (mids[i - 1] + mids[i]) / 2 if i > 0 else float("-inf")
            hi = (mids[i] + mids[i + 1]) / 2 if i + 1 < len(mids) else float("inf")
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                total += overlap * scales[i]
            a, b = self.samples[i]
            if start <= a and b <= end:
                total -= (b - a) * scales[i]
        return total

    def raw(self, start: float, end: float) -> float:
        """Seconds of [start, end], reference samples inside left out."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_right(self.samples, (end,))
        return end - start - sum(b - a for a, b in self.samples[lo:hi] if b <= end)

    def unscaled(self):
        """A stand-in whose ``scaled`` is ``raw``, for reporting raw times."""
        return SimpleNamespace(scaled=self.raw, raw=self.raw)
