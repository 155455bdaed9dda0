"""Host-speed normalization of the benchmark's timings.

The host this benchmark was defined on switches between speed levels up to
1.45x apart every few seconds; CPU time follows wall time, so the cause is
other tenants of the physical cores, not this process. Raw wall times of the
same work then differ by 15-25% from run to run. To absorb that, a fixed
calibration kernel owned by the benchmark (small numpy matmuls plus
interpreter work, as in the autodiff engine; nothing from textcaps) is timed
between the measured operations, at most every ``INTERVAL_S``. Between two
kernel samples the host runs at the speed their mean kernel time shows. A
measured span is reported as the time it would take on a host where the
kernel takes ``REFERENCE_S``: each part of the span, outside the kernel runs,
is scaled by ``REFERENCE_S`` over the kernel time around it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 2.0e-3
INTERVAL_S = 0.1
CAPACITY = 1 << 16  # samples; a run lasts at most 180 s


class HostClock:
    """Calibration samples of one run, and the normalization they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20230613)
        self._a = rng.normal(size=(32, 64))
        self._b = rng.normal(size=(64, 64)) * 0.1
        self._x = np.empty_like(self._a)
        self._y = np.empty_like(self._a)
        # Sample storage is allocated once, for the same reason.
        self._times = np.empty(CAPACITY)     # kernel start times, increasing
        self._kernel_s = np.empty(CAPACITY)  # kernel wall times
        self.count = 0
        self._next = 0.0

    @property
    def times(self) -> np.ndarray:
        return self._times[:self.count]

    @property
    def kernel_s(self) -> np.ndarray:
        return self._kernel_s[:self.count]

    def kernel(self) -> float:
        """Run the calibration kernel once and return its wall time.

        The arrays are preallocated, so the kernel takes no heap memory that
        could land among the library's allocations at a time-dependent point.
        The garbage collector is off while it runs: its interpreter objects
        would otherwise trigger collections that scan the library's objects,
        and the kernel time would depend on them.
        """
        a, b, x, y = self._a, self._b, self._x, self._y
        collecting = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            np.copyto(x, a)
            items = []
            for i in range(150):
                np.matmul(x, b, out=y)
                np.tanh(y, out=y)
                np.add(y, a, out=x)
                items.append({"i": i, "key": (i, str(i))})
            sum(item["i"] for item in items)
            return time.perf_counter() - began
        finally:
            if collecting:
                gc.enable()

    def tick(self) -> None:
        """Sample the host speed if ``INTERVAL_S`` has passed since the last sample."""
        now = time.perf_counter()
        if now >= self._next:
            took = self.kernel()
            self._times[self.count] = now
            self._kernel_s[self.count] = took
            self.count += 1
            self._next = now + took + INTERVAL_S

    def normalize(self, start: float, end: float) -> float:
        """Seconds the span [start, end] would take at the reference speed,
        leaving out the kernel runs inside it."""
        times, kernel_s = self.times, self.kernel_s
        if not self.count:
            raise ValueError("no host clock samples; call tick() around the measured work")
        last = self.count - 1
        i = max(int(np.searchsorted(times, start, side="right")) - 1, 0)
        total = 0.0
        # Before the first sample, the first sample's speed holds.
        if start < times[0]:
            total += (min(end, times[0]) - start) / kernel_s[0]
        while i <= last and times[i] < end:
            gap_start = times[i] + kernel_s[i]
            gap_end = times[i + 1] if i < last else end
            k = (kernel_s[i] + kernel_s[i + 1]) / 2 if i < last else kernel_s[i]
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                total += overlap / k
            i += 1
        return total * REFERENCE_S
