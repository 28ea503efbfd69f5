"""Wall time scaled to a fixed reference speed.

On a shared machine other tenants slow every instruction stream down by a
factor that drifts over seconds to minutes (on a shared 2-vCPU VM the same
trial took anywhere from 1.0x to 1.9x its quiet time, for minutes at a
time), which swamps the differences a benchmark has to resolve.  `RefClock`
runs a fixed reference kernel, which calls no panosearch code, after every
measured call and scales the call's wall time by

    REFERENCE_MS / mean(kernel time just before, kernel time just after)

so a result reads as the wall time on a machine where the kernel takes
REFERENCE_MS.  The kernel mixes what a trial does: numpy calls on small
arrays in a Python loop, dict churn, and one pass over a large array.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 3.0


class RefClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._points = rng.uniform(-20.0, 20.0, size=(160, 2))
        self._big = rng.random(250_000)
        self._last = self.kernel()

    def kernel(self) -> float:
        """Run the reference kernel once; returns its wall seconds."""
        t0 = time.perf_counter()
        remaining = list(range(len(self._points)))
        cur = np.zeros(2)
        visited = []
        while remaining:
            d = self._points[remaining] - cur
            j = int(np.argmin(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
            cur = self._points[remaining.pop(j)]
            visited.append({"h": float(cur[0]), "v": float(cur[1])})
        int((self._big < 0.5).sum())
        return time.perf_counter() - t0

    def scale(self, wall_s: float) -> float:
        """Scale a call that just ended and took `wall_s` wall seconds."""
        after = self.kernel()
        scaled = wall_s * (REFERENCE_MS / 1e3) / ((self._last + after) / 2.0)
        self._last = after
        return scaled
