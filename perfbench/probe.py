"""Machine-speed probe: rescales the child's timings to a fixed CPU speed.

On a shared 2-vCPU host the same code runs up to twice as fast in one
stretch of a second as in the next (another tenant's load on the shared
core), and the mix of fast and slow stretches drifts over minutes. Raw
pass times therefore move by 20-30 % between runs of the same code.

The probe runs a fixed kernel of the kind of work qtraj does (a pure-Python
loop, scalar 2x2 NumPy products and batched NumPy products over 500
matrices) about every ``INTERVAL_S`` seconds from a SIGALRM handler, and
records how long it took. A stretch of wall time between two samples is
rescaled by ``REF_KERNEL_S / kernel time`` of the sample that ends it, so
``normalised(t0, t1)`` estimates how long [t0, t1] would have taken at the
speed the kernel has on an uncontended core. The probe's own time stays in
the interval it interrupts; it is 2-3 % of a run.

Handlers run between bytecodes of the main thread only, so the kernel never
interrupts a NumPy call half-way; system calls it interrupts are retried.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.06
# Median kernel time in the fast (uncontended) stretches of a 2-vCPU Xeon
# VM; a fixed scale, so values stay comparable between commits.
REF_KERNEL_S = 1.0e-3

_SCALAR = np.array([[1.0, 0.2], [0.2, 0.5]])
_BATCH = np.random.default_rng(1).standard_normal((500, 2, 2))


def kernel() -> int:
    s = 0
    for i in range(1600):
        s += (i * 7) % 13
    m = _SCALAR
    for _ in range(60):
        m = (m @ _SCALAR) / np.trace(m)
    x = _BATCH
    for _ in range(12):
        x = x @ _BATCH.swapaxes(-1, -2)
        x = x / (x[:, 0, 0] + x[:, 1, 1])[:, None, None]
    return s


class SpeedProbe:
    """Samples the kernel's time while started; clock is time.monotonic."""

    def __init__(self):
        self.ends: list[float] = []     # monotonic time each sample ended
        self.costs: list[float] = []    # kernel seconds of each sample

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_) -> None:
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the reference speed.

        Sample i covers (ends[i-1], ends[i]]; time before the first sample
        takes the first sample's speed, time after the last the last's.
        """
        if not self.ends:
            raise ValueError("speed probe has no samples")
        last = len(self.ends) - 1
        i = min(bisect.bisect_left(self.ends, t0), last)
        total, start = 0.0, t0
        while start < t1:
            end = t1 if i == last else min(self.ends[i], t1)
            total += (end - start) * REF_KERNEL_S / self.costs[i]
            start, i = end, i + 1
        return total

    def median_cost(self) -> float:
        return float(np.median(self.costs))
