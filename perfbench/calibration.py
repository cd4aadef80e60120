"""Host-speed calibration of the timed operations.

A shared host changes speed over seconds to minutes (other tenants, clock
frequency): the same operation can take 1.5 times as long a minute later.
A fixed kernel of the kinds of work the program does (small numpy calls in
an interpreted loop, 8 x 8 eigenvalues, BLAS matrix products, interpreted
arithmetic) is timed between operations all through a run.  An operation's
CPU time is scaled by NOMINAL_S over the median of the NEAREST kernel
samples to its midpoint, which gives its time on a nominal host where the
kernel takes NOMINAL_S.  CPU time leaves out time the process waited for a
processor.  The kernel is benchmark code, so a change to the program cannot
move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

INTERVAL_S = 0.25  # a kernel sample at least this often
NEAREST = 9        # an operation is scaled by this many samples nearest to it
NOMINAL_S = 2.5e-3  # kernel time on the nominal host the scaled times refer to

_rng = np.random.default_rng(12345)
_SMALL = _rng.uniform(-1.0, 1.0, (8, 8))
_LARGE = _rng.uniform(-1.0, 1.0, (160, 160)) / 160.0


def kernel() -> float:
    """A fixed amount of mixed work; returns a value so nothing is skipped."""
    v = np.ones(8)
    acc = 0.0
    for _ in range(150):
        v = _SMALL @ v
        v /= np.abs(v).max()
        acc += float(v[0])
    for _ in range(8):
        acc += float(np.linalg.eigvals(_SMALL).real.max())
    big = _LARGE
    for _ in range(4):
        big = big @ _LARGE
    acc += float(big[0, 0])
    total = 0
    for k in range(3000):
        total += k * k % 7
    return acc + total


class Calibrator:
    def __init__(self) -> None:
        self.times: list[float] = []    # sample start times, increasing
        self.seconds: list[float] = []  # kernel durations

    def sample(self) -> None:
        at = time.perf_counter()
        c0 = time.process_time()
        kernel()
        self.seconds.append(time.process_time() - c0)
        self.times.append(at)

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= INTERVAL_S

    def scale(self, at: float) -> float:
        """NOMINAL_S over the median of the NEAREST samples to time ``at``."""
        times = self.times
        lo = hi = bisect.bisect_left(times, at)
        while hi - lo < NEAREST and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and at - times[lo - 1] <= times[hi] - at):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])

    def overall_scale(self) -> float:
        """NOMINAL_S over the median of every sample so far."""
        return NOMINAL_S / statistics.median(self.seconds)

    def median_s(self) -> float:
        return statistics.median(self.seconds)
