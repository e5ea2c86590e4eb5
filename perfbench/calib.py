"""Host-speed calibration, so that timings do not follow the host's load.

On a shared host the same work runs up to 2x slower for seconds to minutes
at a time, because other tenants load the same cores, caches and memory.  No
run the benchmark can afford averages that out.  Instead a fixed kernel
independent of topowalk (small matrix products, then a 4 MiB numpy pass that
overflows L2) is timed every INTERVAL_S while a pass runs, and around every
interpreter start.  Its mean time against REF_S gives the host's speed over
what was timed, which is then reported at the reference speed:

    scaled = (clock time - time spent in the kernel) * REF_S / mean(kernel time)

The samples take about 6% of a pass's clock time, which is subtracted.  The
mean, not the median, because the host's slow spells hit some samples and
not others.  A change to topowalk moves the clock time and leaves the
kernel alone, so it shows in the scaled time in full.  The clock's own times
are reported too.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 0.006  # kernel time at the reference host speed
INTERVAL_S = 0.1
SETUP_SAMPLES = 10  # samples before each interpreter start and after its set-up
_M = np.random.default_rng(0).standard_normal((32, 32))
_X = np.linspace(0.0, 1.0, 1 << 19)
_Y = np.empty_like(_X)


def kernel_s() -> float:
    """Seconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter()
    m = _M
    for _ in range(10):
        m = np.tanh(m @ _M * 0.01)
    np.sin(_X, out=_Y)
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Host speed against the reference (below 1: slower), from kernel times."""
    return REF_S / statistics.fmean(samples)


class Sampler:
    """Kernel times taken every INTERVAL_S between start and stop.

    The samples run on SIGALRM.  Python runs the handler between bytecodes,
    so a long numpy call delays a sample but is never cut.  A sample is also
    taken at start and at stop, so a short pass has at least two; ``busy_s``
    counts only those in between, which fall inside the timed interval.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        dt = kernel_s()
        self.samples.append(dt)
        self.busy_s += dt

    def start(self):
        self.samples, self.busy_s = [kernel_s()], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel_s())

    def speed(self) -> float:
        return speed(self.samples)
