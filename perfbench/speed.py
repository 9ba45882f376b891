"""Machine-speed sampling for normalizing measured times.

Shared build machines change speed by 20-40 % from one second to the next
(other tenants on the same cores), which swamps the differences a change to
the program makes.  While a measured call runs, SIGALRM fires every
PERIOD_S and the handler times a tiny fixed kernel that does not touch the
program.  The call's time, less the time spent in the kernel, is scaled by
NOMINAL_S over the mean kernel time: it reads as the time the call would
take on the machine at the speed where the kernel takes NOMINAL_S.  The
kernel mixes what the program spends its time on, scalar float recurrences
in the interpreter and numpy arithmetic on grids of a few hundred points.
The sampling adds well under 1 % to every measured call, on every commit alike.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# kernel time on an unloaded 2-core Xeon build box
NOMINAL_S = 8.5e-5

_GRID = np.linspace(0.1, 0.9, 200)


def _kernel() -> float:
    t = 0.0
    for j in range(300):
        t = 0.25 / (1.5 + j - t)
    a = _GRID
    for _ in range(10):
        a = np.sqrt(a * a + 1e-3)
    return t + float(a[0])


class Sampler:
    """Times calls and the machine's speed while they run (main thread only)."""

    def __init__(self):
        self._samples = []

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - start)

    def run(self, fn, *args):
        """(fn(*args), seconds spent outside the sampler, speed factor).

        Multiply a time measured during the call by the factor to normalize it.
        """
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - sum(self._samples)
        if not self._samples:
            self._tick()
        return result, own, NOMINAL_S / statistics.fmean(self._samples)
