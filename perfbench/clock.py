"""Elapsed time at the machine's reference speed.

On a shared machine the CPU speed one process gets drifts by up to a
factor of two within seconds, and time spent on the same work drifts with
it. The reference clock follows the drift. While it runs, a SIGALRM
handler times a fixed kernel of small-array numpy calls, the kind of work
the samplers do, every PERIOD_S. Each stretch between two of these is
scaled by REFERENCE_S over the median of the last three kernel times
measured before it, and the kernel's own time is left out. So a
reference second is the time the work would take at the speed at which
the kernel runs in REFERENCE_S, its speed on an idle core of the machine
the constant was set on.

The handler runs between bytecodes of the main thread, so a native call
that takes longer than PERIOD_S only lengthens one stretch. Importing
this module imports numpy, so numpy's import is not part of what the
clock times afterwards.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
REFERENCE_S = 1.07e-4  # kernel time on an idle core: x86-64, CPython 3.11, numpy 2.4
_KERNEL_INPUT = np.ones(100, dtype=complex)


def _kernel() -> np.ndarray:
    a = _KERNEL_INPUT
    for _ in range(30):
        a = np.exp(a * 1e-9) * 1.0000001
    return a


class ReferenceClock:
    """Context manager; now() reads reference seconds since entry."""

    def __init__(self):
        self._recent: list[float] = []
        self._factor = 1.0
        self._total = 0.0
        self._mark = 0.0
        self._wall_start = 0.0
        self._ticks = 0

    def _measure(self) -> float:
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._recent = (self._recent + [end - start])[-3:]
        self._factor = REFERENCE_S / statistics.median(self._recent)
        return start

    def _tick(self, signum, frame) -> None:
        factor = self._factor
        start = self._measure()
        self._total += (start - self._mark) * factor
        self._mark = time.perf_counter()
        self._ticks += 1

    def __enter__(self) -> "ReferenceClock":
        self._measure()
        self._total = 0.0
        self._mark = self._wall_start = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:  # retry if a tick ran between the reads
            ticks = self._ticks
            value = self._total + (time.perf_counter() - self._mark) * self._factor
            if ticks == self._ticks:
                return value

    def speed(self) -> float:
        """Reference seconds per wall second since entry."""
        return self.now() / (time.perf_counter() - self._wall_start)
