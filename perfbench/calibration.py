"""Machine-speed calibration.

On a shared machine the speed of one core drifts by up to 2x within
seconds and between minutes, which swamps the differences the benchmark
must resolve. While a run measures, a timer signal therefore interrupts it
every ``PERIOD_S`` to time a fixed calibration kernel for ``WINDOW_S``,
and each request's time is also reported at the reference speed:
``raw * REFERENCE_UNIT_S / unit``, where ``unit`` is the kernel's time per
repetition: the median over the samples taken from ``MARGIN_S`` before the
request started to ``MARGIN_S`` after it ended, each sample itself the
median over its repetitions. Medians, because the machine also stalls for
tens of milliseconds now and then: a stall costs a long request a fraction
of a percent but multiplies the one 4 ms sample it hits, and a mean over
a hundred samples would move by 10% for it. The time spent in the kernel
is subtracted from the request it interrupted.

The kernel mixes small NumPy operations on a 1001-point grid (a
Bernstein-style triangular recurrence) with plain Python integer
arithmetic, like the program's own checks. It calls nothing in the
program, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

#: Kernel time per repetition that defines the reference speed (about the
#: median on a shared 2-core x86-64 sandbox, CPython 3.11, NumPy 2.4).
REFERENCE_UNIT_S = 5.0e-4

#: Minimum wall time of one calibration measurement, and the wall time
#: between two measurements during a run (2% of the run).
WINDOW_S = 0.004
PERIOD_S = 0.2

#: Samples this long before and after a request also describe its speed.
MARGIN_S = 1.0

_GRID = np.linspace(0.0, 1.0, 1001)


def _kernel() -> int:
    # A triangular recurrence on the grid, as in the program's basis
    # evaluation, then plain interpreter work.
    xs = _GRID
    row = [np.ones_like(xs)]
    for nu in range(1, 12):
        nxt = [(1.0 - xs) * row[0]]
        for j in range(1, nu):
            nxt.append((1.0 - xs) * row[j] + xs * row[j - 1])
        nxt.append(xs * row[-1])
        row = nxt
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return acc


def unit_seconds(window_s: float = WINDOW_S) -> float:
    """Median wall time of one kernel repetition over at least ``window_s``.

    The garbage collector is paused meanwhile: the kernel makes no cycles,
    and a collection would scan the interrupted program's objects, tying
    the kernel's time to the program's state instead of the machine's.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = last = time.perf_counter()
        reps = []
        while last - start < window_s:
            _kernel()
            now = time.perf_counter()
            reps.append(now - last)
            last = now
        return statistics.median(reps)
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(raw_s: float, unit_s: float) -> float:
    """``raw_s`` rescaled to the reference machine speed."""
    return raw_s * REFERENCE_UNIT_S / unit_s


class SpeedSampler:
    """Context manager that samples the kernel on a ``SIGALRM`` timer.

    ``busy_s`` is the total time spent sampling; callers subtract its
    growth over a timed call from that call's wall time.
    """

    def __init__(self, period_s: float = PERIOD_S, window_s: float = WINDOW_S):
        self.period_s = period_s
        self.window_s = window_s
        self.units: list[float] = []
        self.times: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self) -> None:
        self.times.append(time.perf_counter())
        self.units.append(unit_seconds(self.window_s))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def unit_s(self, start: float | None = None, end: float | None = None) -> float:
        """Median kernel time over the whole run, or over the samples from
        ``MARGIN_S`` before ``start`` to ``MARGIN_S`` after ``end``."""
        if start is None:
            return statistics.median(self.units)
        near = [u for t, u in zip(self.times, self.units)
                if start - MARGIN_S <= t <= end + MARGIN_S]
        return statistics.median(near or self.units)
