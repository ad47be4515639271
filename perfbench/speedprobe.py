"""Convert measured durations to seconds at a fixed reference CPU speed.

On a machine shared with other tenants this process's CPU speed drifts by
tens of percent within seconds and between runs, far more than the
differences the benchmark has to resolve, and back-to-back passes of one
workload differ as much as separate runs.  So the speed is sampled while
the program runs: while a ``SpeedProbe`` is open, a ``SIGALRM`` handler
times a fixed kernel every ``INTERVAL_S`` seconds.  The kernel does the
same kind of work as the workload, with the frozen copy of the package in
``stargen_ref``, so it slows down as the workload does, and it never
changes when the program under test does.

A duration measured over ``[start, end]`` is converted by subtracting the
handler's own time and multiplying by ``(reference_s / k) ** sensitivity``,
where ``k`` is the median kernel time in a window of ``WINDOW_S`` around
the interval.  ``reference_s`` is the kernel's typical time on the machine
that recorded ``baseline.json``, so converted times read as seconds there.
``sensitivity`` is how strongly the workload's time follows the kernel's:
the slope of log workload time on log kernel time over matching pieces of
work at different moments, fitted on that machine.  The factor depends only
on the machine's state, never on the program, so a faster program lowers
the converted time in proportion while a busier machine changes it little.

The handler runs in the main thread between bytecodes, so it preempts the
program without touching its state.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable

INTERVAL_S = 0.2
WINDOW_S = 1.0


class SpeedProbe:
    def __init__(self, kernel: Callable[[], object], reference_s: float, sensitivity: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.sensitivity = sensitivity
        self.times: list[float] = []  # handler start times, increasing
        self.durations: list[float] = []  # kernel time per sample
        self.busy = [0.0]  # busy[i]: handler time of samples before i

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        self.busy.append(self.busy[-1] + time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):  # so even a very short run has samples
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds the program ran between two ``perf_counter`` readings.

        A handler that starts inside the interval also ends inside it,
        because the reading at ``end`` waits for it.
        """
        inside = self.busy[bisect.bisect_left(self.times, end)] - self.busy[
            bisect.bisect_left(self.times, start)
        ]
        return (end - start - inside) * self.scale(start, end)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second around ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        kernel_s = statistics.median(self.durations[lo:hi] or self.durations)
        return (self.reference_s / kernel_s) ** self.sensitivity
