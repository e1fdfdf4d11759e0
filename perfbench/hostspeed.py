"""Host-speed sampling, to time ops on a host whose speed drifts.

On small shared virtual machines the speed of the CPU drifts by up to 1.7x,
between states that last from a fraction of a second to minutes.  A timer
signal runs a short fixed reference loop about every 20 ms in the benchmark's
own process (no thread and no process is added), and its duration gives
the host's speed at that moment.  An op's time is then scaled to the speed
at which the reference loop takes ``NOMINAL_S``:

    normalized = (wall - time spent sampling) * mean(NOMINAL_S / sample)

over the samples taken during the op, so a slow stretch in the middle of a
long op is seen as well as one at its ends.  The garbage collector is off
while the reference loop runs, so a collection of the program's garbage is
charged to the program, not to the host.
"""
from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.02
REFERENCE_ITERATIONS = 40
# About the reference loop's fastest time on a 2-vCPU Intel Xeon host.
NOMINAL_S = 0.00045
# Samples within this distance of an op also count, so short ops have some.
PAD_S = 0.1


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def reference_loop() -> None:
    """A fixed mix of the work sccckit does: small frozen dataclasses and
    their hashes, 4x4 array products and JSON encoding; no sccckit code."""
    acc = 0
    m = np.eye(4)
    for i in range(REFERENCE_ITERATIONS):
        acc += hash(_Node(_Node(i, 1), _Node(2, i))) & 1
        m = np.tanh(m @ m + 1.0)
        acc += len(json.dumps({"k": [i, i + 1]}))


class HostSpeed:
    """Samples host speed from a timer signal while used as a context manager."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self._starts.append(start)
        self._ends.append(end)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean host speed, relative to nominal, from samples near [start, end]."""
        lo = bisect.bisect_left(self._starts, start - PAD_S)
        hi = bisect.bisect_right(self._starts, end + PAD_S)
        if lo == hi:
            raise RuntimeError("no host-speed sample near the timed interval")
        return statistics.fmean(NOMINAL_S / (e - s) for s, e in
                                zip(self._starts[lo:hi], self._ends[lo:hi]))

    def normalized(self, start: float, end: float) -> float:
        """Seconds that [start, end] would take at the nominal host speed."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        sampling = sum(min(e, end) - s for s, e in
                       zip(self._starts[lo:hi], self._ends[lo:hi]))
        return (end - start - sampling) * self.speed(start, end)

    def median_sample_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self._starts, self._ends))
