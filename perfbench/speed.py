"""Times scaled to a fixed reference speed of the core they ran on.

On a shared host the speed of one core drifts by up to 2x over tens of
seconds (another tenant's load on the same physical core): a fixed loop
measured for 150 s ranged from 33 to 50 ms in 15-s windows, and the medians
of consecutive 10-replicate windows of ``replicates_small`` moved by the
same factor. The benchmark therefore runs on one core and times
:func:`probe`, a fixed pure-Python loop, on that core around and during
every measured call: a call's time is scaled by ``REFERENCE_S`` over the
median probe, giving the time the call would take on a core where the probe
takes 10 ms. Probes count CPU time of their own thread, so a probe sharing
the core with a child process is not charged for the child's time slices.
vamkit's time goes mostly to interpreter work, which the loop resembles; in
those 150 s the scaled replicate times spread 2.5 times less than the raw
ones. Raw wall times are recorded beside the scaled ones.
"""

from __future__ import annotations

import statistics
import threading
import time

REFERENCE_S = 0.010
INTERVAL_S = 0.5  # one loop (about 10 ms) per interval while a child runs
_ITERATIONS = 50_000


def _loop() -> float:
    started = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(_ITERATIONS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.thread_time() - started


def probe() -> float:
    """Median of three timings of the fixed loop, in CPU seconds."""
    return statistics.median(_loop() for _ in range(3))


def scaled(wall_s: float, probes: list[float]) -> float:
    """``wall_s`` at the reference speed, given the probes taken around it."""
    return wall_s * REFERENCE_S / statistics.median(probes)


class Monitor:
    """Probes before, during (every INTERVAL_S, in a thread) and after a block."""

    def __enter__(self) -> "Monitor":
        self.probes = [probe()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.probes.append(_loop())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.probes.append(probe())

    def scaled(self, wall_s: float) -> float:
        return scaled(wall_s, self.probes)
