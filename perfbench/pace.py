"""CPU-speed probe: puts measured times on the scale of a reference CPU.

The 2-vCPU virtual machines this benchmark was written on change speed
by up to a third within seconds and for minutes at a time, through
contention from other guests on the host, and every workload slows with
them. Medians within a run cannot remove phases that outlast the run,
so raw times spread between runs of the same code by about the 25 % that
a change may cost before it is rejected.

While a Probe is open, a thread wakes every PERIOD_S and times a fixed
pure-Python loop. worker.py pins its process to one CPU, so the probe
runs on the CPU the workload runs on, in the same moments: while the
workload holds the GIL, the probe waits for it; while the workload is in
C code that released the GIL (a sparse LU), the two share the CPU. The
loop takes REFERENCE_S on the reference CPU, and `factor` is REFERENCE_S
over the median loop time. A time measured under the probe, multiplied
by that factor, is the time the same work takes at the reference CPU's
speed. The probe runs no hetassoc code, so a change to the program moves
the adjusted time as much as the raw one.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.1
LOOP_ITERATIONS = 20_000
# median loop time in a calm phase of an Intel Xeon 2-vCPU VM, Python 3.11
REFERENCE_S = 1.4e-3
MIN_SAMPLES = 5


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


def pin_to_one_cpu() -> int:
    """Restrict this process to the highest-numbered CPU it may use."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Probe:
    """Context manager sampling the loop time in a background thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self) -> Probe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        # a region shorter than a few periods is judged by samples taken
        # right after it
        while len(self.samples) < MIN_SAMPLES:
            self._sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
