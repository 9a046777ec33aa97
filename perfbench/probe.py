"""The host speed probe the benchmark scales its times by.

The host this benchmark was tuned on (2 vCPUs shared with other tenants)
runs any process up to 1.6x slower for seconds at a time, each CPU on its
own.  A fixed pure-Python loop timed just before and just after each timed
call reads that slowdown; the benchmark reports ``wall * NOMINAL_SECONDS /
mean(readings)``, the call's time at the speed where the loop takes
``NOMINAL_SECONDS``.  Across repeated runs of the same seeds this cut the
spread of per-trial times from 12-30% to about 2% on the serial sweeps and
9% on the process pool.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence

LOOPS = 5_000
#: The loop's time on that host when nothing else runs on the CPU.
NOMINAL_SECONDS = 500e-6


def speed_probe(every_cpu: bool = False) -> List[float]:
    """Seconds the loop takes; ``every_cpu`` runs it once pinned to each CPU
    this process may use (pool workers occupy all of them)."""
    cpus = sorted(os.sched_getaffinity(0)) if every_cpu and hasattr(os, "sched_setaffinity") else [None]
    readings = []
    for cpu in cpus:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        started = time.perf_counter()
        accumulator = 0
        for value in range(LOOPS):
            accumulator = (accumulator * 31 + value) & 0xFFFFFFFF
        readings.append(time.perf_counter() - started)
    if cpus != [None]:
        os.sched_setaffinity(0, cpus)
    return readings


def at_nominal_speed(seconds: float, readings: Sequence[float]) -> float:
    """``seconds`` measured while the probe read ``readings``, scaled to the
    nominal host speed."""
    return seconds * NOMINAL_SECONDS / statistics.fmean(readings)
