"""Machine-speed reference for the benchmark's timings.

On a small virtual machine with shared cores the CPU speed changes by up
to 2x over tens of seconds, so a wall-clock time measured in a slow
stretch is not comparable with one measured in a fast stretch.  Each timed
interval is therefore rescaled by the time of a fixed pure-Python loop run
in the same process just before and/or just after it, to the speed at which
that loop takes REFERENCE_S.  The loop lives in the benchmark, so no change
to the package can move it.
"""

from __future__ import annotations

import time

REFERENCE_LOOPS = 200_000
REFERENCE_S = 0.02


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two reference timings, at reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
