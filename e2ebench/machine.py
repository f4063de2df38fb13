"""The machine record stored next to every run.

A fixed calibration workload — a pure-Python loop and a numpy sort —
is timed before and after each run's measurement, so a later reader
can tell a slower host from slower code. The calibration is recorded
only; no metric is rescaled by it.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

__all__ = ["calibration", "machine_record"]


def _python_loop() -> int:
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
    return total


def _numpy_sort() -> float:
    values = np.random.default_rng(12345).random(200_000)
    return float(np.sort(values)[100_000])


def _best_of(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def calibration() -> dict:
    """Best-of-five times of the fixed loops, and the load average."""
    return {
        "python_ms": _best_of(_python_loop) * 1e3,
        "numpy_ms": _best_of(_numpy_sort) * 1e3,
        "loadavg_1m": os.getloadavg()[0],
    }


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_before": calibration(),
    }

