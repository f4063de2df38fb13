"""The host-speed reference that every end-to-end time is scaled by.

The benchmark's host is a shared VM whose speed drifts in phases of
minutes: the same code, seed and build read latencies up to 3.5x apart
from one run to the next. A fixed reference computation, run in short
blocks interleaved with the traffic throughout a run, slows down with
the host and not with the code under test — it is the benchmark's own
code, pure Python, and touches nothing of ``repro``. Each end-to-end
time is reported at the reference speed::

    reported = measured * NOMINAL_MS / (median reference call, in ms)

so a run in a phase where the host is twice as slow reads about what a
fast-phase run reads, while a change that makes the server slower still
moves the reported numbers by its own factor. Where a workload's
latencies follow the host more steeply than the reference does, its
record gives the measured ``latency_elasticity`` ``e`` and its
latencies are scaled by ``(NOMINAL_MS / median) ** e`` instead. The raw
times and the reference median are stored in the run record beside
them.

The kernel is the kind of work the server does: Fagin's algorithm for
the top 10 under ``min`` over three seeded lists, with dict lookups,
a heap and a JSON round trip of the answer.
"""

from __future__ import annotations

import heapq
import json
import random
import statistics
import time

__all__ = ["NOMINAL_MS", "Reference"]

#: The reference call's time on the host the scaled times are quoted
#: for: a round constant, not a measurement (on the 2-vCPU Intel Xeon VM
#: of the steadiness record, with CPython 3.11, a call took 10-20 ms).
NOMINAL_MS = 5.0

_SEED = 20_240_601
_N = 20_000
_M = 3
_K = 10
_CALLS_PER_BLOCK = 2


class Reference:
    """Interleaved timings of a fixed top-k computation."""

    def __init__(self) -> None:
        rng = random.Random(_SEED)
        grades = [[rng.random() for _ in range(_N)] for _ in range(_M)]
        self._grades = [dict(enumerate(g)) for g in grades]
        self._lists = [
            sorted(range(_N), key=g.__getitem__, reverse=True) for g in grades
        ]
        self._expected = self._call()
        self.times_ms: list[float] = []

    def _call(self) -> list:
        seen: dict[int, int] = {}
        matched = depth = 0
        while matched < _K:
            for ranked in self._lists:
                obj = ranked[depth]
                count = seen.get(obj, 0) + 1
                seen[obj] = count
                if count == _M:
                    matched += 1
            depth += 1
        top: list[tuple[float, int]] = []
        for obj in seen:
            grade = min(g[obj] for g in self._grades)
            if len(top) < _K:
                heapq.heappush(top, (grade, obj))
            elif grade > top[0][0]:
                heapq.heapreplace(top, (grade, obj))
        answer = [{"obj": obj, "grade": grade} for grade, obj in sorted(top)]
        return json.loads(json.dumps(answer))

    def block(self) -> None:
        """Time a few calls; each must give the same answer."""
        for _ in range(_CALLS_PER_BLOCK):
            start = time.perf_counter()
            answer = self._call()
            self.times_ms.append((time.perf_counter() - start) * 1e3)
            if answer != self._expected:
                raise RuntimeError("the reference computation changed its answer")

    def median_ms(self) -> float:
        if not self.times_ms:
            raise RuntimeError("the reference was never timed")
        return statistics.median(self.times_ms)

    def scale(self, elasticity: float = 1.0) -> float:
        """The factor that turns a measured time into one at reference speed.

        ``elasticity`` is how steeply the measured time follows the
        host's speed: 1 when it slows in proportion to the reference.
        """
        return (NOMINAL_MS / self.median_ms()) ** elasticity
