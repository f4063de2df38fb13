"""Traffic: closed- and open-loop load over keep-alive connections.

A closed loop sends its next request when the previous one completes
and times it from the send. The open loop dispatches item ``i`` at
``t0 + i / rate`` over a fixed set of connections, whether or not the
server keeps up, and times every request from when it was due, so a
stall also charges the requests queued behind it; how late the sender
ran is recorded beside it.

Both loops can interleave blocks of the host-speed reference
(``reference.py``) with the traffic, so the reference sees the same
phases of the host as the requests do.

Requests are only recorded inside the window; their answers are
parsed and checked against the oracle after it closes.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from server import Connection, TransportError
from workloads import Query

__all__ = ["Record", "by_kind", "check", "closed_loop", "open_loop", "summarise"]

#: Traffic between two blocks of the host-speed reference, in seconds.
REFERENCE_SLICE_S = 0.25

#: Requests a kind needs in the window to count as the slowest kind.
MIN_KIND_SAMPLES = 20


@dataclass
class Record:
    """One HTTP request the benchmark made."""

    seq: int  # index of the scheduled item the request belongs to
    query: Query
    step: str  # "query", or a cursor session's "open"/"next"/"close"
    status: int | None
    ready: float  # when it was due (open loop) or could have been sent
    sent: float
    done: float
    timed_from_ready: bool
    body: bytes | None = None
    error: str | None = None
    accesses: int | None = None

    @property
    def latency_ms(self) -> float:
        start = self.ready if self.timed_from_ready else self.sent
        return (self.done - start) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.ready) * 1e3

    @property
    def answer(self) -> bool:
        return self.step in ("query", "next")

    @property
    def ok(self) -> bool:
        return self.error is None and self.status in (200, 201)


def _send(conn, query, seq, step, method, path, body, ready, from_ready,
          records):
    sent = time.perf_counter()
    try:
        status, payload = conn.request(method, path, body)
        record = Record(seq, query, step, status, ready, sent,
                        time.perf_counter(), from_ready, payload)
        if status not in (200, 201):
            record.error = f"HTTP {status}"
    except TransportError as exc:
        record = Record(seq, query, step, None, ready, sent,
                        time.perf_counter(), from_ready, error=str(exc))
    records.append(record)
    return record


def run_item(conn: Connection, query: Query, seq: int, ready: float,
             records: list[Record], from_ready: bool = False) -> None:
    """Send one scheduled item, ready at ``ready``.

    Latency counts from ``ready`` when ``from_ready`` (the open loop's
    due time), else from the send. A cursor session's later steps are
    ready when the step before them completes.
    """
    if not query.pages:
        _send(conn, query, seq, "query", "POST", "/v1/query", query.body,
              ready, from_ready, records)
        return
    opened = _send(conn, query, seq, "open", "POST", "/v1/cursor",
                   query.body, ready, from_ready, records)
    if not opened.ok:
        return
    cursor = json.loads(opened.body)["cursor_id"]
    last = opened
    for _ in range(query.pages):
        last = _send(conn, query, seq, "next", "GET",
                     f"/v1/cursor/{cursor}/next", None, last.done, from_ready,
                     records)
        if not last.ok:
            break
    _send(conn, query, seq, "close", "DELETE", f"/v1/cursor/{cursor}", None,
          last.done, from_ready, records)


def closed_loop(conn: Connection, stream: Iterator[Query], seconds: float,
                min_items: int, first_seq: int = 0,
                reference=None) -> tuple[list[Record], float]:
    """Run until ``seconds`` have passed and ``min_items`` were sent.

    With a ``reference``, a block of it runs after every
    ``REFERENCE_SLICE_S`` of traffic, between two requests. Returns the
    records and the window's length in seconds.
    """
    records: list[Record] = []
    start = previous = block_due = time.perf_counter()
    for count, query in enumerate(stream):
        now = time.perf_counter()
        if now - start >= seconds and count >= min_items:
            break
        if reference is not None and now >= block_due:
            reference.block()
            block_due = time.perf_counter() + REFERENCE_SLICE_S
            previous = time.perf_counter()
        # Closed loop: the request is ready when the previous one
        # ended, so late_ms is the client's own turnaround.
        run_item(conn, query, first_seq + count, previous, records)
        previous = records[-1].done
    return records, previous - start


def open_loop(port: int, queries: list[Query], rate: float, seconds: float,
              connections: int, first_seq: int = 0,
              reference=None) -> tuple[list[Record], float]:
    """Dispatch the queries at ``rate`` items per second for ``seconds``.

    The window is cut into slices of ``REFERENCE_SLICE_S`` (one slice
    without a ``reference``). In each, item ``i`` of the slice is due
    at ``slice start + i / rate``; each of ``connections`` threads owns
    one keep-alive connection for the whole window and takes the next
    due item when it is free. Between slices, once every request of the
    slice has completed, a block of the reference runs. Returns the
    records and the window's length (to the last completion).
    """
    records: list[Record] = []
    lock = threading.Lock()
    conns = [Connection(port) for _ in range(connections)]
    window_start = time.perf_counter()
    slice_s = REFERENCE_SLICE_S if reference is not None else seconds
    per_slice = max(1, round(slice_s * rate))
    total = min(len(queries), int(seconds * rate))
    try:
        for first in range(0, total, per_slice):
            last = min(first + per_slice, total)
            counter = itertools.count(first)
            start = time.perf_counter() + 0.002

            def worker(conn: Connection) -> None:
                local: list[Record] = []
                try:
                    while True:
                        with lock:
                            i = next(counter)
                        if i >= last:
                            break
                        due = start + (i - first) / rate
                        pause = due - time.perf_counter()
                        if pause > 0:
                            time.sleep(pause)
                        run_item(conn, queries[i], first_seq + i, due, local,
                                 from_ready=True)
                finally:
                    with lock:
                        records.extend(local)

            threads = [threading.Thread(target=worker, args=(conn,))
                       for conn in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if reference is not None:
                reference.block()
    finally:
        for conn in conns:
            conn.close()
    records.sort(key=lambda r: (r.seq, r.sent))
    end = max((r.done for r in records), default=window_start)
    return records, end - window_start


def check(records: Iterable[Record], oracle) -> int:
    """Parse every answer and check it; returns the number found wrong.

    A wrong answer is marked as a failed request. A cursor page is
    checked as the top-(pages so far) answer of its session.
    """
    wrong = 0
    sessions: dict[int, list[dict]] = {}
    for record in records:
        if not (record.answer and record.ok):
            continue
        payload = json.loads(record.body)
        items = payload["items"]
        stats = payload["stats"]
        record.accesses = stats["sorted"] + stats["random"]
        if record.step == "next":
            items = sessions.setdefault(record.seq, []) + items
            sessions[record.seq] = items
        reason = oracle.check(record.query, items)
        if reason is not None:
            record.error = f"wrong answer to {record.query.label}: {reason}"
            wrong += 1
    return wrong


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def by_kind(records: list[Record]) -> dict[str, list[float]]:
    """Latencies of the successful requests, by query label and step."""
    groups: dict[str, list[float]] = {}
    for r in records:
        if r.ok:
            groups.setdefault(f"{r.query.label}/{r.step}", []).append(r.latency_ms)
    return groups


def summarise(records: list[Record], window_s: float, accounted: int,
              scale: float) -> dict:
    """The end-to-end metrics of one window (setup and RSS aside).

    Latencies are multiplied by ``scale``, the host-speed reference's
    factor; the raw ones are returned beside them. The slowest kind is
    the label and step with the highest median among those with at
    least ``MIN_KIND_SAMPLES`` requests.
    """
    ok = [r for r in records if r.ok]
    answers = [r for r in ok if r.answer]
    counted = [r.accesses for r in answers if r.seq < accounted]
    if len(counted) == 0:
        raise RuntimeError("no accounted answer completed in the window")
    latencies = [r.latency_ms for r in ok]
    p50 = statistics.median(latencies)
    slowest = max(
        statistics.median(v) for v in by_kind(ok).values()
        if len(v) >= MIN_KIND_SAMPLES
    )
    return {
        "latency_p50_ms": p50 * scale,
        "slowest_kind_p50_ms": slowest * scale,
        "accesses_per_query": sum(counted) / len(counted),
        "success_rate": len(ok) / len(records),
        "raw": {
            "throughput_qps": len(answers) / window_s,
            "latency_p50_ms": p50,
            "slowest_kind_p50_ms": slowest,
            "latency_p95_ms": percentile(latencies, 95),
        },
    }
