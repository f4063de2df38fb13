"""Partitioning a columnar store into shared-memory shards.

**The partitioning invariant.** Shards split the *object* axis, never
the list axis: shard ``s`` receives a contiguous slice of the interned
object range, carrying all m grade columns restricted to that slice.
Because :func:`~repro.access.columnar.rank_orders` sorts by the total
order ``(-grade, tie_break_key)``, a shard's local rank order is
exactly the restriction of the global order to its objects — so a
shard is itself a complete, self-consistent
:class:`~repro.access.columnar.ColumnarScoringDatabase` over its
sub-population, and any exact top-k algorithm run against it returns
the true local top-k with the same tie-break the global store uses.
That is the property the threshold-exchange merge builds on.

**Segment layout.** One segment per shard::

    [0:8)                    little-endian uint64 L = len(header)
    [8:8+L)                  pickled header dict (objects, dims, offsets)
    [columns_offset: +8mn)   m x n float64 grade columns, C order
    [orders_offset:  +8mn)   m x n int64 rank permutations, C order

Both array blocks are 64-byte aligned. The header carries the object
ids (pickled — ids are arbitrary hashables), the dimensions, and the
two offsets, so attaching is self-describing: a worker needs only the
``(backend, name, size)`` token.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass

import numpy as np

from repro.access.columnar import ColumnarScoringDatabase, rank_orders
from repro.exceptions import ShardingError
from repro.sharding.shm import attach_segment, create_segment

__all__ = ["ShardSpec", "attach_store", "partition_columnar", "shard_bounds"]

_ALIGN = 64


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """The picklable description of one shard a worker can attach."""

    index: int
    token: tuple
    num_objects: int
    num_lists: int


def shard_bounds(num_objects: int, num_shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, end)`` slices of the object range.

    Sizes differ by at most one (the first ``N mod S`` shards take the
    extra object), every shard is non-empty, and the slices cover the
    range exactly — the partitioning invariant's arithmetic half.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    if num_shards > num_objects:
        raise ValueError(
            f"cannot split {num_objects} objects into {num_shards} "
            "non-empty shards"
        )
    base, extra = divmod(num_objects, num_shards)
    bounds = []
    start = 0
    for s in range(num_shards):
        end = start + base + (1 if s < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def partition_columnar(
    store: ColumnarScoringDatabase,
    num_shards: int,
    *,
    backend: str | None = None,
) -> tuple[list[ShardSpec], list]:
    """Split ``store`` into shards backed by owned segments.

    Returns ``(specs, segments)``: the picklable specs workers attach
    from, and the segment handles the **caller now owns** — it must
    ``close()`` and ``unlink()`` each when done (ShardedEngine does
    this in :meth:`~repro.sharding.engine.ShardedEngine.close`).
    """
    bounds = shard_bounds(store.num_objects, num_shards)
    objects = store.interned_objects
    matrix = store.grades_matrix()  # (m, N) float64, ground truth
    m = store.num_lists

    specs: list[ShardSpec] = []
    segments: list = []
    try:
        for s, (start, end) in enumerate(bounds):
            shard_objects = objects[start:end]
            shard_matrix = np.ascontiguousarray(matrix[:, start:end])
            n = end - start
            orders = rank_orders(shard_objects, list(shard_matrix))

            header_probe = pickle.dumps(
                {
                    "objects": shard_objects,
                    "num_lists": m,
                    "num_objects": n,
                    "columns_offset": 0,
                    "orders_offset": 0,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            # Offsets depend on the header length; re-pickling with the
            # real offsets keeps the length stable because the ints
            # occupy fixed-width pickle frames only past 2**31 — guard
            # by padding the probe, not by assuming.
            columns_offset = _aligned(8 + len(header_probe) + 64)
            orders_offset = _aligned(columns_offset + 8 * m * n)
            total = orders_offset + 8 * m * n
            header = pickle.dumps(
                {
                    "objects": shard_objects,
                    "num_lists": m,
                    "num_objects": n,
                    "columns_offset": columns_offset,
                    "orders_offset": orders_offset,
                },
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if 8 + len(header) > columns_offset:  # pragma: no cover
                raise ShardingError("shard header overflowed its slack")

            segment = create_segment(total, prefer=backend)
            segments.append(segment)
            buf = segment.buf
            buf[0:8] = struct.pack("<Q", len(header))
            buf[8 : 8 + len(header)] = header
            columns_view = np.frombuffer(
                buf, dtype=np.float64, count=m * n, offset=columns_offset
            ).reshape(m, n)
            columns_view[:] = shard_matrix
            orders_view = np.frombuffer(
                buf, dtype=np.int64, count=m * n, offset=orders_offset
            ).reshape(m, n)
            for i, order in enumerate(orders):
                orders_view[i] = order
            # Drop the writing views before returning so the owner's
            # later close() is not pinned by leftover exports.
            del columns_view, orders_view, buf

            specs.append(
                ShardSpec(
                    index=s,
                    token=segment.token(),
                    num_objects=n,
                    num_lists=m,
                )
            )
    except BaseException:
        for segment in segments:
            segment.close()
            segment.unlink()
        raise
    return specs, segments


def attach_store(spec: ShardSpec):
    """Attach a shard and wrap it as a columnar store (worker side).

    Returns ``(segment, store)``. The store's columns and orders are
    zero-copy views over the segment buffer; the caller must keep the
    segment handle alive as long as the store is used and ``close()``
    it afterwards. No grades are re-validated and no orders recomputed
    — attach is O(m) plus the header unpickle.
    """
    segment = attach_segment(spec.token)
    try:
        buf = segment.buf
        (header_len,) = struct.unpack("<Q", bytes(buf[0:8]))
        header = pickle.loads(bytes(buf[8 : 8 + header_len]))
        m = header["num_lists"]
        n = header["num_objects"]
        columns = np.frombuffer(
            buf,
            dtype=np.float64,
            count=m * n,
            offset=header["columns_offset"],
        ).reshape(m, n)
        orders = np.frombuffer(
            buf,
            dtype=np.int64,
            count=m * n,
            offset=header["orders_offset"],
        ).reshape(m, n)
        store = ColumnarScoringDatabase.from_frozen_arrays(
            header["objects"],
            [columns[i] for i in range(m)],
            [orders[i] for i in range(m)],
        )
    except ShardingError:
        segment.close()
        raise
    except Exception as exc:
        segment.close()
        raise ShardingError(
            f"could not attach shard {spec.index} from segment "
            f"{spec.token[1]!r}: {exc}"
        ) from exc
    return segment, store
