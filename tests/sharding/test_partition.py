"""Partitioning invariants: contiguous object split, local order =
restriction of the global order, self-describing attach, backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.tnorms import MINIMUM
from repro.exceptions import ShardingError
from repro.sharding.partition import (
    ShardSpec,
    attach_store,
    partition_columnar,
    shard_bounds,
)
from repro.workloads.skeletons import independent_database


def columnar(m=3, n=120, seed=5) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(m, n, seed=seed)
    )


def read_attached(spec, fn):
    """Attach ``spec``, apply ``fn`` to the store, detach cleanly.

    ``fn`` must return plain data: the store's columns are views into
    the segment, and the segment can only close once every view is
    dropped (hence the ``del`` before ``close``).
    """
    segment, store = attach_store(spec)
    try:
        return fn(store)
    finally:
        del store
        segment.close()


class TestShardBounds:
    def test_balanced_cover(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_exact_division(self):
        assert shard_bounds(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_single_shard_is_identity(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_every_shard_nonempty(self):
        for n in range(1, 20):
            for s in range(1, n + 1):
                bounds = shard_bounds(n, s)
                assert all(end > start for start, end in bounds)
                assert bounds[0][0] == 0 and bounds[-1][1] == n

    def test_more_shards_than_objects_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            shard_bounds(3, 4)

    def test_zero_shards_refused(self):
        with pytest.raises(ValueError, match="at least one"):
            shard_bounds(3, 0)


class TestPartitionInvariant:
    def test_shards_cover_objects_contiguously(self):
        store = columnar()
        specs, segments = partition_columnar(store, 4)
        try:
            rebuilt = []
            for spec in specs:
                rebuilt.extend(
                    read_attached(spec, lambda s: list(s.interned_objects))
                )
            assert rebuilt == list(store.interned_objects)
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_shard_grades_match_global_store(self):
        store = columnar(m=2, n=50, seed=9)
        specs, segments = partition_columnar(store, 3)
        try:
            matrix = store.grades_matrix()
            offset = 0
            for spec in specs:
                shard_matrix = read_attached(
                    spec, lambda s: s.grades_matrix().copy()
                )
                np.testing.assert_array_equal(
                    shard_matrix,
                    matrix[:, offset : offset + spec.num_objects],
                )
                offset += spec.num_objects
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_local_order_is_restriction_of_global(self):
        """Shard s's ranking of list i equals the global ranking of
        list i filtered down to shard s's objects — the property the
        merge's local-exactness argument needs."""
        store = columnar(m=3, n=80, seed=2)
        specs, segments = partition_columnar(store, 3)
        try:
            for i in range(store.num_lists):
                global_ranking = [
                    item.obj for item in store.ranking(i)
                ]
                for spec in specs:
                    members, local = read_attached(
                        spec,
                        lambda s, i=i: (
                            set(s.interned_objects),
                            [item.obj for item in s.ranking(i)],
                        ),
                    )
                    expected = [
                        obj for obj in global_ranking if obj in members
                    ]
                    assert local == expected
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_attached_shard_answers_its_local_top_k(self):
        from repro.algorithms.threshold import ThresholdAlgorithm

        store = columnar(m=2, n=60, seed=4)
        specs, segments = partition_columnar(store, 2)
        try:

            def probe(shard):
                result = ThresholdAlgorithm().top_k(
                    shard.session(), MINIMUM, 5
                )
                # Brute-force the local truth from the shard's columns.
                truth = sorted(
                    (
                        (min(shard.grade(i, o) for i in range(2)), o)
                        for o in shard.interned_objects
                    ),
                    key=lambda pair: (-pair[0], str(pair[1])),
                )[:5]
                return [it.grade for it in result.items], [
                    g for g, _ in truth
                ]

            got, want = read_attached(specs[0], probe)
            assert got == want
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()


class TestBackends:
    def test_mmap_backend_round_trips(self):
        store = columnar(m=2, n=40, seed=7)
        specs, segments = partition_columnar(store, 2, backend="mmap")
        try:
            assert all(spec.token[0] == "mmap" for spec in specs)
            count, objects = read_attached(
                specs[1],
                lambda s: (s.num_objects, list(s.interned_objects)),
            )
            assert count == specs[1].num_objects
            assert objects == list(store.interned_objects)[
                specs[0].num_objects :
            ]
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_specs_are_picklable(self):
        import pickle

        store = columnar(m=2, n=30, seed=1)
        specs, segments = partition_columnar(store, 2)
        try:
            for spec in specs:
                clone = pickle.loads(pickle.dumps(spec))
                assert clone == spec
                assert isinstance(clone, ShardSpec)
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()

    def test_unknown_backend_refused(self):
        store = columnar(m=2, n=30, seed=1)
        with pytest.raises(ValueError, match="unknown segment backend"):
            partition_columnar(store, 2, backend="nvram")

    def test_attach_after_unlink_is_a_sharding_error(self):
        store = columnar(m=2, n=30, seed=1)
        specs, segments = partition_columnar(store, 2)
        for segment in segments:
            segment.close()
            segment.unlink()
        with pytest.raises(ShardingError, match="does not exist"):
            attach_store(specs[0])

    def test_too_many_shards_refused(self):
        store = columnar(m=2, n=5, seed=1)
        with pytest.raises(ValueError):
            partition_columnar(store, 6)
