"""The columnar store's depth index and block-capable sessions."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.access import ColumnarScoringDatabase
from repro.access import columnar
from repro.access.columnar import ColumnarSource, DepthIndex
from repro.exceptions import UnknownObjectError
from repro.workloads import independent_database


@pytest.fixture
def store():
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(3, 300, seed=4)
    )


def test_index_is_built_lazily_once_and_shared(store):
    assert store._depth_index is None
    first = store.session()
    assert store._depth_index is not None
    assert first.depth_index is store.depth_index()
    assert store.session().depth_index is first.depth_index


def test_index_reuses_the_frozen_store_arrays(store):
    index = store.depth_index()
    for i in range(store.num_lists):
        assert index.columns[i] is store._columns[i]
        assert np.shares_memory(index.orders[i], store._orders[i])
    assert index.ranks.dtype == np.int32


def test_every_index_array_is_read_only(store):
    index = store.depth_index()
    arrays = [
        *index.orders,
        index.ranks,
        index.match_depths,
        index.first_seen,
        index.first_depths,
        index.first_list,
    ]
    assert all(not arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError):
        index.ranks[0, 0] = 1


def test_index_positions_agree_with_the_rankings(store):
    index = store.depth_index()
    objects = store.interned_objects
    for i in range(store.num_lists):
        for rank, item in enumerate(store.ranking(i)):
            assert index.ranks[i][objects.index(item.obj)] == rank
    deepest = index.ranks.max(axis=0) + 1
    assert index.match_depths.tolist() == sorted(deepest.tolist())
    shallowest = index.ranks.min(axis=0) + 1
    assert index.first_depths.tolist() == sorted(shallowest.tolist())
    assert (shallowest[index.first_seen] == index.first_depths).all()
    for j in range(store.num_objects):
        column = index.ranks[:, j].tolist()
        assert index.first_list[j] == column.index(min(column))


def test_seen_and_match_counts_follow_the_prefixes(store):
    index = store.depth_index()
    for depth in (1, 7, 50, 300):
        prefixes = [
            {item.obj for item in store.ranking(i)[:depth]}
            for i in range(store.num_lists)
        ]
        assert index.seen_count(depth) == len(set.union(*prefixes))
        assert index.match_count(depth) == len(set.intersection(*prefixes))


def test_eight_threads_minting_first_sessions_build_the_index_once(
    monkeypatch, store
):
    builds = []
    barrier = threading.Barrier(8)

    class CountingIndex(DepthIndex):
        __slots__ = ()

        def __init__(self, *args):
            builds.append(threading.get_ident())
            super().__init__(*args)

    monkeypatch.setattr(columnar, "DepthIndex", CountingIndex)
    indexes = []

    def mint():
        barrier.wait(timeout=30)
        indexes.append(store.session().depth_index)

    threads = [threading.Thread(target=mint) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert len(indexes) == 8
    assert all(index is indexes[0] for index in indexes)


def test_frozen_array_stores_build_their_own_index(store):
    attached = ColumnarScoringDatabase.from_frozen_arrays(
        store.interned_objects, store._columns, store._orders
    )
    assert attached.depth_index() is not store.depth_index()
    assert (attached.depth_index().ranks == store.depth_index().ranks).all()


def test_block_reads_are_charged_like_unit_accesses(store):
    session = store.session()
    source = session.sources[1]
    ids, grades = source.sorted_access_block(5)
    assert source.position == 5
    ranking = store.ranking(1)[:5]
    objects = store.interned_objects
    assert [objects[j] for j in ids.tolist()] == [it.obj for it in ranking]
    assert grades.tolist() == [it.grade for it in ranking]
    looked_up = source.random_access_block(np.array([0, 2, 4]))
    assert looked_up.tolist() == [store.grade(1, objects[j]) for j in (0, 2, 4)]
    stats = session.tracker.snapshot()
    assert stats.sorted_by_list == (0, 5, 0)
    assert stats.random_by_list == (0, 3, 0)
    # The sequential protocol continues from the block's cursor.
    assert source.next_sorted() == store.ranking(1)[5]


def test_block_read_past_the_end_is_short(store):
    session = store.session()
    ids, grades = session.sources[0].sorted_access_block(10_000)
    assert len(ids) == len(grades) == store.num_objects
    assert session.tracker.snapshot().sorted_by_list[0] == store.num_objects
    assert len(session.sources[0].sorted_access_block(3)[0]) == 0


def test_columnar_sources_keep_the_sequential_protocol(store):
    source = store.session().sources[0]._inner
    assert isinstance(source, ColumnarSource)
    with pytest.raises(UnknownObjectError):
        source.random_access("no-such-object")
    with pytest.raises(ValueError):
        source.sorted_access_block(-1)
