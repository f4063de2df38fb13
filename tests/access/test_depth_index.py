"""The columnar store's depth index and block-capable sessions."""

from __future__ import annotations

import collections
import sys
import threading

import numpy as np
import pytest

from repro.access import ColumnarScoringDatabase
from repro.access import columnar
from repro.access.columnar import ColumnarSource, DepthIndex
from repro.algorithms.fa import FaginA0
from repro.algorithms.fa_min import FaginA0Min
from repro.algorithms.naive import NaiveAlgorithm
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core.tnorms import MINIMUM
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
        index.match_order,
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
    assert (deepest[index.match_order] == index.match_depths).all()
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


# ----------------------------------------------------------------------
# Sessions cost only their arrays until a sequential call
# ----------------------------------------------------------------------


@pytest.fixture
def build_counts(monkeypatch):
    """Counts the store's ranking-tuple and grade-map builds per list."""
    counts = collections.Counter()
    for name in ("_build_ranking", "_build_grade_map"):
        original = getattr(ColumnarScoringDatabase, name)

        def spy(self, list_index, original=original, name=name):
            counts[name, list_index] += 1
            return original(self, list_index)

        monkeypatch.setattr(ColumnarScoringDatabase, name, spy)
    return counts


def test_sessions_build_nothing_until_a_sequential_call(store, build_counts):
    session = store.session()
    ids, _ = session.sources[0].sorted_access_block(10)
    session.sources[1].random_access_block(ids)
    session.sources[2]._inner.fork()
    assert not build_counts
    assert len(session.sources[2]) == store.num_objects
    assert session.sources[2].next_sorted() == store.ranking(2)[0]
    assert build_counts == {("_build_ranking", 2): 1}
    obj = store.interned_objects[7]
    assert session.sources[0].random_access(obj) == store.grade(0, obj)
    assert build_counts == {("_build_ranking", 2): 1, ("_build_grade_map", 0): 1}
    # Later sessions share what the first sequential calls built.
    later = store.session().sources[2]
    assert later.sorted_access_batch(3) == store.ranking(2)[:3]
    assert later._inner._items is store.ranking(2)
    assert build_counts[("_build_ranking", 2)] == 1


@pytest.mark.parametrize(
    "algorithm",
    [
        FaginA0(),
        FaginA0Min(),
        ThresholdAlgorithm(),
        NoRandomAccessAlgorithm(),
        NaiveAlgorithm(),
    ],
    ids=lambda a: a.name,
)
def test_block_path_queries_build_no_rankings(store, build_counts, algorithm):
    for k in (1, 10, 300):
        algorithm.top_k(store.session(), MINIMUM, k)
    assert not build_counts


def test_eight_threads_making_first_sequential_calls_build_each_list_once(
    store, build_counts
):
    barrier = threading.Barrier(8)
    delivered = []

    def first_calls(offset):
        session = store.session()
        barrier.wait(timeout=30)
        for step in range(store.num_lists):
            i = (step + offset) % store.num_lists
            source = session.sources[i]
            if offset % 2:
                head = source.sorted_access_batch(4)
                grade = source.random_access(head[0].obj)
            else:
                grade = source.random_access_many([store.interned_objects[0]])[0]
                head = [source.next_sorted() for _ in range(4)]
            delivered.append((i, tuple(head), grade))

    threads = [
        threading.Thread(target=first_calls, args=(offset,)) for offset in range(8)
    ]
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
    assert build_counts == {
        (name, i): 1
        for name in ("_build_ranking", "_build_grade_map")
        for i in range(store.num_lists)
    }
    assert len(delivered) == 8 * store.num_lists
    for i, head, _ in delivered:
        assert head == store.ranking(i)[:4]


def test_fork_delivers_the_parent_sequence(store):
    parent = store.session().sources[1]._inner
    parent.sorted_access_block(5)
    fork = parent.fork()
    assert isinstance(fork, ColumnarSource)
    assert fork.position == 0
    parent.restart()
    want = [parent.next_sorted() for _ in range(store.num_objects)]
    assert list(fork.sorted_access_batch(store.num_objects)) == want
    assert fork.exhausted
    again = parent.fork()
    ids, grades = again.sorted_access_block(store.num_objects)
    objects = store.interned_objects
    assert [objects[j] for j in ids.tolist()] == [item.obj for item in want]
    assert grades.tolist() == [item.grade for item in want]


def test_public_ranking_is_the_row_database_ranking():
    rows = independent_database(3, 300, seed=4)
    store = ColumnarScoringDatabase.from_scoring_database(rows)
    session = store.session()
    for i in range(store.num_lists):
        assert store.ranking(i) == rows.ranking(i)
        session.sources[i].next_sorted()
        assert session.sources[i]._inner._items is store.ranking(i)
