"""Columnar scoring databases: the in-memory fast path.

:class:`~repro.access.scoring_database.ScoringDatabase` stores each of
the m graded sets as a ``dict[ObjectId, float]`` and mints every
session by handing a full ranking to ``MaterializedSource``, whose
constructor re-validates all N items and rebuilds an N-entry grade
dictionary — O(N * m) of pure Python overhead *per session*, before a
single access is charged.

:class:`ColumnarScoringDatabase` stores the same formal object
(Section 5's function from list index to graded set) in columnar form:

* object ids are **interned** once into a dense ``0..N-1`` index;
* each list's grades live in one contiguous float64 numpy column,
  indexed by interned id;
* each list's descending rank order (the skeleton permutation realised
  by the grades, ties broken by
  :func:`~repro.access.source.tie_break_key` exactly as
  :func:`~repro.access.source.rank_items` breaks them) is computed
  **once** and shared. All-integer populations sort through
  ``np.lexsort`` (the tie key for ints is numeric order, which lexsort
  reproduces directly); anything else goes through the Python key
  sort. Either way the order is an ``ndarray`` of interned ids.

Sessions are minted in O(m) and cost only their arrays: each source
(:class:`ColumnarSource`) is a cursor over the store's frozen column
and rank order. The Python ranking tuple and grade map that the
sequential protocol (``next_sorted``, ``sorted_access_batch``,
``random_access[_many]``) reads are built once per store, on the first
sequential call any session makes, and then shared; traffic that only
takes the depth-block path never builds them. Access-count semantics
are untouched: the sources speak the same sorted/random (and batched)
protocol through the same instrumented wrappers.

The numpy columns additionally feed the *computation* phase:
:meth:`ColumnarScoringDatabase.grades_matrix` gathers any subset of
objects into an (m, n) matrix in one shot, and
:meth:`overall_grades` / :meth:`true_top_k` score it through the
vectorized kernels of :mod:`repro.core.kernels` — ground truth at C
speed, still outside the access accounting.

**Concurrency contract.** A columnar database is a *shared read-only
store*: after ``__init__`` returns, its columns, interned index and
rank orders never change (the numpy arrays are marked non-writeable to
enforce it), so any number of threads may mint sessions and read
ground truth concurrently. All mutable state — sorted cursors, cost
trackers — lives in the per-query :class:`MiddlewareSession` objects
:meth:`session` mints, which are single-consumer and must not be
shared between threads. The only writes after construction are the
lazy, idempotent memoisations of :meth:`ranking` / :meth:`_grade_map`
and of the :class:`DepthIndex`, which are double-checked under an
internal lock; once the index is warm, minting a session is lock-free
O(m).

**Depth blocks.** Sessions carry the store's :class:`DepthIndex`, and
their sources add ``sorted_access_block`` / ``random_access_block``
over interned ids. A0, A0′, TA, NRA and the naive scan use the index
to find where their sequential run would stop, then make exactly that
run's accesses in one block per list (:mod:`repro.algorithms.block`).
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.access.session import MiddlewareSession
from repro.access.source import MaterializedSource, tie_break_key
from repro.access.types import GradedItem, ObjectId
from repro.core.aggregation import AggregationFunction
from repro.core.graded_set import GradedSet
from repro.core.grades import validate_grade
from repro.core.kernels import evaluate_columns, evaluate_matrix

__all__ = [
    "ColumnarScoringDatabase",
    "ColumnarSource",
    "DepthIndex",
    "rank_orders",
]


def rank_orders(objects: tuple[ObjectId, ...], columns):
    """Descending rank order per column, as interned-id permutations.

    The one tie-break (:func:`~repro.access.source.tie_break_key`)
    realised as index permutations: when every object id is a plain
    int, ``tie_break_key`` reduces to numeric order and one
    ``np.lexsort`` per column replaces the O(N log N) Python sort —
    identical permutation, C speed. Mixed or non-integer populations
    keep the key-based sort. Shared by the full-store constructor and
    the shard partitioner (a shard's order is exactly the restriction
    of the global order to the shard's objects, because the sort key
    is a total order).
    """
    if all(type(obj) is int for obj in objects):
        try:
            ids = np.asarray(objects, dtype=np.int64)
        except OverflowError:
            # Arbitrary-precision ids (beyond int64) keep the
            # key-based sort below — same ordering, Python speed.
            ids = None
        if ids is not None:
            return [np.lexsort((ids, -column)) for column in columns]
    tie_keys = [tie_break_key(obj) for obj in objects]
    return [
        np.asarray(
            sorted(
                range(len(objects)),
                key=lambda j: (-column[j], tie_keys[j]),
            ),
            dtype=np.intp,
        )
        for column in columns
    ]


def _validated_column(
    mapping: Mapping[ObjectId, float],
    objects: tuple[ObjectId, ...],
    list_index: int,
):
    """One list's grades as a float64 column in interned-id order.

    The bulk path converts and range-checks the whole column with numpy
    (same predicate as :func:`validate_grade`: a real in [0, 1], NaN
    excluded); on any failure it falls back to the scalar validator,
    which produces the precise per-object error.
    """
    try:
        column = np.asarray(
            [mapping[obj] for obj in objects], dtype=np.float64
        )
    except (TypeError, ValueError):
        column = None
    if column is not None and not (
        np.isnan(column).any() or (column < 0.0).any() or (column > 1.0).any()
    ):
        return column
    return np.asarray(
        [
            validate_grade(
                mapping[obj], context=f"list {list_index}, object {obj!r}"
            )
            for obj in objects
        ],
        dtype=np.float64,
    )


def _grade_row(row: Sequence[float], n: int):
    """``row`` as a numpy vector if it is n non-increasing reals in
    [0, 1] (what :meth:`ScoringDatabase.from_skeleton
    <repro.access.scoring_database.ScoringDatabase.from_skeleton>`
    accepts), else None."""
    try:
        values = np.asarray(row)
    except (TypeError, ValueError):
        return None
    if values.shape != (n,) or values.dtype.kind not in "biuf":
        return None
    if values.dtype.kind == "f" and np.isnan(values).any():
        return None
    if n and not (values[-1] >= 0 and values[0] <= 1):
        return None
    if (values[1:] > values[:-1]).any():
        return None
    return values


class DepthIndex:
    """Where every object sits in every list's rank order, frozen.

    Built once per store from the store's own frozen columns and orders, which it shares rather than copies. Depths are
    1-based: an object at rank position r is delivered by the
    (r + 1)-th sorted access.

    Attributes
    ----------
    objects, columns, orders:
        The store's interned ids, grade columns and rank permutations.
    ranks:
        (m, N) int32; ``ranks[i][j]`` is object j's 0-based position in
        list i.
    match_order / match_depths:
        Objects ordered by the depth at which they have appeared in all
        m lists, and those depths (ascending). A0's stop at k matches
        is ``match_depths[k - 1]``; the objects whose grades are all
        known at depth d are the prefix ``match_order[:match_count(d)]``.
    first_seen / first_depths:
        Objects ordered by the depth at which some list first delivers
        them, and those depths (ascending). The objects seen by depth d
        are the prefix ``first_seen[:searchsorted(first_depths, d,
        "right")]``.
    seen_grades / seen_deepest:
        The (m, N) grade columns and every object's deepest rank, with
        objects in ``first_seen`` order, so the objects seen by a depth
        are a slice.
    first_list:
        For every object, the list that delivers it first in
        round-major order (lowest rank, then lowest list index) — the
        one list TA does not random-access it in.
    """

    __slots__ = (
        "objects",
        "columns",
        "orders",
        "ranks",
        "match_order",
        "match_depths",
        "first_seen",
        "first_depths",
        "seen_grades",
        "seen_deepest",
        "first_list",
    )

    def __init__(self, objects, columns, orders) -> None:
        n = len(objects)
        self.objects = objects
        self.columns = tuple(columns)
        self.orders = tuple(orders)
        ranks = np.empty((len(self.orders), n), dtype=np.int32)
        positions = np.arange(n, dtype=np.int32)
        for i, order in enumerate(self.orders):
            ranks[i, order] = positions
        self.ranks = ranks
        deepest = ranks.max(axis=0)
        self.match_order = np.argsort(deepest, kind="stable")
        self.match_depths = deepest[self.match_order] + 1
        shallowest = ranks.min(axis=0)
        self.first_seen = np.argsort(shallowest, kind="stable")
        self.first_depths = shallowest[self.first_seen] + 1
        self.seen_grades = np.vstack(
            [column[self.first_seen] for column in self.columns]
        )
        self.seen_deepest = deepest[self.first_seen]
        self.first_list = ranks.argmin(axis=0).astype(
            np.min_scalar_type(len(self.orders) - 1)
        )
        for arr in (
            *self.orders,
            ranks,
            self.match_order,
            self.match_depths,
            self.first_seen,
            self.first_depths,
            self.seen_grades,
            self.seen_deepest,
            self.first_list,
        ):
            arr.flags.writeable = False

    def seen_count(self, depth: int) -> int:
        """How many distinct objects the first ``depth`` rounds deliver."""
        return _count_upto(self.first_depths, depth)

    def match_count(self, depth: int) -> int:
        """How many objects the first ``depth`` rounds deliver in every
        list."""
        return _count_upto(self.match_depths, depth)


def _count_upto(depths, depth: int) -> int:
    """Entries of the ascending ``depths`` that are at most ``depth``.

    The needle is cast to the array's dtype: a Python int would make
    numpy search a widened copy of the whole array.
    """
    return int(depths.searchsorted(depths.dtype.type(depth), side="right"))


class ColumnarSource(MaterializedSource):
    """One store list: the sequential protocol plus interned-id blocks.

    The sequential methods are :class:`MaterializedSource`'s, over the
    store's shared ranking tuple and grade map. A source is minted
    without them: its first sequential call fetches them from the
    store (which builds each once, on the first call from any session)
    and keeps them on the instance, so later calls cost what a
    :class:`MaterializedSource`'s do. The two block methods speak
    interned ids and numpy arrays and never build them. Like every
    access method they are charged by the
    :class:`~repro.access.source.InstrumentedSource` around this
    source, one unit per object.
    """

    def __init__(self, store: "ColumnarScoringDatabase", list_index: int) -> None:
        self.name = f"list-{list_index}"
        self._store = store
        self._list_index = list_index
        self._order = store._orders[list_index]
        self._column = store._columns[list_index]
        self._cursor = 0

    @cached_property
    def _items(self) -> tuple[GradedItem, ...]:
        return self._store.ranking(self._list_index)

    @cached_property
    def _grades(self) -> Mapping[ObjectId, float]:
        return self._store._grade_map(self._list_index)

    def __len__(self) -> int:
        return len(self._order)

    def fork(self) -> "ColumnarSource":
        """A fresh cursor over the same store list, at the top."""
        return ColumnarSource(self._store, self._list_index)

    def sorted_access_block(self, count: int):
        """The next ``count`` objects under sorted access, as
        ``(interned ids, grades)``; shorter at the end of the list."""
        if count < 0:
            raise ValueError(f"block size must be non-negative, got {count}")
        start = self._cursor
        ids = self._order[start : start + count]
        self._cursor = start + len(ids)
        return ids, self._column[ids]

    def random_access_block(self, ids):
        """The grades of the interned ids ``ids``, in order."""
        return self._column[ids]


class ColumnarScoringDatabase:
    """m graded sets over N objects, stored as float columns.

    Duck-type compatible with the subset of
    :class:`~repro.access.scoring_database.ScoringDatabase` the engine
    and benchmarks rely on (``session()``, ``overall_grades``,
    ``true_top_k``, ``ranking``, dimensions), and produces rankings
    identical to it item for item — the columnar layout is purely a
    representation change.

    Parameters
    ----------
    lists:
        One grade assignment per atomic query — mappings (or
        :class:`~repro.core.graded_set.GradedSet` objects) from object
        to grade. All lists must grade exactly the same objects.
    """

    #: Built on first use by :meth:`depth_index`, under the mint lock.
    _depth_index: DepthIndex | None = None

    def __init__(
        self, lists: Sequence[Mapping[ObjectId, float] | GradedSet]
    ) -> None:
        if not lists:
            raise ValueError("a scoring database needs at least one list")
        first = lists[0]
        first_map = first.as_dict() if isinstance(first, GradedSet) else first
        # Intern: index position is the object's dense integer id.
        objects = tuple(first_map)
        if not objects:
            raise ValueError("a scoring database needs at least one object")
        index = {obj: idx for idx, obj in enumerate(objects)}

        columns = []
        for i, entry in enumerate(lists):
            mapping = entry.as_dict() if isinstance(entry, GradedSet) else entry
            if len(mapping) != len(objects) or any(
                obj not in index for obj in mapping
            ):
                raise ValueError(
                    f"list {i} grades a different object set than list 0; "
                    "every list must grade all N objects (Section 5 model)"
                )
            columns.append(_validated_column(mapping, objects, i))

        self._freeze(objects, index, columns, rank_orders(objects, columns))

    def _freeze(self, objects, index, columns, orders) -> None:
        """Install the store's frozen arrays and its empty per-list memos."""
        self._objects = objects
        self._index = index
        self._columns = list(columns)
        self._orders = list(orders)
        # Enforce the shared-read-only contract: sessions and
        # ground-truth readers in any thread see frozen columns.
        for arr in (*self._columns, *self._orders):
            arr.flags.writeable = False
        # Lazy shared state built from the frozen arrays on first use.
        # The builds are idempotent and double-checked under the lock,
        # so concurrent first users neither duplicate work nor observe
        # partial state.
        self._mint_lock = threading.Lock()
        self._rankings: list[tuple[GradedItem, ...] | None] = [None] * len(columns)
        self._grade_maps: list[dict[ObjectId, float] | None] = [None] * len(columns)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_frozen_arrays(
        cls, objects: tuple[ObjectId, ...], columns, orders
    ) -> "ColumnarScoringDatabase":
        """Wrap pre-built frozen columns without re-validating them.

        The trusted constructor for shard attach: ``columns`` are m
        already-validated float64 grade columns and ``orders`` their
        descending rank permutations (as :func:`rank_orders` would
        build them), typically views over a shared-memory segment. The
        caller vouches for validity and for the shared-read-only
        contract — the arrays are re-marked non-writeable here, but
        no grades are range-checked and no orders recomputed, so attach
        costs one O(N) id-to-index dict, not an O(N log N) sort.
        """
        if not columns or len(orders) != len(columns):
            raise ValueError(
                "from_frozen_arrays needs one order per column "
                f"(got {len(columns)} columns, {len(orders)} orders)"
            )
        if not objects:
            raise ValueError("a scoring database needs at least one object")
        objects = tuple(objects)
        self = cls.__new__(cls)
        self._freeze(
            objects, {obj: idx for idx, obj in enumerate(objects)}, columns, orders
        )
        return self

    @classmethod
    def from_scoring_database(cls, db) -> "ColumnarScoringDatabase":
        """Columnarise an existing (row-oriented) scoring database."""
        return cls([db.graded_set(i).as_dict() for i in range(db.num_lists)])

    @classmethod
    def from_skeleton(
        cls, skeleton, grade_rows: Sequence[Sequence[float]]
    ) -> "ColumnarScoringDatabase":
        """Assign grades along a skeleton's permutations, straight into
        columns.

        ``grade_rows[i]`` is a non-increasing grade sequence for list i
        (grade of its rank-1 object first). The store equals
        columnarising :meth:`ScoringDatabase.from_skeleton
        <repro.access.scoring_database.ScoringDatabase.from_skeleton>`'s
        database — objects interned in the first permutation's order,
        the same columns and orders — but the rows are checked with
        numpy and each goes into its column with one scatter instead of
        through per-list dicts. Rows that fail a check take the
        row-oriented build, which raises its own error for them.
        """
        perms = skeleton.permutations
        rows = [_grade_row(row, len(perm)) for row, perm in zip(grade_rows, perms)]
        if not perms[0] or len(grade_rows) != len(perms) or any(
            values is None for values in rows
        ):
            # Some check fails: the row-oriented build raises its error.
            from repro.access.scoring_database import ScoringDatabase

            return cls.from_scoring_database(
                ScoringDatabase.from_skeleton(skeleton, grade_rows)
            )
        objects = perms[0]
        index = {obj: idx for idx, obj in enumerate(objects)}
        columns = []
        for perm, values in zip(perms, rows):
            positions = np.fromiter(map(index.__getitem__, perm), np.intp, len(perm))
            column = np.empty(len(objects))
            column[positions] = values
            columns.append(column)
        self = cls.__new__(cls)
        self._freeze(objects, index, columns, rank_orders(objects, columns))
        return self

    # ------------------------------------------------------------------
    # Dimensions and direct lookups
    # ------------------------------------------------------------------

    @property
    def num_lists(self) -> int:
        return len(self._columns)

    @property
    def num_objects(self) -> int:
        return len(self._objects)

    @property
    def objects(self) -> frozenset[ObjectId]:
        return frozenset(self._objects)

    @property
    def interned_objects(self) -> tuple[ObjectId, ...]:
        """All object ids, in interned (dense-index) order.

        The ordered counterpart of :attr:`objects`; position ``j`` in
        every grade column and :meth:`grades_matrix` belongs to
        ``interned_objects[j]``. The shard partitioner slices this
        axis.
        """
        return self._objects

    def grade(self, list_index: int, obj: ObjectId) -> float:
        """mu_Ai(obj) — direct lookup (ground truth, not an access)."""
        return float(self._columns[list_index][self._index[obj]])

    def graded_set(self, list_index: int) -> GradedSet:
        """List ``i`` as a :class:`GradedSet`."""
        column = self._columns[list_index]
        return GradedSet(dict(zip(self._objects, column.tolist())))

    def _memo(self, slots: list, list_index: int, build: Callable[[int], object]):
        """``slots[list_index]``, built by ``build`` on first use.

        Double-checked under the mint lock, so concurrent first calls
        build each entry exactly once and never observe a partial one.
        """
        cached = slots[list_index]
        if cached is None:
            with self._mint_lock:
                cached = slots[list_index]
                if cached is None:
                    cached = slots[list_index] = build(list_index)
        return cached

    def ranking(self, list_index: int) -> tuple[GradedItem, ...]:
        """List ``i`` sorted for sorted access; built once, then shared."""
        return self._memo(self._rankings, list_index, self._build_ranking)

    def _grade_map(self, list_index: int) -> dict[ObjectId, float]:
        return self._memo(self._grade_maps, list_index, self._build_grade_map)

    def _build_ranking(self, list_index: int) -> tuple[GradedItem, ...]:
        grades = self._columns[list_index].tolist()
        objects = self._objects
        return tuple(
            GradedItem(objects[j], grades[j])
            for j in self._orders[list_index].tolist()
        )

    def _build_grade_map(self, list_index: int) -> dict[ObjectId, float]:
        return dict(zip(self._objects, self._columns[list_index].tolist()))

    def depth_index(self) -> DepthIndex:
        """The store's :class:`DepthIndex`, built on first use."""
        cached = self._depth_index
        if cached is None:
            with self._mint_lock:
                cached = self._depth_index
                if cached is None:
                    cached = DepthIndex(
                        self._objects, self._columns, self._orders
                    )
                    self._depth_index = cached
        return cached

    # ------------------------------------------------------------------
    # Bulk gather
    # ------------------------------------------------------------------

    def grades_matrix(self, objs: Sequence[ObjectId] | None = None):
        """The (m, n) grade matrix for ``objs`` (all objects if None).

        Column j of the result holds ``objs[j]``'s grades across the m
        lists, gathered with one fancy-index per list — the bulk
        counterpart of :meth:`grade`, and like it *ground truth*: the
        matrix bypasses sources entirely, so reading it is not an
        access.

        Raises :class:`KeyError` for objects this database does not
        grade (same contract as a plain dict lookup).
        """
        if objs is None:
            return np.vstack(self._columns)
        index = self._index
        gather = np.asarray([index[obj] for obj in objs], dtype=np.intp)
        return np.vstack([column[gather] for column in self._columns])

    # ------------------------------------------------------------------
    # Sessions and ground truth
    # ------------------------------------------------------------------

    def session(self) -> MiddlewareSession:
        """A fresh instrumented session, minted without re-sorting.

        Every source is a cursor over the store's frozen column and
        rank order; only the per-session cursor and cost tracker are
        new, so minting is O(m) instead of O(N * m). The shared ranking
        tuple and grade map are built on the first sequential access
        (see :class:`ColumnarSource`). Minting is safe from any thread
        (lock-free once the depth index is warm); the returned session
        itself is single-consumer — give each concurrent query its own.
        """
        raw = [ColumnarSource(self, i) for i in range(self.num_lists)]
        return MiddlewareSession.over_sources(
            raw, num_objects=self.num_objects, depth_index=self.depth_index()
        )

    def _all_scores(self, aggregation: AggregationFunction) -> list[float]:
        """Every object's overall grade, in interned order (vectorized)."""
        return evaluate_columns(
            aggregation, self.grades_matrix(), self.num_objects
        )

    def overall_grades(self, aggregation: AggregationFunction) -> GradedSet:
        """Ground-truth mu_Q for every object (bypasses access accounting)."""
        return GradedSet(dict(zip(self._objects, self._all_scores(aggregation))))

    def true_top_k(
        self, aggregation: AggregationFunction, k: int
    ) -> tuple[GradedItem, ...]:
        """Ground-truth top-k answers (deterministic tie-break)."""
        from repro.algorithms.base import top_k_select

        scores = evaluate_matrix(aggregation, self.grades_matrix())
        if scores is None:
            scores = np.asarray(self._all_scores(aggregation))
        return top_k_select(scores, k, self._objects)

    def __repr__(self) -> str:
        return (
            f"ColumnarScoringDatabase(m={self.num_lists}, "
            f"N={self.num_objects})"
        )
