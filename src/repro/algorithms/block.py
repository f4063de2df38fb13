"""Depth-block execution of A0, A0′ and TA on columnar sessions.

A0, A0′ and TA read every list in lockstep, so each run is fixed by
one number: the depth at which it stops. On a session minted by
:meth:`ColumnarScoringDatabase.session
<repro.access.columnar.ColumnarScoringDatabase.session>` that depth
can be found from the store's :class:`~repro.access.columnar.DepthIndex`
with vectorized prefix operations instead of access by access:

* **A0 / A0′** stop at the first depth where k objects have appeared
  in all m lists — the k-th smallest "deepest rank + 1"
  (``DepthIndex.match_depths[k - 1]``).
* **TA** stops at the first depth d (from the first depth where k
  objects are seen) with ``rule.met(k-th best seen grade,
  t(b_1..b_m))``. The k-th best grade never falls and the threshold
  never rises as d grows, so the test is monotone in d and a galloping
  binary search finds the first depth that meets it.

The look-ahead only decides *where to stop*. The run then makes
exactly the accesses the sequential code makes — one
``sorted_access_block`` of that depth per list and one
``random_access_block`` per list for the objects the sequential run
random-accesses there — through the session's instrumented sources,
and scores the grades those calls return. Answers, per-list ledgers,
``details`` and guarantees are bit-identical to the sequential run.

:func:`block_index` decides who may take this path: only a session
carrying an index whose cursors have not moved. TA and A0′ also need
an aggregation whose kernel is declared exact (TA scores some objects
with the scalar fold and some with the kernel; the block path uses the
kernel for all of them). Everything else keeps the sequential code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.access.session import MiddlewareSession
from repro.access.source import tie_break_key
from repro.algorithms.base import TopKResult, top_k_select
from repro.core.aggregation import AggregationFunction
from repro.core.certify import StoppingRule
from repro.core.kernels import evaluate_matrix, kernel_is_exact
from repro.exceptions import AggregationArityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.access.columnar import DepthIndex

__all__ = ["block_index", "fagin", "fagin_min", "threshold"]


def block_index(
    session: MiddlewareSession,
    exact_for: AggregationFunction | None = None,
) -> "DepthIndex | None":
    """The session's depth index if the block path may run, else None.

    Declines sessions without an index (wrapped sources,
    sub-sessions, non-columnar backings), sessions whose cursors have
    moved, and — when ``exact_for`` is given — aggregations without an
    exact kernel.
    """
    index = getattr(session, "depth_index", None)
    if index is None or any(source.position for source in session.sources):
        return None
    if exact_for is not None and not kernel_is_exact(exact_for):
        return None
    return index


def _grade_matrix(session, index, blocks, seen, probed):
    """The (m, n) grades of ``seen``, fetched as the sequential run does.

    Row i reads every object's grade from list i's sorted block at its
    rank, then random-accesses, in one block, the objects the mask
    ``probed(i, ranks)`` selects (``ranks`` is their rank row in list
    i; None means none), overwriting what the sorted read could not
    supply.
    """
    matrix = np.empty((len(blocks), len(seen)))
    for i, (source, (_, grades)) in enumerate(zip(session.sources, blocks)):
        ranks = index.ranks[i][seen]
        np.take(grades, np.minimum(ranks, len(grades) - 1), out=matrix[i])
        mask = probed(i, ranks)
        if mask is None:
            continue
        positions = np.flatnonzero(mask)
        if len(positions):
            matrix[i, positions] = source.random_access_block(seen[positions])
    return matrix


def _scores(aggregation: AggregationFunction, matrix):
    """``aggregation.evaluate_columns`` of ``matrix`` as a numpy vector.

    The kernel runs on the matrix directly; without one, the scalar
    fold gets plain Python floats, as in the sequential run.
    """
    if aggregation.arity is not None and len(matrix) != aggregation.arity:
        raise AggregationArityError(
            aggregation.name, aggregation.arity, len(matrix)
        )
    scores = evaluate_matrix(aggregation, matrix)
    if scores is None:
        evaluate = aggregation.evaluate_trusted
        scores = np.array([evaluate(column) for column in matrix.T.tolist()])
    return scores


def fagin(
    session: MiddlewareSession,
    index: "DepthIndex",
    aggregation: AggregationFunction,
    k: int,
    name: str,
) -> TopKResult:
    """A0: read every list to the k-th match depth, complete, score."""
    depth = int(index.match_depths[k - 1])
    blocks = [source.sorted_access_block(depth) for source in session.sources]
    seen = index.first_seen[: index.seen_count(depth)]
    matrix = _grade_matrix(
        session, index, blocks, seen, lambda i, ranks: ranks >= depth
    )
    scores = _scores(aggregation, matrix)
    return TopKResult(
        items=top_k_select(scores, k, index.objects, seen),
        stats=session.tracker.snapshot(),
        algorithm=name,
        details={
            "T": depth,
            "matches": index.match_count(depth),
            "seen": len(seen),
        },
    )


def fagin_min(
    session: MiddlewareSession,
    index: "DepthIndex",
    aggregation: AggregationFunction,
    k: int,
    name: str,
) -> TopKResult:
    """A0′: A0's sorted phase, then only the candidates of list i0."""
    depth = int(index.match_depths[k - 1])
    blocks = [source.sorted_access_block(depth) for source in session.sources]
    ranks = index.ranks
    first_ids = blocks[0][0]
    matched = first_ids[(ranks[:, first_ids] < depth).all(axis=0)]
    # Every matched object's grades are all known from sorted access;
    # x0 minimises the overall (min) grade, ties by the library key.
    matched_grades = np.array(
        [grades[ranks[i][matched]] for i, (_, grades) in enumerate(blocks)]
    )
    overall = matched_grades.min(axis=0)
    g0 = float(overall.min())
    tied = matched[overall == g0].tolist()
    x0 = min(tied, key=lambda j: tie_break_key(index.objects[j]))
    i0 = next(
        i
        for i, (_, grades) in enumerate(blocks)
        if float(grades[ranks[i][x0]]) == g0
    )
    ids_i0, grades_i0 = blocks[i0]
    candidates = ids_i0[grades_i0 >= g0]
    matrix = _grade_matrix(
        session,
        index,
        blocks,
        candidates,
        lambda i, ranks: None if i == i0 else ranks >= depth,
    )
    scores = evaluate_matrix(aggregation, matrix)
    return TopKResult(
        items=top_k_select(scores, k, index.objects, candidates),
        stats=session.tracker.snapshot(),
        algorithm=name,
        details={
            "T": depth,
            "matches": len(matched),
            "candidates": len(candidates),
            "i0": i0,
            "g0": g0,
        },
    )


class _LookAhead:
    """TA's stop test at any depth, from the store's own columns.

    Off the ledger by design: it reads grades to decide where the
    sequential run would stop, and nothing it computes reaches the
    answer. Scores of the first-seen prefix are computed on demand and
    kept, so a galloping search scores each object at most once.
    """

    def __init__(self, index, aggregation, k, rule) -> None:
        self._index = index
        self._aggregation = aggregation
        self._k = k
        self._rule = rule
        self._scores = np.empty(0)

    def met(self, depth: int) -> bool:
        index = self._index
        n = index.seen_count(depth)
        if n > len(self._scores):
            fresh = index.first_seen[len(self._scores) : n]
            matrix = np.vstack([column[fresh] for column in index.columns])
            self._scores = np.concatenate(
                (self._scores, evaluate_matrix(self._aggregation, matrix))
            )
        kth_best = np.partition(self._scores[:n], n - self._k)[n - self._k]
        bottoms = [
            float(column[order[depth - 1]])
            for column, order in zip(index.columns, index.orders)
        ]
        tau = self._aggregation.evaluate_trusted(bottoms)
        return self._rule.met(float(kth_best), tau)


def _stopping_depth(index, aggregation, k, rule) -> int:
    """The first depth at which sequential TA stops (N if it never does)."""
    look = _LookAhead(index, aggregation, k, rule)
    last = len(index.objects)
    low = int(index.first_depths[k - 1])  # the first depth TA tests
    if look.met(low):
        return low
    # Gallop: low always fails; find a depth that meets, or the end.
    step = 1
    high = min(low + step, last)
    while not look.met(high):
        if high == last:
            return last
        low, step = high, step * 2
        high = min(low + step, last)
    while high - low > 1:
        mid = (low + high) // 2
        if look.met(mid):
            high = mid
        else:
            low = mid
    return high


def threshold(
    session: MiddlewareSession,
    index: "DepthIndex",
    aggregation: AggregationFunction,
    k: int,
    rule: StoppingRule,
    name: str,
) -> TopKResult:
    """TA: read every list to the stopping depth, probe each seen
    object in every list but the one that delivered it first, score."""
    depth = _stopping_depth(index, aggregation, k, rule)
    blocks = [source.sorted_access_block(depth) for source in session.sources]
    seen = index.first_seen[: index.seen_count(depth)]
    first_list = index.first_list[seen]
    matrix = _grade_matrix(
        session, index, blocks, seen, lambda i, ranks: first_list != i
    )
    scores = evaluate_matrix(aggregation, matrix)
    tau = aggregation.evaluate_trusted(
        [float(grades[-1]) for _, grades in blocks]
    )
    return TopKResult(
        items=top_k_select(scores, k, index.objects, seen),
        stats=session.tracker.snapshot(),
        algorithm=name,
        details={"rounds": depth, "threshold": tau, "seen": len(seen)},
        guarantee=rule.guarantee(tau),
    )
