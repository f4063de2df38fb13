"""Depth-block execution of A0, A0′, TA, NRA and the naive scan on
columnar sessions.

These algorithms read every list in lockstep, so each run is fixed by
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
* **NRA** stops at the first depth d (from the end of its batched
  start) where the bar L(d) — the contract's limit on the k-th best
  exact grade — is at least ``t(b_1..b_m)`` and every partially seen
  object's upper bound. The exact grades are a prefix of the objects
  in match-depth order, the bar only rises and every bound only
  falls, so this test is monotone too: a gallop finds the first depth
  d₁ that passes the unseen bound, and a second one the first depth
  that certifies the objects d₁ leaves uncertified (objects first
  seen after d₁ are bounded by ``t(b(d₁))`` and never violate).
* **naive** reads every list to the end.

The look-ahead only decides *where to stop*. The run then makes
exactly the accesses the sequential code makes — one
``sorted_access_block`` of that depth per list and one
``random_access_block`` per list for the objects the sequential run
random-accesses there — through the session's instrumented sources,
and scores the grades those calls return. Answers, per-list ledgers,
``details`` and guarantees are bit-identical to the sequential run.

:func:`block_index` decides who may take this path: only a session
carrying an index whose cursors have not moved. TA, A0′, NRA and
naive also need an aggregation whose kernel is declared exact (the
sequential runs score with the scalar fold, the block path with the
kernel). Everything else keeps the sequential code.
"""

from __future__ import annotations

import bisect
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

__all__ = ["block_index", "fagin", "fagin_min", "naive", "nra", "threshold"]


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


def _check_arity(aggregation: AggregationFunction, m: int) -> None:
    """Raise as the scalar fold does for a fixed arity other than m."""
    if aggregation.arity is not None and m != aggregation.arity:
        raise AggregationArityError(aggregation.name, aggregation.arity, m)


def _scores(aggregation: AggregationFunction, matrix):
    """``aggregation.evaluate_columns`` of ``matrix`` as a numpy vector.

    The kernel runs on the matrix directly; without one, the scalar
    fold gets plain Python floats, as in the sequential run.
    """
    _check_arity(aggregation, len(matrix))
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


def _bottoms(index, depth: int) -> list[float]:
    """The grades sorted access delivers last at ``depth``, per list."""
    return [
        float(column[order[depth - 1]])
        for column, order in zip(index.columns, index.orders)
    ]


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
            matrix = index.seen_grades[:, len(self._scores) : n]
            self._scores = np.concatenate(
                (self._scores, evaluate_matrix(self._aggregation, matrix))
            )
        kth_best = np.partition(self._scores[:n], n - self._k)[n - self._k]
        tau = self._aggregation.evaluate_trusted(_bottoms(index, depth))
        return self._rule.met(float(kth_best), tau)


def _first_depth(passes, low: int, last: int, step: int = 1) -> int | None:
    """The first depth in ``[low, last]`` at which the monotone test
    ``passes`` holds (None if it holds nowhere): a gallop from ``low``
    in doubling steps from ``step``, then a bisection."""
    if passes(low):
        return low
    # Gallop: low always fails; find a depth that passes, or the end.
    high = min(low + step, last)
    while not passes(high):
        if high == last:
            return None
        low, step = high, step * 2
        high = min(low + step, last)
    while high - low > 1:
        mid = (low + high) // 2
        if passes(mid):
            high = mid
        else:
            low = mid
    return high


def _stopping_depth(index, aggregation, k, rule) -> int:
    """The first depth at which sequential TA stops (N if it never does)."""
    look = _LookAhead(index, aggregation, k, rule)
    last = len(index.objects)
    # The first depth TA tests is the first where k objects are seen.
    depth = _first_depth(look.met, int(index.first_depths[k - 1]), last)
    return last if depth is None else depth


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


class _NraLookAhead:
    """NRA's stop test at any depth, from the store's own columns.

    Off the ledger, like :class:`_LookAhead`. The objects whose grades
    are all known at depth d are the prefix
    ``match_order[:match_count(d)]``; their exact grades are scored on
    demand and kept, so a search scores each object at most once.
    """

    def __init__(self, index, aggregation, k, rule) -> None:
        self._index = index
        self._aggregation = aggregation
        self._k = k
        self._rule = rule
        self._exact = np.empty(0)
        self._bars: dict[int, float] = {}

    def bar(self, depth: int) -> float:
        """The contract's limit on the k-th best exact grade at
        ``depth`` (at least k grades are exact there)."""
        index = self._index
        n = index.match_count(depth)
        bar = self._bars.get(n)
        if bar is None:
            if n > len(self._exact):
                fresh = index.match_order[len(self._exact) : n]
                matrix = np.vstack([column[fresh] for column in index.columns])
                self._exact = np.concatenate(
                    (self._exact, evaluate_matrix(self._aggregation, matrix))
                )
            kth_best = np.partition(self._exact[:n], n - self._k)[n - self._k]
            bar = self._bars[n] = self._rule.limit(float(kth_best))
        return bar

    def unseen_certified(self, depth: int) -> bool:
        """Does the bar cover ``t(b_1..b_m)``, every unseen object's
        upper bound?"""
        upper = self._aggregation.evaluate_trusted(_bottoms(self._index, depth))
        return upper <= self.bar(depth)

    def watch(self, depth: int) -> None:
        """Track the objects seen by ``depth`` for :meth:`certified`."""
        n = self._index.seen_count(depth)
        self._grades = self._index.seen_grades[:, :n]
        self._deepest = self._index.seen_deepest[:n]

    def certified(self, depth: int) -> bool:
        """Is no watched object still partially known at ``depth`` with
        an upper bound above the bar?

        An object's bound in list i is its grade where sorted access
        has delivered it (that grade is at least b_i) and b_i otherwise
        (b_i is at least its grade): the larger of the two either way.
        A failing depth's violators are the only watched objects that
        can violate deeper down (bounds only fall, the bar only rises),
        so they replace the watch list; a search only probes deeper
        than its last failure.
        """
        bottoms = np.array(_bottoms(self._index, depth))[:, None]
        uppers = evaluate_matrix(
            self._aggregation, np.maximum(self._grades, bottoms)
        )
        violating = (uppers > self.bar(depth)) & (self._deepest >= depth)
        if violating.any():
            # compress keeps the rows C-contiguous (a boolean index on
            # axis 1 would not), so the kernels reduce along contiguous
            # memory.
            self._grades = np.compress(violating, self._grades, axis=1)
            self._deepest = self._deepest[violating]
            return False
        return True


def _nra_depth(index, aggregation, k, rule) -> int | None:
    """The depth at which sequential NRA stops, or None if its stop
    test fails all the way down (the run then ends on an empty round).
    """
    look = _NraLookAhead(index, aggregation, k, rule)
    m = len(index.orders)
    last = len(index.objects)
    # The batched start: untested lockstep chunks of ceil((k - exact)
    # / m) rounds until k objects are exact. The chunk size only
    # changes when an object matches, so the chunks up to the next
    # match depth are taken at once.
    match_depths = index.match_depths[:k].tolist()
    depth = exact = 0
    while exact < k:
        chunk = -(-(k - exact) // m)
        chunks = -(-(match_depths[exact] - depth) // chunk)
        depth = min(depth + chunks * chunk, last)
        exact = bisect.bisect_right(match_depths, depth)
    first = _first_depth(look.unseen_certified, depth, last)
    if first is None:
        return None
    # Objects first seen after ``first`` are bounded by t(b(first)),
    # which the bar covers from there on: only those seen by then can
    # still violate.
    look.watch(first)
    # The stop tends to lie a fair way past ``first``: galloping in
    # steps from an eighth of that depth skips the probes just past it,
    # which would each sweep nearly every watched object.
    return _first_depth(look.certified, first, last, step=max(1, first // 8))


def nra(
    session: MiddlewareSession,
    index: "DepthIndex",
    aggregation: AggregationFunction,
    k: int,
    rule: StoppingRule,
    name: str,
) -> TopKResult:
    """NRA: read every list to the stopping depth, score the objects
    seen in all of them."""
    _check_arity(aggregation, len(session.sources))
    last = len(index.objects)
    depth = _nra_depth(index, aggregation, k, rule)
    # A run that never certifies reads to the end, then counts the
    # empty round that finds the lists exhausted.
    rounds = last + 1 if depth is None else depth
    depth = min(rounds, last)
    blocks = [source.sorted_access_block(depth) for source in session.sources]
    exact = index.match_order[: index.match_count(depth)]
    matrix = _grade_matrix(session, index, blocks, exact, lambda i, ranks: None)
    scores = evaluate_matrix(aggregation, matrix)
    n = len(exact)
    kth_best = float(np.partition(scores, n - k)[n - k])
    return TopKResult(
        items=top_k_select(scores, k, index.objects, exact),
        stats=session.tracker.snapshot(),
        algorithm=name,
        details={"rounds": rounds, "seen": index.seen_count(depth), "exact": n},
        guarantee=rule.guarantee(rule.limit(kth_best)),
    )


def naive(
    session: MiddlewareSession,
    index: "DepthIndex",
    aggregation: AggregationFunction,
    k: int,
    name: str,
) -> TopKResult:
    """The naive scan: every list to the end in one block, then score."""
    n = len(index.objects)
    blocks = [source.sorted_access_block(n) for source in session.sources]
    matrix = np.empty((len(blocks), n))
    for row, (ids, grades) in zip(matrix, blocks):
        row[ids] = grades
    return TopKResult(
        items=top_k_select(evaluate_matrix(aggregation, matrix), k, index.objects),
        stats=session.tracker.snapshot(),
        algorithm=name,
        details={"objects_scanned": n},
    )
