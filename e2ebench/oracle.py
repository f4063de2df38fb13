"""Reference answers for every query the benchmark sends.

Both oracles compute every object's overall grade outside the timed
window and judge an answer by Section 4's specification, honouring
ties: an answer to a top-k query is valid iff it names k distinct
objects, each with its true grade, and no excluded object grades
higher than the lowest returned one. An ε-approximate answer must
instead carry the certificate ``(1 + ε) · μ(y) >= μ(z)`` for every
returned y and excluded z, and ``(1 + ε) · g_k >= true g_k``.

* :class:`StoreOracle` rebuilds the server's columnar store from the
  same seed and reads ground truth from
  ``ColumnarScoringDatabase.overall_grades`` / ``true_top_k``.
* :class:`CatalogOracle` is an exhaustive numpy scan of the federated
  catalog's raw attributes, independent of the parser, planner,
  subsystems and ranking caches it checks.
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.access import ColumnarScoringDatabase
from repro.serving.protocol import NAMED_AGGREGATIONS
from repro.workloads import independent_database
from repro.workloads.datasets import NAMED_COLORS

__all__ = ["CatalogOracle", "StoreOracle", "check_top_k", "oracle_for"]

#: Absolute tolerance on grades (numpy's exp may differ from
#: ``math.exp`` in the last bit).
TOLERANCE = 1e-9

#: ``QbicSubsystem``'s default Gaussian bandwidth, which the catalog
#: demo server uses for its Color feature.
QBIC_BANDWIDTH = 0.35

#: The catalog demo server's number of distinct artists.
CATALOG_ARTISTS = 17


def check_top_k(
    scores: np.ndarray,
    index: dict,
    items: list[dict],
    k: int,
    epsilon: float = 0.0,
    true_kth: float | None = None,
) -> str | None:
    """Why ``items`` is not a valid (or ε-certified) top-k, or None.

    ``scores[index[obj]]`` is the true overall grade of ``obj``;
    ``true_kth`` is the true k-th best grade, when the caller has it.
    """
    if len(items) != k:
        return f"{len(items)} items, expected {k}"
    positions = []
    for item in items:
        obj, grade = item.get("obj"), item.get("grade")
        position = index.get(obj)
        if position is None:
            return f"unknown object {obj!r}"
        if not isinstance(grade, (int, float)) or not math.isfinite(grade):
            return f"object {obj!r} has grade {grade!r}"
        if abs(scores[position] - grade) > TOLERANCE:
            return f"object {obj!r} graded {grade}, true grade {scores[position]}"
        positions.append(position)
    if len(set(positions)) != k:
        return "an object is returned twice"
    worst = min(float(scores[p]) for p in positions)
    slack = 1.0 + epsilon
    if len(scores) > k:
        rest = scores.copy()
        rest[positions] = -np.inf
        best_excluded = float(rest.max())
        if slack * worst < best_excluded - TOLERANCE:
            return (
                f"excluded object grades {best_excluded}, above "
                f"{'(1+ε)·' if epsilon else ''}lowest returned {worst}"
            )
    if true_kth is not None and slack * worst < true_kth - TOLERANCE:
        return f"k-th returned grade {worst} is below the true k-th {true_kth}"
    return None


class StoreOracle:
    """Ground truth for the columnar backing (``--backing columnar``)."""

    def __init__(self, n: int, m: int, seed: int) -> None:
        self.store = ColumnarScoringDatabase.from_scoring_database(
            independent_database(m, n, seed=seed)
        )
        self.index = {
            obj: i for i, obj in enumerate(self.store.interned_objects)
        }
        self._scores: dict[str, np.ndarray] = {}
        self._kth: dict[tuple[str, int], float] = {}

    def scores(self, aggregation: str) -> np.ndarray:
        if aggregation not in self._scores:
            grades = self.store.overall_grades(NAMED_AGGREGATIONS[aggregation])
            self._scores[aggregation] = np.array(
                [grades.grade(obj) for obj in self.store.interned_objects]
            )
        return self._scores[aggregation]

    def check(self, query, items: list[dict]) -> str | None:
        """Check one answer (a one-shot answer or a cursor's pages so far)."""
        aggregation = query.body["aggregation"]
        k = len(items) if query.pages else query.k
        key = (aggregation, k)
        if key not in self._kth:
            top = self.store.true_top_k(NAMED_AGGREGATIONS[aggregation], k)
            self._kth[key] = top[-1].grade
        return check_top_k(
            self.scores(aggregation),
            self.index,
            items,
            k,
            query.epsilon,
            self._kth[key],
        )


class CatalogOracle:
    """Exhaustive-scan ground truth for ``--backing catalog``.

    Rebuilds the demo catalog's raw attributes from the seed exactly as
    ``python -m repro.serving --backing catalog`` draws them: object
    ``o<i>`` has artist ``artist-<i mod 17>`` and a colour drawn as
    three consecutive ``random.Random(seed).random()`` values.
    """

    def __init__(self, n: int, seed: int) -> None:
        rng = random.Random(seed)
        self.colors = np.array(
            [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
        )
        self.artists = np.arange(n) % CATALOG_ARTISTS
        self.index = {f"o{i}": i for i in range(n)}

    def grades(self, expr: tuple) -> np.ndarray:
        """Every object's grade under a query expression tree."""
        op = expr[0]
        if op == "and":
            return np.minimum(self.grades(expr[1]), self.grades(expr[2]))
        if op == "or":
            return np.maximum(self.grades(expr[1]), self.grades(expr[2]))
        _, attribute, target = expr
        if op == "eq" and attribute == "Artist":
            return (
                self.artists == int(target.removeprefix("artist-"))
            ).astype(float)
        if op == "sim" and attribute == "Color":
            if target in NAMED_COLORS:
                vector = np.array(NAMED_COLORS[target])
            else:
                vector = self.colors[self.index[target]]
            squared = ((self.colors - vector) ** 2).sum(axis=1)
            return np.exp(-squared / (2.0 * QBIC_BANDWIDTH * QBIC_BANDWIDTH))
        raise ValueError(f"the oracle cannot grade {expr!r}")

    def check(self, query, items: list[dict]) -> str | None:
        k = len(items) if query.pages else query.k
        return check_top_k(self.grades(query.expr), self.index, items, k)


def oracle_for(workload):
    """The oracle of a workload's data set."""
    if workload.backing == "catalog":
        return CatalogOracle(workload.spec["n"], workload.data_seed)
    return StoreOracle(
        workload.spec["n"], workload.spec["m"], workload.data_seed
    )
