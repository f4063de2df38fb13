"""Workload generation under the paper's independence model (Section 5).

    "When we say that the atomic queries are independent … we mean that
    we are taking each such skeleton to have equal probability. This is
    equivalent to the assumption that each of the m sorted lists
    contains the objects in random order (in other words, each
    permutation of 1, ..., N has equal probability), independent of the
    other lists."

Generators here produce :class:`~repro.access.scoring_database.Skeleton`
and :class:`~repro.access.scoring_database.ScoringDatabase` instances
under that model, with grades drawn from pluggable distributions
(:mod:`repro.workloads.distributions`). All generation is seeded.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.access.scoring_database import ScoringDatabase, Skeleton
from repro.workloads.distributions import GradeDistribution, Uniform

__all__ = [
    "random_skeleton",
    "independent_database",
    "grades_for_skeleton",
]


def random_skeleton(
    num_lists: int, num_objects: int, seed: int | random.Random
) -> Skeleton:
    """A uniformly random skeleton over objects 1..N (independence model)."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return Skeleton.random(num_lists, num_objects, rng)


def grades_for_skeleton(
    skeleton: Skeleton,
    rng: random.Random,
    distribution: GradeDistribution | None = None,
    distributions: Sequence[GradeDistribution] | None = None,
) -> list[list[float]]:
    """Draw iid grades per list and sort them to fit the skeleton.

    For each list, N grades are drawn iid from the list's distribution
    and assigned in descending order along the skeleton's permutation —
    so the marginal grade distribution is exactly the requested one
    while the *order* statistics realise the given skeleton. One
    distribution for all lists, or one per list.
    """
    if distributions is None:
        distributions = [distribution or Uniform()] * skeleton.num_lists
    if len(distributions) != skeleton.num_lists:
        raise ValueError(
            f"{skeleton.num_lists} lists but {len(distributions)} distributions"
        )
    rows: list[list[float]] = []
    for dist in distributions:
        row = sorted(
            (dist.sample(rng) for _ in range(skeleton.num_objects)),
            reverse=True,
        )
        rows.append(row)
    return rows


def independent_database(
    num_lists: int,
    num_objects: int,
    seed: int | random.Random,
    distribution: GradeDistribution | None = None,
    distributions: Sequence[GradeDistribution] | None = None,
) -> ScoringDatabase:
    """A scoring database drawn from the Section 5 independence model.

    Orders are independent uniform permutations; grades have the given
    marginal distribution(s) (uniform by default, matching the
    Section 9 analyses).

    >>> db = independent_database(2, 100, seed=42)
    >>> db.num_lists, db.num_objects
    (2, 100)
    """
    return ScoringDatabase.from_skeleton(
        *_independent_draw(
            num_lists, num_objects, seed, distribution, distributions
        )
    )


def _independent_draw(
    num_lists: int,
    num_objects: int,
    seed: int | random.Random,
    distribution: GradeDistribution | None = None,
    distributions: Sequence[GradeDistribution] | None = None,
) -> tuple[Skeleton, list[list[float]]]:
    """The seeded skeleton and grade rows :func:`independent_database`
    assigns; builders of other store layouts start from the same draw
    (``ColumnarScoringDatabase.from_skeleton(*_independent_draw(...))``).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    skeleton = Skeleton.random(num_lists, num_objects, rng)
    rows = grades_for_skeleton(
        skeleton, rng, distribution=distribution, distributions=distributions
    )
    return skeleton, rows
