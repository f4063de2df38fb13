"""Tests for the columnar scoring-database backend."""

import numpy as np
import pytest

from repro.access.columnar import ColumnarScoringDatabase
from repro.access.scoring_database import ScoringDatabase
from repro.core.tnorms import MINIMUM
from repro.workloads.skeletons import independent_database, random_skeleton
from repro.workloads.distributions import Crisp
import random

from repro.workloads.skeletons import grades_for_skeleton


@pytest.fixture
def row_db() -> ScoringDatabase:
    return independent_database(3, 120, seed=21)


@pytest.fixture
def col_db(row_db) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(row_db)


class TestConstruction:
    def test_dimensions(self, row_db, col_db):
        assert col_db.num_lists == row_db.num_lists
        assert col_db.num_objects == row_db.num_objects
        assert col_db.objects == row_db.objects

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ColumnarScoringDatabase([])
        with pytest.raises(ValueError):
            ColumnarScoringDatabase([{}])

    def test_rejects_mismatched_domains(self):
        with pytest.raises(ValueError, match="different object set"):
            ColumnarScoringDatabase([{"a": 0.5, "b": 0.4}, {"a": 0.5, "c": 0.4}])
        with pytest.raises(ValueError, match="different object set"):
            ColumnarScoringDatabase([{"a": 0.5}, {"a": 0.5, "b": 0.4}])

    def test_rejects_bad_grades(self):
        with pytest.raises(Exception):
            ColumnarScoringDatabase([{"a": 1.5}])

    def test_arbitrary_hashable_objects(self):
        db = ColumnarScoringDatabase(
            [{("x", 1): 0.9, "y": 0.2}, {("x", 1): 0.1, "y": 0.8}]
        )
        assert db.grade(0, ("x", 1)) == 0.9
        assert db.grade(1, "y") == 0.8
        # The key-sorted orders of non-integer ids are frozen arrays
        # too, shared as-is by the depth index.
        index = db.depth_index()
        for i in range(db.num_lists):
            order = db._orders[i]
            assert isinstance(order, np.ndarray) and not order.flags.writeable
            assert index.orders[i] is order

    def test_from_skeleton(self):
        rng = random.Random(5)
        skeleton = random_skeleton(2, 30, rng)
        rows = grades_for_skeleton(skeleton, rng)
        row = ScoringDatabase.from_skeleton(skeleton, rows)
        col = ColumnarScoringDatabase.from_skeleton(skeleton, rows)
        for i in range(2):
            assert col.ranking(i) == row.ranking(i)


def assert_same_store(got, want):
    """Same interned objects, bit-identical columns, same rank orders."""
    assert got.interned_objects == want.interned_objects
    assert got.num_lists == want.num_lists
    for i in range(want.num_lists):
        assert got._columns[i].dtype == want._columns[i].dtype
        assert got._columns[i].tobytes() == want._columns[i].tobytes()
        assert np.array_equal(got._orders[i], want._orders[i])


class TestStraightToColumnsBuild:
    """``from_skeleton`` scatters rows into columns without the row
    database; the serving CLI builds its store that way."""

    @pytest.mark.parametrize(
        "m,n,seed", [(1, 40, 0), (2, 300, 3), (3, 1000, 1), (4, 257, 9)]
    )
    def test_cli_store_equals_the_columnarised_row_database(self, m, n, seed):
        import argparse

        from repro.serving.__main__ import build_engine

        engine = build_engine(
            argparse.Namespace(
                backing="columnar", m=m, n=n, seed=seed, shards=0,
                shard_processes=None,
            )
        )
        assert_same_store(
            engine._backing,
            ColumnarScoringDatabase.from_scoring_database(
                independent_database(m, n, seed)
            ),
        )

    def test_tied_rows_build_the_same_store(self):
        rng = random.Random(8)
        skeleton = random_skeleton(3, 200, rng)
        rows = grades_for_skeleton(skeleton, rng, distribution=Crisp(0.5))
        assert_same_store(
            ColumnarScoringDatabase.from_skeleton(skeleton, rows),
            ColumnarScoringDatabase.from_scoring_database(
                ScoringDatabase.from_skeleton(skeleton, rows)
            ),
        )

    @staticmethod
    def _broken(case):
        rng = random.Random(2)
        skeleton = random_skeleton(3, 20, rng)
        rows = grades_for_skeleton(skeleton, rng)
        if case == "row count":
            rows = rows[:2]
        elif case == "row length":
            rows[1] = rows[1][:-1]
        elif case == "increasing row":
            rows[2][3], rows[2][4] = rows[2][4], rows[2][3]
        elif case == "nan grade":
            rows[1][-1] = float("nan")
        elif case == "grade above 1":
            rows[0][0] = 1.5
        elif case == "grade below 0":
            rows[2][-1] = -0.25
        elif case == "non-numeric grade":
            rows[1][-1] = None
        return skeleton, rows

    @pytest.mark.parametrize(
        "case",
        [
            "row count",
            "row length",
            "increasing row",
            "nan grade",
            "grade above 1",
            "grade below 0",
            "non-numeric grade",
        ],
    )
    def test_direct_build_raises_like_the_round_trip(self, case):
        skeleton, rows = self._broken(case)
        with pytest.raises(Exception) as round_trip:
            ColumnarScoringDatabase.from_scoring_database(
                ScoringDatabase.from_skeleton(skeleton, rows)
            )
        with pytest.raises(Exception) as direct:
            ColumnarScoringDatabase.from_skeleton(skeleton, rows)
        assert type(direct.value) is type(round_trip.value)
        assert str(direct.value) == str(round_trip.value)


class TestParityWithRowDatabase:
    def test_rankings_identical(self, row_db, col_db):
        for i in range(row_db.num_lists):
            assert col_db.ranking(i) == row_db.ranking(i)

    def test_grades_identical(self, row_db, col_db):
        for i in range(row_db.num_lists):
            for obj in row_db.objects:
                assert col_db.grade(i, obj) == row_db.grade(i, obj)

    def test_graded_sets_identical(self, row_db, col_db):
        for i in range(row_db.num_lists):
            assert col_db.graded_set(i).as_dict() == row_db.graded_set(i).as_dict()

    def test_overall_grades_identical(self, row_db, col_db):
        assert (
            col_db.overall_grades(MINIMUM).as_dict()
            == row_db.overall_grades(MINIMUM).as_dict()
        )

    def test_true_top_k_identical(self, row_db, col_db):
        assert col_db.true_top_k(MINIMUM, 7) == row_db.true_top_k(MINIMUM, 7)

    def test_tied_grades_rank_identically(self):
        """Crisp (0/1) grades force heavy ties; the tie-break must agree."""
        rng = random.Random(9)
        skeleton = random_skeleton(2, 40, rng)
        rows = grades_for_skeleton(skeleton, rng, Crisp(0.3))
        row = ScoringDatabase.from_skeleton(skeleton, rows)
        col = ColumnarScoringDatabase.from_scoring_database(row)
        for i in range(2):
            assert col.ranking(i) == row.ranking(i)


class TestSessions:
    def test_session_minted_without_resorting_shares_rankings(self, col_db):
        first = col_db.ranking(0)
        session = col_db.session()
        # The session's sources slice the very same ranking tuple.
        assert session.sources[0].sorted_access_batch(3) == first[:3]

    def test_sessions_have_independent_cursors(self, col_db):
        s1, s2 = col_db.session(), col_db.session()
        s1.sources[0].sorted_access_batch(10)
        assert s2.sources[0].position == 0
        assert s1.sources[0].position == 10

    def test_sessions_have_independent_trackers(self, col_db):
        s1, s2 = col_db.session(), col_db.session()
        s1.sources[1].next_sorted()
        assert s1.tracker.snapshot().sorted_cost == 1
        assert s2.tracker.snapshot().sorted_cost == 0

    def test_session_counts_match_row_database_session(self, row_db, col_db):
        from repro.algorithms.fa import FaginA0

        r_row = FaginA0().top_k(row_db.session(), MINIMUM, 5)
        r_col = FaginA0().top_k(col_db.session(), MINIMUM, 5)
        assert r_row.items == r_col.items
        assert r_row.stats == r_col.stats

    def test_engine_over_columnar(self, col_db):
        from repro import Engine

        result = Engine.over(col_db).query(MINIMUM).top(5)
        assert result.k == 5
