"""Differential parity: depth-block execution against the sequential run.

A0, A0′, TA, NRA and the naive scan take the depth-block path
(:mod:`repro.algorithms.block`) on a fresh columnar session and the
sequential path everywhere else.
Every property here runs one algorithm twice over the same store —
once on ``store.session()`` and once on a session whose sources are
wrapped, which hides the index and forces the sequential code — and
requires identical items, per-list ledgers, details and guarantees.
A spy on the block methods proves which path each run took.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.access import ColumnarScoringDatabase, MiddlewareSession
from repro.access.columnar import ColumnarSource
from repro.access.source import SortedRandomSource
from repro.algorithms.base import top_k_of, top_k_select
from repro.algorithms.fa import FaginA0
from repro.algorithms.fa_min import FaginA0Min
from repro.algorithms.naive import NaiveAlgorithm
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core import means, tconorms, tnorms
from repro.core.aggregation import AggregationFunction
from repro.core.means import (
    GEOMETRIC_MEAN,
    GymnasticsTrimmedMean,
    WeightedArithmeticMean,
    WeightedGeometricMean,
)
from repro.core.tnorms import MINIMUM, MinimumTNorm

TIED_GRADES = (0.0, 0.25, 0.5, 0.75, 1.0)
EPSILONS = (0.0, 0.01, 0.05, 0.5)

#: Every module-level aggregation the library ships, monotone ones only.
SHIPPED = tuple(
    value
    for module in (tnorms, tconorms, means)
    for value in vars(module).values()
    if isinstance(value, AggregationFunction) and value.monotone
)


def aggregations_for(m: int) -> list[AggregationFunction]:
    """The shipped aggregations plus the per-arity constructed ones."""
    weights = [i + 1.0 for i in range(m)]
    found = [
        *SHIPPED,
        WeightedArithmeticMean(weights),
        WeightedGeometricMean(weights),
    ]
    if m >= 3:
        found.append(GymnasticsTrimmedMean(m))
    return found


class Hidden(SortedRandomSource):
    """A forwarding wrapper: same accesses, no block methods, no index."""

    def __init__(self, inner: SortedRandomSource) -> None:
        self._inner = inner
        self.name = inner.name

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def position(self) -> int:
        return self._inner.position

    def next_sorted(self):
        return self._inner.next_sorted()

    def random_access(self, obj):
        return self._inner.random_access(obj)

    def sorted_access_batch(self, count):
        return self._inner.sorted_access_batch(count)

    def random_access_many(self, objs):
        return self._inner.random_access_many(objs)

    def restart(self) -> None:
        self._inner.restart()


def hidden_session(store: ColumnarScoringDatabase) -> MiddlewareSession:
    """``store.session()``'s sources behind :class:`Hidden` wrappers."""
    plain = store.session()
    return MiddlewareSession.over_sources(
        [Hidden(source._inner) for source in plain.sources],
        num_objects=store.num_objects,
    )


class _ScalarOnly(AggregationFunction):
    """A kernel-less clone of an aggregation (scalar fold only)."""

    def __init__(self, inner: AggregationFunction) -> None:
        self._inner = inner
        self.name = inner.name
        self.arity = inner.arity
        self.monotone = inner.monotone
        self.strict = inner.strict

    def aggregate(self, grades):
        return self._inner.aggregate(grades)

    def evaluate_trusted(self, grades):
        return self._inner.evaluate_trusted(grades)


class _MinSubclass(MinimumTNorm):
    """A min subclass: A0′ accepts it, the kernel registry does not."""


@pytest.fixture
def block_calls(monkeypatch):
    """Counts calls to the columnar block methods."""
    calls = {"sorted": 0, "random": 0}
    sorted_block = ColumnarSource.sorted_access_block
    random_block = ColumnarSource.random_access_block

    def spy_sorted(self, count):
        calls["sorted"] += 1
        return sorted_block(self, count)

    def spy_random(self, ids):
        calls["random"] += 1
        return random_block(self, ids)

    monkeypatch.setattr(ColumnarSource, "sorted_access_block", spy_sorted)
    monkeypatch.setattr(ColumnarSource, "random_access_block", spy_random)
    return calls


def signature(result) -> tuple:
    return (
        tuple((item.obj, item.grade) for item in result.items),
        result.stats.sorted_by_list,
        result.stats.random_by_list,
        dict(result.details),
        result.guarantee,
    )


def outcome(run):
    """A run's signature, or the type of the error it raised."""
    try:
        return signature(run())
    except Exception as error:  # both paths must raise alike
        return type(error)


@st.composite
def stores(draw):
    """A store with N in 1..200 and m in 1..4, heavy ties or not, plus
    a k in 1..N and an aggregation for its arity."""
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, 4))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(n).tolist()
    lists = []
    for _ in range(m):
        if tied:
            grades = rng.choice(TIED_GRADES, size=n)
        else:
            grades = rng.random(n)
        lists.append(dict(zip(ids, grades.tolist())))
    store = ColumnarScoringDatabase(lists)
    k = draw(st.integers(1, n))
    aggregation = draw(st.sampled_from(aggregations_for(m)))
    return store, k, aggregation


PARITY = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_parity(algorithm, store, aggregation, k, epsilon=None):
    block = outcome(
        lambda: algorithm.top_k(store.session(), aggregation, k, epsilon)
    )
    sequential = outcome(
        lambda: algorithm.top_k(hidden_session(store), aggregation, k, epsilon)
    )
    assert block == sequential


@PARITY
@given(stores())
def test_fagin_block_matches_sequential(case):
    store, k, aggregation = case
    assert_parity(FaginA0(), store, aggregation, k)


@PARITY
@given(stores())
def test_fagin_min_block_matches_sequential(case):
    store, k, _ = case
    assert_parity(FaginA0Min(), store, MINIMUM, k)


@PARITY
@given(stores(), st.sampled_from(EPSILONS))
def test_threshold_block_matches_sequential(case, epsilon):
    store, k, aggregation = case
    assert_parity(ThresholdAlgorithm(), store, aggregation, k, epsilon)


@PARITY
@given(stores(), st.sampled_from(EPSILONS))
def test_nra_block_matches_sequential(case, epsilon):
    store, k, aggregation = case
    assert_parity(NoRandomAccessAlgorithm(), store, aggregation, k, epsilon)


@PARITY
@given(stores())
def test_naive_block_matches_sequential(case):
    store, k, aggregation = case
    assert_parity(NaiveAlgorithm(), store, aggregation, k)


# ----------------------------------------------------------------------
# Which path runs
# ----------------------------------------------------------------------


def tied_store(n: int = 60, m: int = 3, seed: int = 5):
    rng = np.random.default_rng(seed)
    return ColumnarScoringDatabase(
        [
            {j: float(rng.choice(TIED_GRADES)) for j in range(n)}
            for _ in range(m)
        ]
    )


@pytest.mark.parametrize(
    "algorithm,aggregation",
    [
        (FaginA0(), means.ARITHMETIC_MEAN),
        (FaginA0(), GEOMETRIC_MEAN),
        (FaginA0(), _ScalarOnly(MINIMUM)),
        (FaginA0Min(), MINIMUM),
        (ThresholdAlgorithm(), MINIMUM),
        (ThresholdAlgorithm(), means.HARMONIC_MEAN),
        (NoRandomAccessAlgorithm(), MINIMUM),
        (NoRandomAccessAlgorithm(), means.ARITHMETIC_MEAN),
        (NaiveAlgorithm(), means.ARITHMETIC_MEAN),
    ],
    ids=lambda a: getattr(a, "name", None),
)
def test_fresh_columnar_sessions_take_the_block_path(
    block_calls, algorithm, aggregation
):
    store = tied_store()
    assert_parity(algorithm, store, aggregation, 7)
    assert block_calls["sorted"] == store.num_lists


@pytest.mark.parametrize(
    "algorithm,aggregation",
    [
        (ThresholdAlgorithm(), GEOMETRIC_MEAN),
        (ThresholdAlgorithm(), WeightedGeometricMean([1.0, 2.0, 3.0])),
        (ThresholdAlgorithm(), _ScalarOnly(MINIMUM)),
        (FaginA0Min(), _MinSubclass()),
        (NoRandomAccessAlgorithm(), GEOMETRIC_MEAN),
        (NoRandomAccessAlgorithm(), _ScalarOnly(MINIMUM)),
        (NaiveAlgorithm(), GEOMETRIC_MEAN),
        (NaiveAlgorithm(), _ScalarOnly(MINIMUM)),
    ],
    ids=lambda a: getattr(a, "name", None),
)
def test_inexact_or_kernel_less_aggregations_decline(
    block_calls, algorithm, aggregation
):
    store = tied_store()
    result = algorithm.top_k(store.session(), aggregation, 7)
    assert block_calls == {"sorted": 0, "random": 0}
    assert signature(result) == signature(
        algorithm.top_k(hidden_session(store), aggregation, 7)
    )


ALGORITHMS = [
    FaginA0(),
    FaginA0Min(),
    ThresholdAlgorithm(),
    NoRandomAccessAlgorithm(),
    NaiveAlgorithm(),
]
#: The naive scan rejects a half-consumed session on both paths (its
#: lists no longer deliver every object), so it has its own test.
EARLY_STOPPING = ALGORITHMS[:-1]


@pytest.mark.parametrize("algorithm", EARLY_STOPPING, ids=lambda a: a.name)
def test_half_consumed_sessions_decline(block_calls, algorithm):
    store = tied_store()
    session = store.session()
    session.sources[1].next_sorted()
    hidden = hidden_session(store)
    hidden.sources[1].next_sorted()
    result = algorithm.top_k(session, MINIMUM, 5)
    assert block_calls == {"sorted": 0, "random": 0}
    assert signature(result) == signature(
        algorithm.top_k(hidden, MINIMUM, 5)
    )


def test_half_consumed_sessions_decline_the_naive_scan(block_calls):
    store = tied_store()
    session = store.session()
    session.sources[1].next_sorted()
    hidden = hidden_session(store)
    hidden.sources[1].next_sorted()
    naive = NaiveAlgorithm()
    with pytest.raises(ValueError, match="missing from list"):
        naive.top_k(session, MINIMUM, 5)
    assert block_calls == {"sorted": 0, "random": 0}
    with pytest.raises(ValueError, match="missing from list"):
        naive.top_k(hidden, MINIMUM, 5)


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
def test_restarted_sessions_take_the_block_path_again(block_calls, algorithm):
    store = tied_store()
    session = store.session()
    first = signature(algorithm.top_k(session, MINIMUM, 5))
    session.restart_all()
    assert signature(algorithm.top_k(session, MINIMUM, 5)) == first
    assert block_calls["sorted"] == 2 * store.num_lists


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
def test_subsessions_decline(block_calls, algorithm):
    store = tied_store(m=3)
    sub = store.session().subsession([0, 2])
    assert sub.depth_index is None
    result = algorithm.top_k(sub, MINIMUM, 5)
    assert block_calls == {"sorted": 0, "random": 0}
    expected = algorithm.top_k(hidden_session(store).subsession([0, 2]), MINIMUM, 5)
    assert signature(result) == signature(expected)


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
def test_wrapped_sources_decline(block_calls, algorithm):
    store = tied_store()
    algorithm.top_k(hidden_session(store), MINIMUM, 5)
    assert block_calls == {"sorted": 0, "random": 0}


# ----------------------------------------------------------------------
# The numpy selection helper
# ----------------------------------------------------------------------


@st.composite
def scored_objects(draw):
    n = draw(st.integers(0, 80))
    kind = draw(st.sampled_from(("int", "str", "mixed")))
    objects = []
    for j in range(n):
        if kind == "int" or (kind == "mixed" and j % 2):
            objects.append(j * 7 - 100)
        else:
            objects.append(f"obj-{j}")
    grades = draw(
        st.lists(
            st.sampled_from(TIED_GRADES)
            | st.floats(0.0, 1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n + 3))
    return objects, grades, order, k


@settings(max_examples=300, deadline=None)
@given(scored_objects())
def test_top_k_select_is_top_k_of(case):
    objects, grades, order, k = case
    pairs = [(objects[j], grades[j]) for j in order]
    ids = np.asarray(order, dtype=np.intp)
    vector = np.asarray([grades[j] for j in order], dtype=np.float64)
    assert top_k_select(vector, k, objects, ids) == top_k_of(pairs, k)


def test_top_k_select_handles_a_huge_tie_group():
    n = 5000
    objects = list(range(n, 0, -1))
    grades = np.full(n, 0.5)
    grades[::1000] = 0.75
    want = top_k_of(list(zip(objects, grades.tolist())), 10)
    assert top_k_select(grades, 10, objects) == want
    assert [item.obj for item in want][:5] == [1000, 2000, 3000, 4000, 5000]


def test_true_top_k_matches_the_pair_selection():
    store = tied_store(n=400, m=3, seed=11)
    for aggregation in (MINIMUM, means.ARITHMETIC_MEAN, GEOMETRIC_MEAN):
        scores = store.overall_grades(aggregation).as_dict()
        for k in (1, 10, 57, 400):
            assert store.true_top_k(aggregation, k) == top_k_of(
                list(scores.items()), k
            )


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
def test_non_integer_object_ids_keep_parity(block_calls, algorithm):
    rng = np.random.default_rng(3)
    names = [f"doc-{j}" for j in range(90)] + [(j, "pair") for j in range(30)]
    store = ColumnarScoringDatabase(
        [
            {obj: float(rng.choice(TIED_GRADES)) for obj in names}
            for _ in range(3)
        ]
    )
    for k in (1, 9, 120):
        assert_parity(algorithm, store, MINIMUM, k)
    assert block_calls["sorted"] == 3 * store.num_lists


@pytest.mark.parametrize(
    "algorithm",
    [FaginA0(), ThresholdAlgorithm(), NoRandomAccessAlgorithm()],
    ids=lambda a: a.name,
)
def test_wrong_arity_raises_on_both_paths(algorithm):
    from repro.exceptions import AggregationArityError

    store = tied_store(m=3)
    weighted = WeightedArithmeticMean([1.0, 2.0])  # arity 2, three lists
    with pytest.raises(AggregationArityError):
        algorithm.top_k(store.session(), weighted, 4)
    with pytest.raises(AggregationArityError):
        algorithm.top_k(hidden_session(store), weighted, 4)


# ----------------------------------------------------------------------
# The adaptive chooser stays on the block path
# ----------------------------------------------------------------------

#: The strategy behind each ``TopKResult.algorithm`` name.
BY_NAME = {
    algorithm.name: type(algorithm)
    for algorithm in (*ALGORITHMS, FaginA0Min())
}


def test_chooser_trials_and_overrides_never_leave_the_block_path(monkeypatch):
    """Enough traffic per shape for the chooser's exploration slots to
    trial every candidate and for its ledger to override the static
    choice: every run still takes the block path (no session builds a
    ranking tuple or grade map) and matches the same strategy's
    sequential run."""
    from repro.core.means import ARITHMETIC_MEAN
    from repro.core.tnorms import ALGEBRAIC_PRODUCT
    from repro.engine import Engine
    from repro.workloads import independent_database

    store = ColumnarScoringDatabase.from_scoring_database(
        independent_database(3, 2000, seed=1)
    )
    # The sequential references run on a second store over the same
    # arrays, so only the engine's store is watched.
    reference = ColumnarScoringDatabase.from_frozen_arrays(
        store.interned_objects, store._columns, store._orders
    )
    built = []
    for name in ("ranking", "_grade_map"):
        original = getattr(ColumnarScoringDatabase, name)

        def spy(self, list_index, original=original, name=name):
            if self is store:
                built.append((name, list_index))
            return original(self, list_index)

        monkeypatch.setattr(ColumnarScoringDatabase, name, spy)

    mix = [
        (MINIMUM, 10, None),
        (MINIMUM, 100, None),
        (ARITHMETIC_MEAN, 10, None),
        (ALGEBRAIC_PRODUCT, 10, None),
        (MINIMUM, 10, 0.05),
    ]
    engine = Engine.over(store)
    expected = {}
    ran = set()
    for _ in range(700):
        for aggregation, k, epsilon in mix:
            query = engine.query(aggregation)
            if epsilon is not None:
                query = query.epsilon(epsilon)
            result = query.top(k)
            key = (result.algorithm, aggregation.name, k, epsilon)
            if key not in expected:
                expected[key] = signature(
                    BY_NAME[result.algorithm]().top_k(
                        hidden_session(reference), aggregation, k, epsilon
                    )
                )
            assert signature(result) == expected[key], key
            ran.add(result.algorithm)
    assert built == []
    metrics = engine.metrics_snapshot()["planner"]["chooser"]
    assert metrics["explorations"] > 0 and metrics["overrides"] > 0
    assert {"NRA", "naive", "TA"} <= ran
