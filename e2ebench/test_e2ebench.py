"""The benchmark's own checks: its oracles flag wrong answers, any
failed request makes a run incorrect, and times are scaled by the
host-speed reference."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.serving.__main__ import build_engine
from repro.serving.protocol import NAMED_AGGREGATIONS

from drive import Record, check, summarise
from oracle import CatalogOracle, StoreOracle
from reference import NOMINAL_MS, Reference
from run import outcome
from workloads import Query, _render


def _wire(items) -> list[dict]:
    return [{"obj": item.obj, "grade": item.grade} for item in items]


@pytest.fixture(scope="module")
def store_oracle() -> StoreOracle:
    return StoreOracle(n=300, m=2, seed=3)


def _store_query(k=10, epsilon=0.0, aggregation="min") -> Query:
    return Query("q", {"aggregation": aggregation, "k": k}, k, epsilon)


def test_store_oracle_accepts_the_true_top_k(store_oracle):
    for aggregation in ("min", "mean", "product"):
        top = store_oracle.store.true_top_k(NAMED_AGGREGATIONS[aggregation], 10)
        query = _store_query(aggregation=aggregation)
        assert store_oracle.check(query, _wire(top)) is None


def test_store_oracle_flags_corrupted_answers(store_oracle):
    top = _wire(store_oracle.store.true_top_k(NAMED_AGGREGATIONS["min"], 11))
    answer, outsider = top[:10], top[10]
    query = _store_query()
    swapped = answer[:-2] + [outsider, answer[-1]]  # a lower object in
    assert store_oracle.check(query, swapped) is not None
    regraded = answer[:-1] + [{**answer[-1], "grade": answer[-1]["grade"] + 0.01}]
    assert "graded" in store_oracle.check(query, regraded)
    assert "twice" in store_oracle.check(query, answer[:-1] + [answer[0]])
    assert "items" in store_oracle.check(query, answer[:-1])
    unknown = answer[:-1] + [{"obj": "nobody", "grade": 0.5}]
    assert "unknown" in store_oracle.check(query, unknown)


def test_epsilon_answers_are_checked_by_their_certificate(store_oracle):
    top = _wire(store_oracle.store.true_top_k(NAMED_AGGREGATIONS["min"], 11))
    near = top[:9] + [top[10]]  # misses the 10th by a small margin
    gap = top[9]["grade"] / top[10]["grade"] - 1.0
    assert store_oracle.check(_store_query(), near) is not None
    assert store_oracle.check(_store_query(epsilon=gap * 1.01), near) is None
    assert store_oracle.check(_store_query(epsilon=gap * 0.5), near) is not None


def test_catalog_oracle_agrees_with_the_engine_and_flags_corruption():
    n, seed = 400, 5
    engine = build_engine(
        argparse.Namespace(backing="catalog", n=n, seed=seed, shards=0)
    )
    oracle = CatalogOracle(n, seed)
    exprs = [
        ("and", ("eq", "Artist", "artist-3"), ("sim", "Color", "red")),
        ("or", ("sim", "Color", "blue"), ("sim", "Color", "pink")),
        ("sim", "Color", "o17"),
    ]
    for expr in exprs:
        query = Query("q", {"query": _render(expr), "k": 5}, 5, expr=expr)
        answer = _wire(engine.query(query.body["query"]).top(5).items)
        assert oracle.check(query, answer) is None
        corrupted = answer[:-1] + [{**answer[-1], "grade": 0.0}]
        assert oracle.check(query, corrupted) is not None


def test_check_marks_wrong_answers_as_failed(store_oracle):
    top = _wire(store_oracle.store.true_top_k(NAMED_AGGREGATIONS["min"], 11))
    query = _store_query()

    def record(items):
        body = json.dumps({"items": items, "stats": {"sorted": 5, "random": 3}})
        return Record(0, query, "query", 200, 0.0, 0.0, 0.001, False, body.encode())

    good, bad = record(top[:10]), record(top[1:11])
    assert check([good, bad], store_oracle) == 1
    assert good.ok and good.accesses == 8
    assert not bad.ok and "wrong answer" in bad.error


def test_cursor_pages_are_checked_as_growing_prefixes(store_oracle):
    top = _wire(store_oracle.store.true_top_k(NAMED_AGGREGATIONS["min"], 20))
    query = Query("c", {"aggregation": "min", "page_size": 10}, 10, pages=2)

    def page(items):
        body = json.dumps({"items": items, "stats": {"sorted": 1, "random": 1}})
        return Record(0, query, "next", 200, 0.0, 0.0, 0.001, False, body.encode())

    assert check([page(top[:10]), page(top[10:20])], store_oracle) == 0
    assert check([page(top[:10]), page(top[:10])], store_oracle) == 1


def test_a_failed_request_in_the_window_makes_the_run_incorrect(store_oracle):
    top = _wire(store_oracle.store.true_top_k(NAMED_AGGREGATIONS["min"], 10))
    query = _store_query()
    body = json.dumps({"items": top, "stats": {"sorted": 5, "random": 3}})
    good = Record(0, query, "query", 200, 0.0, 0.0, 0.001, False, body.encode())
    shed = Record(1, query, "query", 503, 0.0, 0.0, 0.001, False, b"{}",
                  error="HTTP 503")
    assert check([good, shed], store_oracle) == 0
    assert outcome([good]) == {"correct": True, "attempted": 1, "failed": 0}
    assert outcome([good, shed]) == {"correct": False, "attempted": 2, "failed": 1}


def test_latencies_are_scaled_by_the_reference_and_kept_raw(store_oracle):
    top = _wire(store_oracle.store.true_top_k(NAMED_AGGREGATIONS["min"], 10))
    body = json.dumps({"items": top, "stats": {"sorted": 5, "random": 3}})
    fast, slow = _store_query(), Query("slow", {"aggregation": "min", "k": 10}, 10)

    def record(i, query, ms):
        return Record(i, query, "query", 200, 0.0, 0.0, ms * 1e-3, False,
                      body.encode())

    records = [record(i, fast, 1.0 + i) for i in range(30)]
    records += [record(30 + i, slow, 100.0 + i) for i in range(21)]
    records.append(record(51, Query("rare", fast.body, 10), 1e4))  # too few
    check(records, store_oracle)
    metrics = summarise(records, 1.0, len(records), scale=0.5)
    assert metrics["raw"]["slowest_kind_p50_ms"] == pytest.approx(110.0)
    assert metrics["slowest_kind_p50_ms"] == pytest.approx(55.0)
    assert metrics["latency_p50_ms"] == pytest.approx(
        metrics["raw"]["latency_p50_ms"] * 0.5
    )
    assert metrics["accesses_per_query"] == 8


def test_the_reference_times_every_call_and_scales_to_nominal():
    reference = Reference()
    reference.block()
    reference.block()
    assert len(reference.times_ms) == 4
    assert reference.scale() == pytest.approx(NOMINAL_MS / reference.median_ms())
    assert reference.scale(1.5) == pytest.approx(reference.scale() ** 1.5)
