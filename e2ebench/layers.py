"""The traced run: per-layer timings on the same seeded queries.

The untraced run (``run.py --trace 0``) gives the end-to-end numbers;
this run (``--trace 1``) times the public entry point of each layer,
from the benchmark's own files, so a change can name the layer it
moved. A query passes through::

    socket -> ServingApp.handle -> AsyncEngine.top_k -> Engine.query().top()
           -> the chosen strategy (stores) or Executor.execute (catalog)
           -> sorted / random access on the sources

Each entry point is called separately on the same sample of the
workload's queries, and a layer's self time is the per-query median
of its time minus its callee's. The self times therefore add up to
the socket time by construction (up to the medians): they decompose
it, they do not check it. Only the source wrapper nests: an engine
backed by :class:`TracingSource`-wrapped sessions attributes every
access call to the span that is open around it, so the access layer's
share of an algorithm run is measured inside that run. What that
wrapping costs is ``trace.overhead_ratio``: the reference strategies
run over wrapped sessions, against the same runs over plain ones.

Spans (name, start, end, parent, query id, aggregated access children)
are kept in memory and written out when the run ends. One traced call
runs at a time, so one span stack serves the caller and the engine's
pool thread alike.

Layers off a workload's own path are measured on a companion built
from the same seeds, so every traced run reports every metric:

* store workloads time ``middleware.*`` and ``subsystems.*`` on the
  federated-catalog workload's catalog at n=2,000;
* the catalog workload times ``algorithms.*``, ``access.*``,
  ``core.*`` and ``sharding.*`` on a columnar store of two of its own
  hot colour atoms (n=20,000, m=2).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import itertools
import json
import statistics
import threading
import time
from multiprocessing import resource_tracker
from contextlib import contextmanager
from typing import Sequence

from repro.access import ColumnarScoringDatabase, MiddlewareSession
from repro.access.source import MaterializedSource, SortedRandomSource
from repro.core.query import AtomicQuery
from repro.engine import Engine
from repro.engine.registry import available_strategies, create_strategy
from repro.middleware.executor import Executor
from repro.middleware.parser import parse_query
from repro.serving.__main__ import build_engine
from repro.serving.app import ServingApp
from repro.serving.config import ServingConfig
from repro.serving.protocol import NAMED_AGGREGATIONS, HttpRequest

from drive import check, closed_loop, open_loop
from oracle import oracle_for
from server import Connection, Server
from workloads import Query, Workload, declared_metrics, load_workloads

__all__ = ["Tracer", "TracingSource", "traced_run"]

#: The strategies the mixes reach, each timed on a reference query:
#: registry name -> (aggregation, k, epsilon).
REFERENCE_STRATEGIES = {
    "fagin-min": ("min", 10, 0.0),
    "fagin": ("mean", 10, 0.0),
    "threshold": ("min", 10, 0.05),
}

#: Queries in the decomposition sample, and the least number of
#: rounds over it; further rounds run while the time budget lasts.
SAMPLE_SIZE = 6
MIN_ROUNDS = 2

#: Share of ``--seconds`` spent driving the server with the
#: workload's own loop (shedding and sender lateness).
LOOP_SHARE = 0.2

#: The companion catalog's population (store workloads).
COMPANION_CATALOG_N = 2_000

#: Shards and pool width of the sharding probe.
SHARDS, SHARD_PROCESSES = 4, 2


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans; access calls aggregate into the open span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, qid: int):
        with self._lock:
            record = {
                "name": name,
                "qid": qid,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans),
                "start": time.perf_counter(),
                "end": None,
                "children": {},
            }
            self.spans.append(record)
            self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            with self._lock:
                self._stack.remove(record)

    def charge(self, kind: str, items: int, seconds: float) -> None:
        """Attribute one access call to the innermost open span."""
        with self._lock:
            if self._stack:
                cell = self._stack[-1]["children"].setdefault(kind, [0, 0, 0.0])
                cell[0] += 1
                cell[1] += items
                cell[2] += seconds


def span_ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


class TracingSource(SortedRandomSource):
    """Forwards every access to ``inner`` and times it into the tracer."""

    def __init__(self, inner: SortedRandomSource, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def position(self) -> int:
        return self._inner.position

    def _charge(self, kind: str, items: int, start: float) -> None:
        self._tracer.charge(kind, items, time.perf_counter() - start)

    def next_sorted(self):
        start = time.perf_counter()
        item = self._inner.next_sorted()
        self._charge("sorted", 1, start)
        return item

    def random_access(self, obj):
        start = time.perf_counter()
        grade = self._inner.random_access(obj)
        self._charge("random", 1, start)
        return grade

    def sorted_access_batch(self, count: int):
        start = time.perf_counter()
        batch = self._inner.sorted_access_batch(count)
        self._charge("sorted", len(batch), start)
        return batch

    def random_access_many(self, objs):
        start = time.perf_counter()
        grades = self._inner.random_access_many(objs)
        self._charge("random", len(grades), start)
        return grades

    def restart(self) -> None:
        self._inner.restart()

    def fork(self) -> "TracingSource":
        return TracingSource(self._inner.fork(), self._tracer)


def tracing_factory(store: ColumnarScoringDatabase, tracer: Tracer):
    """A session factory equal to ``store.session()`` but for the wrapper."""
    matrix = store.grades_matrix()
    objects = store.interned_objects
    grade_maps = [dict(zip(objects, row.tolist())) for row in matrix]
    rankings = [store.ranking(i) for i in range(store.num_lists)]

    def session() -> MiddlewareSession:
        raw = [
            TracingSource(
                MaterializedSource.trusted(f"list-{i}", rankings[i], grade_maps[i]),
                tracer,
            )
            for i in range(store.num_lists)
        ]
        return MiddlewareSession.over_sources(raw, num_objects=store.num_objects)

    return session


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _timed_ms(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1e3, out


def _strategy_name(label: str) -> str:
    """Registry name of a result's ``algorithm`` label."""
    for name in available_strategies():
        if create_strategy(name).name == label:
            return name
    raise KeyError(f"no registered strategy is labelled {label!r}")


def _signature(result) -> tuple:
    """What parity compares: algorithm, items, per-list ledgers."""
    result = getattr(result, "result", result)
    return (
        result.algorithm,
        tuple((item.obj, item.grade) for item in result.items),
        result.stats.sorted_by_list,
        result.stats.random_by_list,
    )


def _wire_signature(payload: dict) -> tuple:
    return (
        payload["algorithm"],
        tuple((item["obj"], item["grade"]) for item in payload["items"]),
        payload["stats"]["sorted"],
        payload["stats"]["random"],
    )


def _engine_call(engine: Engine, query: Query):
    builder = engine.query(_engine_query(query))
    if query.epsilon:
        builder.epsilon(query.epsilon)
    return builder.top(query.k)


def _engine_query(query: Query):
    if "query" in query.body:
        return query.body["query"]
    return NAMED_AGGREGATIONS[query.body["aggregation"]]


class Samples:
    """Per-(metric, query) timing samples across rounds."""

    def __init__(self) -> None:
        self._values: dict[str, dict[int, list[float]]] = {}

    def add(self, metric: str, qid: int, value: float) -> None:
        self._values.setdefault(metric, {}).setdefault(qid, []).append(value)

    def per_query(self, metric: str) -> dict[int, float]:
        return {q: _median(v) for q, v in self._values[metric].items()}

    def median(self, metric: str) -> float:
        return _median(list(self.per_query(metric).values()))

    def self_time(self, outer: str, inner: str) -> float:
        """Median over queries of (outer − inner)."""
        a, b = self.per_query(outer), self.per_query(inner)
        return _median([a[q] - b[q] for q in a])


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


class TracedRun:
    """One traced run of one workload; see the module docstring."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 root) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.tracer = Tracer()
        self.samples = Samples()
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.checked = 0
        self.ledgers_skipped = 0
        self.rounds = 0
        self._cold = 0
        self.oracle = oracle_for(workload)

    def run(self) -> dict:
        spec = self.workload.spec
        server = Server(self.root, self.workload.server_args())
        try:
            port = server.wait_ready()
            conn = Connection(port)
            stream = self.workload.stream(self.seed)
            warmup = spec["warmup_requests"]
            records, _ = closed_loop(
                conn, itertools.islice(stream, warmup), 0.0, warmup
            )
            records += self._drive(conn, port, stream, warmup)
            self.checked += len(records)
            check(records, self.oracle)
            self.failures += [r.error for r in records if r.error]
            sample = self._sample(stream)
            asyncio.run(self._rounds(conn, sample))
            self._scrape(conn)
            conn.close()
            server.stop()
            server = None
        finally:
            if server is not None:
                server.kill()
        self._derive()
        return {
            "correct": not self.failures,
            "attempted": self.checked,
            "failed": len(self.failures),
            "metrics": {
                name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in declared_metrics("per_layer").items()
            },
            "failures": self.failures[:10],
            "ledgers_skipped": self.ledgers_skipped,
            "rounds": self.rounds,
            "sample": [q.body for q in sample],
        }

    # -- inputs ----------------------------------------------------------

    def _sample(self, stream) -> list[Query]:
        """The first query of each warm one-shot label, then the next
        warm one-shot queries in stream order, up to SAMPLE_SIZE."""
        labels = {
            e["label"] for e in self.workload.spec["mix"]
            if "page_size" not in e and e.get("shape") != "example"
        }
        sample: list[Query] = []
        for query in stream:
            if query.pages or query.cold:
                continue
            if query.label in labels or not labels:
                labels.discard(query.label)
                sample.append(query)
            if len(sample) == SAMPLE_SIZE:
                return sample
        raise AssertionError("streams are endless")

    def _engines(self):
        """The traced engine, its untraced twin, and their store."""
        spec = self.workload.spec
        if self.workload.backing == "catalog":
            args = argparse.Namespace(
                backing="catalog", n=spec["n"], seed=self.workload.data_seed,
                shards=0,
            )
            return build_engine(args), build_engine(args), None
        store = self.oracle.store
        return (
            Engine.over(tracing_factory(store, self.tracer)),
            Engine.over(store),
            store,
        )

    def _colour_store(self, sample: list[Query]) -> ColumnarScoringDatabase:
        """The catalog workload's companion store: two hot colour atoms."""
        disjunction = next(q.expr for q in sample if q.expr[0] == "or")
        objects = list(self.oracle.index)
        return ColumnarScoringDatabase([
            dict(zip(objects, self.oracle.grades(atom).tolist()))
            for atom in disjunction[1:]
        ])

    def _companion_catalog(self) -> tuple[Engine, list[Query]]:
        """Store workloads' companion: the catalog workload at n=2,000."""
        base = load_workloads()["federated-catalog"]
        spec = {**base.spec, "n": COMPANION_CATALOG_N}
        companion = Workload(base.name, spec)
        engine = build_engine(argparse.Namespace(
            backing="catalog", n=COMPANION_CATALOG_N, seed=companion.data_seed,
            shards=0,
        ))
        stream = companion.stream(self.seed)
        for query in itertools.islice(stream, spec["warmup_requests"]):
            _engine_call(engine, query)
        queries = [q for q in itertools.islice(stream, 4 * SAMPLE_SIZE)
                   if not q.cold]
        return engine, queries[:SAMPLE_SIZE]

    # -- phases ----------------------------------------------------------

    def _drive(self, conn: Connection, port: int, stream, first_seq: int) -> list:
        """The workload's own loop, briefly: shedding and lateness."""
        spec = self.workload.spec
        seconds = self.seconds * LOOP_SHARE
        if spec["loop"] == "closed":
            records, _ = closed_loop(conn, stream, seconds, 1, first_seq)
        else:
            count = int(spec["rate_qps"] * seconds) + 1
            records, _ = open_loop(
                port, list(itertools.islice(stream, count)), spec["rate_qps"],
                seconds, spec["connections"], first_seq,
            )
        late = [r.late_ms for r in records]
        self.metrics["serving.gen_late_p95_ms"] = statistics.quantiles(
            late, n=20
        )[18]
        self.metrics["serving.response_bytes"] = _median(
            [len(r.body) for r in records if r.ok and r.answer]
        )
        return records

    async def _rounds(self, conn: Connection, sample: list[Query]) -> None:
        traced, untraced, store = self._engines()
        config = ServingConfig(max_workers=2, max_inflight=2)
        apps = (ServingApp(traced, config), ServingApp(untraced, config))
        if store is None:
            layer_store = self._colour_store(sample)
            catalog, catalog_sample = untraced, sample
        else:
            layer_store = store
            catalog, catalog_sample = self._companion_catalog()
        factory = tracing_factory(layer_store, self.tracer)
        # The oracle, both engines and the companions make a heap far
        # larger than the server's; keep the collector from walking it
        # inside timed calls.
        gc.collect()
        gc.freeze()
        budget_end = time.perf_counter() + self.seconds * (1 - LOOP_SHARE)
        try:
            while self.rounds < MIN_ROUNDS or time.perf_counter() < budget_end:
                for qid, query in enumerate(sample):
                    await self._decompose(conn, apps, store, qid, query)
                self._cursor(conn, sample[0])
                self._store_layers(layer_store, factory)
                self._catalog_layers(catalog, catalog_sample)
                self.rounds += 1
            self._sharding(layer_store)
        finally:
            for app in apps:
                await app.shutdown()
        if store is not None:
            totals = catalog.metrics_snapshot()["cache_totals"]
            self.metrics["subsystems.ranking_cache_hit_rate"] = totals["hits"] / (
                totals["hits"] + totals["misses"]
            )

    async def _decompose(self, conn, apps, store, qid, query) -> None:
        """One query through every entry point, outermost first."""
        traced_app, untraced_app = apps
        s = self.samples
        with self.tracer.span("socket", qid) as sp:
            status, wire = conn.request("POST", "/v1/query", query.body)
        s.add("socket", qid, span_ms(sp))
        self.checked += 1
        if status != 200:
            self.failures.append(f"HTTP {status} on {query.label}")
            return
        reason = self.oracle.check(query, json.loads(wire)["items"])
        if reason is not None:
            self.failures.append(f"wrong answer to {query.label}: {reason}")
        # ServingApp.handle on the traced engine (access spans nest
        # under it) and on its untraced twin.
        request = HttpRequest(
            "POST", "/v1/query", body=json.dumps(query.body).encode(),
            headers={"content-type": "application/json"},
        )
        with self.tracer.span("serving.handle", qid):
            response = await traced_app.handle(request)
        with self.tracer.span("serving.handle.untraced", qid) as sp:
            twin = await untraced_app.handle(request)
        s.add("handle", qid, span_ms(sp))
        self._parity_wire(query, response, twin, json.loads(wire))
        # AsyncEngine.top_k and Engine.query().top() on both engines.
        spec, eps = _engine_query(query), query.epsilon or None
        results = []
        for name, app in (("top_k_traced", traced_app), ("top_k", untraced_app)):
            with self.tracer.span(f"engine.{name}", qid) as sp:
                results.append(
                    await app.async_engine.top_k(spec, k=query.k, epsilon=eps)
                )
            s.add(name, qid, span_ms(sp))
        for name, app in (("top_traced", traced_app), ("top", untraced_app)):
            with self.tracer.span(f"engine.{name}", qid) as sp:
                results.append(_engine_call(app.engine, query))
            s.add(name, qid, span_ms(sp))
        for traced, untraced in (results[0:2], results[2:4]):
            self.checked += 1
            if _signature(traced) != _signature(untraced):
                self.failures.append(
                    f"parity: traced != untraced engine on {query.label}"
                )
        # The backing's own execution of the same query: the chosen
        # strategy on a fresh session, or the executor on the plan.
        if store is not None:
            algorithm = create_strategy(_strategy_name(results[-1].algorithm))
            aggregation = NAMED_AGGREGATIONS[query.body["aggregation"]]
            session = store.session()
            with self.tracer.span("algorithms.run", qid) as sp:
                algorithm.top_k(session, aggregation, query.k, eps)
        else:
            engine = untraced_app.engine
            plan = engine.query(query.body["query"]).plan()
            executor = Executor(engine.catalog, engine.semantics)
            with self.tracer.span("middleware.execute", qid) as sp:
                executor.execute(plan, query.k)
        s.add("backing_run", qid, span_ms(sp))

    def _parity_wire(self, query, response, twin, server: dict) -> None:
        """handle() on both engines against the untraced server."""
        self.checked += 1
        mine = json.loads(response.body)
        if _wire_signature(mine) != _wire_signature(json.loads(twin.body)):
            self.failures.append(f"parity: traced != untraced app on {query.label}")
        elif mine["algorithm"] != server["algorithm"]:
            # The adaptive chooser picked another strategy on one side
            # (the server and the in-process engines have different
            # histories): ledgers differ, an exact answer may not.
            self.ledgers_skipped += 1
            if not query.epsilon and mine["items"] != server["items"]:
                self.failures.append(f"parity: app != server on {query.label}")
        elif _wire_signature(mine) != _wire_signature(server):
            self.failures.append(f"parity: app != server on {query.label}")

    def _cursor(self, conn: Connection, query: Query) -> None:
        """A three-page cursor session over the first sampled query."""
        body = {key: v for key, v in query.body.items() if key != "k"}
        body["page_size"] = 10
        status, payload = conn.request("POST", "/v1/cursor", body)
        self.checked += 1
        if status != 201:
            self.failures.append(f"cursor open: HTTP {status}")
            return
        cursor = json.loads(payload)["cursor_id"]
        for page in range(3):
            with self.tracer.span("serving.cursor_next", -1) as sp:
                status, _ = conn.request("GET", f"/v1/cursor/{cursor}/next")
            self.samples.add("cursor_next", page, span_ms(sp))
        conn.request("DELETE", f"/v1/cursor/{cursor}")

    def _store_layers(self, store, factory) -> None:
        """Reference strategies (plain and wrapped) and the floor."""
        s = self.samples
        for name, (agg, k, eps) in REFERENCE_STRATEGIES.items():
            aggregation = NAMED_AGGREGATIONS[agg]
            mint_ms, session = _timed_ms(store.session)
            s.add("session_mint", 0, mint_ms)
            ms, result = _timed_ms(
                create_strategy(name).top_k, session, aggregation, k, eps or None
            )
            s.add(f"{name}.ms", 0, ms)
            self.metrics[f"algorithms.{name}.sorted"] = result.stats.sorted_cost
            self.metrics[f"algorithms.{name}.random"] = result.stats.random_cost
            session = factory()
            with self.tracer.span(f"algorithms.{name}", -1) as sp:
                wrapped = create_strategy(name).top_k(
                    session, aggregation, k, eps or None
                )
            s.add(f"{name}.wrapped_ms", 0, span_ms(sp))
            self.checked += 1
            if _signature(wrapped) != _signature(result):
                self.failures.append(f"parity: wrapped != plain {name}")
        s.add("floor", 0, _timed_ms(store.true_top_k, NAMED_AGGREGATIONS["min"], 10)[0])

    def _catalog_layers(self, engine: Engine, sample: list[Query]) -> None:
        """Parse, plan and top on catalog queries; one cold evaluation."""
        s = self.samples
        for qid, query in enumerate(sample):
            text = query.body["query"]
            s.add("parse", qid, _timed_ms(parse_query, text)[0])
            s.add("plan", qid, _timed_ms(engine.query(text).plan)[0])
            s.add("catalog_top", qid, _timed_ms(_engine_call, engine, query)[0])
        qbic = next(
            sub for sub in engine.catalog.subsystems
            if "Color" in sub.attributes()
        )
        # A prime stride through the population: every call misses.
        self._cold += 7919
        atom = AtomicQuery("Color", f"o{self._cold % engine.catalog.num_objects}")
        s.add("evaluate_cold", 0, _timed_ms(qbic.evaluate, atom)[0])

    def _sharding(self, store: ColumnarScoringDatabase) -> None:
        """A pool-backed and an inline sharded engine over the store."""
        aggregation = NAMED_AGGREGATIONS["min"]
        start = time.perf_counter()
        pool = Engine.over_shards(store, shards=SHARDS, processes=SHARD_PROCESSES)
        try:
            first = pool.query(aggregation).top(10)
            self.metrics["sharding.setup_s"] = time.perf_counter() - start
            inline = Engine.over_shards(store, shards=SHARDS, processes=0)
            try:
                for _ in range(3):
                    ms, pooled = _timed_ms(pool.query(aggregation).top, 10)
                    self.samples.add("pool_top", 0, ms)
                    ms, reference = _timed_ms(inline.query(aggregation).top, 10)
                    self.samples.add("inline_top", 0, ms)
            finally:
                inline.close()
        finally:
            pool.close()
            # The shared-memory segments registered a resource-tracker
            # process; stop it and wait for it rather than leave it to
            # notice this process's exit.
            resource_tracker._resource_tracker._stop()
        self.checked += 1
        if _signature(pooled)[1:] != _signature(reference)[1:]:
            self.failures.append("parity: sharded pool != inline")
        single = create_strategy("fagin-min").top_k(store.session(), aggregation, 10)
        self.metrics["sharding.access_ratio"] = (
            first.stats.sum_cost / single.stats.sum_cost
        )

    def _scrape(self, conn: Connection) -> None:
        """Planner, admission and cache counters from the server."""
        _, payload = conn.request("GET", "/metrics")
        report = json.loads(payload)
        admission = report["admission"]
        self.metrics["serving.shed_ratio"] = admission["shed_total"] / (
            admission["admitted_total"] + admission["shed_total"]
        )
        planner = report["engine"]["planner"]
        cache = planner["plan_cache"]
        lookups = cache["hits"] + cache["misses"]
        self.metrics["engine.plan_cache_hit_rate"] = (
            cache["hits"] / lookups if lookups else 0.0
        )
        self.metrics["engine.chooser_explorations"] = (
            planner["chooser"]["explorations"]
        )
        if self.workload.backing == "catalog":
            totals = report["engine"]["cache_totals"]
            self.metrics["subsystems.ranking_cache_hit_rate"] = totals["hits"] / (
                totals["hits"] + totals["misses"]
            )

    # -- derived metrics ---------------------------------------------------

    def _access(self) -> None:
        """access.* from the wrapped reference runs' spans."""
        calls = items = 0
        seconds = {"sorted": 0.0, "random": 0.0}
        counted = {"sorted": 0, "random": 0}
        run_seconds = 0.0
        for span in self.tracer.spans:
            if not span["name"].startswith("algorithms.") or span["name"] == "algorithms.run":
                continue
            run_seconds += span["end"] - span["start"]
            for kind, (n_calls, n_items, secs) in span["children"].items():
                calls += n_calls
                items += n_items
                seconds[kind] += secs
                counted[kind] += n_items
        m = self.metrics
        m["access.sorted_ns_per_access"] = seconds["sorted"] * 1e9 / counted["sorted"]
        m["access.random_ns_per_access"] = seconds["random"] * 1e9 / counted["random"]
        m["access.accesses_per_call"] = items / calls
        m["access.share_of_algorithm"] = sum(seconds.values()) / run_seconds

    def _derive(self) -> None:
        s, m = self.samples, self.metrics
        m["serving.socket_p50_ms"] = s.median("socket")
        m["serving.handle_p50_ms"] = s.median("handle")
        m["serving.transport_self_ms"] = s.self_time("socket", "handle")
        m["serving.app_self_ms"] = s.self_time("handle", "top_k")
        m["serving.cursor_next_p50_ms"] = s.median("cursor_next")
        m["engine.top_p50_ms"] = s.median("top")
        m["engine.async_hop_ms"] = s.self_time("top_k", "top")
        m["engine.self_ms"] = s.self_time("top", "backing_run")
        m["engine.backing_run_ms"] = s.median("backing_run")
        for name in REFERENCE_STRATEGIES:
            ms = m[f"algorithms.{name}.ms"] = s.median(f"{name}.ms")
            accesses = m[f"algorithms.{name}.sorted"] + m[f"algorithms.{name}.random"]
            m[f"algorithms.{name}.ns_per_access"] = ms * 1e6 / accesses
        m["core.floor_ms"] = s.median("floor")
        m["algorithms.gap_to_floor"] = m["algorithms.fagin-min.ms"] / m["core.floor_ms"]
        m["access.session_mint_ms"] = s.median("session_mint")
        self._access()
        m["middleware.parse_ms"] = s.median("parse")
        m["middleware.plan_ms"] = s.median("plan")
        m["middleware.execute_ms"] = s.self_time("catalog_top", "plan")
        m["subsystems.evaluate_cold_ms"] = s.median("evaluate_cold")
        m["sharding.pool_top_ms"] = s.median("pool_top")
        m["sharding.inline_top_ms"] = s.median("inline_top")
        # What tracing costs where it happens: the reference strategies
        # over TracingSource-wrapped sessions against plain ones.
        m["trace.overhead_ratio"] = sum(
            s.median(f"{name}.wrapped_ms") for name in REFERENCE_STRATEGIES
        ) / sum(m[f"algorithms.{name}.ms"] for name in REFERENCE_STRATEGIES)


def traced_run(workload: Workload, seed: int, seconds: float, root):
    """Run the traced measurement; returns (result, spans)."""
    run = TracedRun(workload, seed, seconds, root)
    result = run.run()
    return result, run.tracer.spans
