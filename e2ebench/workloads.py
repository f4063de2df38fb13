"""The benchmark's workloads: server flags and seeded request streams.

``workloads.json`` beside this file is the record of every workload —
its sizes, server flags, loop kind, offered rate and query mix; the
reason it was chosen is its ``why`` in ``BENCHMARK.json`` — and this
module turns a record plus a seed into the server's command line and
the request stream. The server receives nothing else: its CLI flags
and the request bodies. ``BENCHMARK.json`` is also where the metric
names and units are declared; :func:`declared_metrics` reads them.

Each workload's data set is fixed: the server draws it from the
record's ``data_seed``, so the spread between runs measures the code
and not the luck of one draw (on ``deep-lists`` the access cost alone
moves by 11% between data seeds). The run's ``--seed`` drives the
request stream. A stream is a sequence of blocks; each block holds
every mix entry ``weight`` times, in a seeded random order. So every
run sends the mix in the same proportions, and only the order and the
catalog's atom constants depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.workloads.datasets import NAMED_COLORS

from oracle import CATALOG_ARTISTS

__all__ = ["Query", "Workload", "declared_metrics", "load_workloads"]

RECORD = Path(__file__).with_name("workloads.json")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Query:
    """One scheduled item: a one-shot query or a cursor session.

    ``body`` is the JSON body of ``POST /v1/query`` (or, with
    ``pages > 0``, of ``POST /v1/cursor``, followed by ``pages`` page
    fetches and a ``DELETE``). ``expr`` is the catalog query's
    expression tree, which the catalog oracle grades.
    """

    label: str
    body: dict
    k: int
    epsilon: float = 0.0
    pages: int = 0
    expr: tuple | None = None
    cold: bool = False


def _render(expr: tuple) -> str:
    """The query-language text of an expression tree."""
    op = expr[0]
    if op in ("and", "or"):
        return f"{_render(expr[1])} {op.upper()} {_render(expr[2])}"
    symbol = "=" if op == "eq" else "~"
    return f'({expr[1]} {symbol} "{expr[2]}")'


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict = field(repr=False)

    @property
    def backing(self) -> str:
        return self.spec["backing"]

    @property
    def data_seed(self) -> int:
        return self.spec["data_seed"]

    def server_args(self) -> list[str]:
        args = ["--backing", self.backing, "--n", str(self.spec["n"])]
        if "m" in self.spec:
            args += ["--m", str(self.spec["m"])]
        return args + ["--seed", str(self.data_seed), *self.spec["server_flags"]]

    def stream(self, seed: int) -> Iterator[Query]:
        """The endless seeded request stream of this workload."""
        rng = random.Random(f"{self.name}/{seed}")
        make = self._catalog_factory(rng) if self.backing == "catalog" else None
        while True:
            block = [
                entry
                for entry in self.spec["mix"]
                for _ in range(entry["weight"])
            ]
            rng.shuffle(block)
            for entry in block:
                yield make(entry) if make else self._store_query(entry)

    @staticmethod
    def _store_query(entry: dict) -> Query:
        body = {"aggregation": entry["aggregation"]}
        if "page_size" in entry:
            body["page_size"] = entry["page_size"]
            return Query(
                entry["label"], body, entry["page_size"], pages=entry["pages"]
            )
        body["k"] = entry["k"]
        epsilon = entry.get("epsilon", 0.0)
        if epsilon:
            body["epsilon"] = epsilon
        return Query(entry["label"], body, entry["k"], epsilon)

    def _catalog_factory(self, rng: random.Random):
        """Draw the hot atom set, then return a mix-entry -> Query maker.

        The hot set (a few artists and named colours) stays within the
        subsystems' ranking caches; query-by-example atoms are drawn
        from the whole population, far beyond any cache.
        """
        n = self.spec["n"]
        artists = rng.sample(range(CATALOG_ARTISTS), self.spec["hot_artists"])
        colors = rng.sample(sorted(NAMED_COLORS), self.spec["hot_colors"])

        def make(entry: dict) -> Query:
            shape = entry["shape"]
            if shape == "conjunction":
                expr = (
                    "and",
                    ("eq", "Artist", f"artist-{rng.choice(artists)}"),
                    ("sim", "Color", rng.choice(colors)),
                )
            elif shape == "disjunction":
                first, second = rng.sample(colors, 2)
                expr = ("or", ("sim", "Color", first), ("sim", "Color", second))
            else:
                expr = ("sim", "Color", f"o{rng.randrange(n)}")
            body = {"query": _render(expr), "k": entry["k"]}
            return Query(
                entry["label"], body, entry["k"], expr=expr,
                cold=shape == "example",
            )

        return make


def load_workloads() -> dict[str, Workload]:
    record = json.loads(RECORD.read_text())
    return {name: Workload(name, spec) for name, spec in record.items()}


def declared_metrics(section: str) -> dict[str, str]:
    """name -> unit of ``BENCHMARK.json``'s ``end_to_end`` or ``per_layer``."""
    declared = json.loads(BENCHMARK.read_text())[section]
    return {metric["name"]: metric["unit"] for metric in declared}
