"""CLI entry point: ``python -m repro.serving``.

Boots a serving process over one of two demo backings:

* ``--backing columnar`` (default) — a source-backed engine over a
  shared read-only :class:`ColumnarScoringDatabase` built from the
  Section 5 independent workload (``--n/--m/--seed``); queries name
  an aggregation (``{"aggregation": "min", "k": 10}``).
* ``--backing catalog`` — the federated Garlic demo: a relational and
  a QBIC-style image subsystem over one object population; queries
  are strings (``{"query": "(Artist = \\"artist-1\\") AND (Color ~
  \\"red\\")", "k": 5}``).

Real deployments construct their own :class:`Engine` and call
:func:`main`'s building blocks directly; the CLI exists so the load
generator, the Docker image, and the CI smoke job have a one-line
server to aim at.

SIGINT/SIGTERM trigger a graceful drain (admission empties, cursor
sessions close, engine facade closes) and a zero exit — what the
compose file and the CI smoke job assert on.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

from repro.access import ColumnarScoringDatabase
from repro.engine import Engine
from repro.serving.app import ServingApp
from repro.serving.config import ServingConfig
from repro.serving.server import ServingServer
from repro.workloads.skeletons import _independent_draw

__all__ = ["build_engine", "main"]


def build_engine(args: argparse.Namespace) -> Engine:
    if args.backing == "columnar":
        # Straight into columns from the draw independent_database
        # makes: the same store, without the row-oriented round trip.
        store = ColumnarScoringDatabase.from_skeleton(
            *_independent_draw(args.m, args.n, seed=args.seed)
        )
        if args.shards:
            # Multi-process serving: the store moves into shared-memory
            # shards, queries fan out to a persistent worker pool. The
            # engine owns that pool; the app's graceful drain closes it.
            return Engine.over_shards(
                store,
                shards=args.shards,
                processes=args.shard_processes,
            )
        return Engine.over(store)
    if args.shards:
        raise SystemExit(
            "--shards applies to the columnar backing only; the catalog "
            "demo federates subsystems, which have no columns to shard"
        )
    # The federated catalog demo: objects graded by two subsystems.
    import random

    from repro.subsystems import QbicSubsystem, RelationalSubsystem

    rng = random.Random(args.seed)
    objects = [f"o{i}" for i in range(args.n)]
    relational = RelationalSubsystem(
        "rel",
        {o: {"Artist": f"artist-{i % 17}"} for i, o in enumerate(objects)},
    )
    qbic = QbicSubsystem(
        "img",
        {
            "Color": {
                o: (rng.random(), rng.random(), rng.random())
                for o in objects
            }
        },
    )
    return Engine().register(relational).register(qbic)


async def _run(args: argparse.Namespace) -> int:
    config = ServingConfig(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline_ms=args.default_deadline_ms,
        cursor_ttl_s=args.cursor_ttl_s,
        drain_grace_s=args.drain_grace_s,
        shards=args.shards or None,
        shard_processes=args.shard_processes if args.shards else None,
    )
    app = ServingApp(build_engine(args), config)
    server = ServingServer(app, config)
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(
            signum, lambda: asyncio.ensure_future(server.shutdown())
        )
    sharding = (
        f", shards={config.shards}x{config.shard_processes or 'auto'}proc"
        if config.shards
        else ""
    )
    print(
        f"repro.serving listening on http://{config.host}:{server.port} "
        f"(backing={args.backing}, workers={config.max_workers}, "
        f"inflight<={config.max_inflight}, queue<={config.max_queue}"
        f"{sharding})",
        flush=True,
    )
    summary = await server.serve_forever()
    print(f"repro.serving drained: {json.dumps(summary)}", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    parser.add_argument(
        "--backing", choices=("columnar", "catalog"), default="columnar"
    )
    parser.add_argument("--n", type=int, default=10_000, help="population size")
    parser.add_argument("--m", type=int, default=3, help="ranked lists")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--max-inflight", type=int, default=8)
    parser.add_argument("--max-queue", type=int, default=16)
    parser.add_argument("--default-deadline-ms", type=int, default=None)
    parser.add_argument("--cursor-ttl-s", type=float, default=300.0)
    parser.add_argument("--drain-grace-s", type=float, default=10.0)
    # Sharded multi-process execution. Env-overridable so the Docker
    # image / compose file can turn sharding on without editing the
    # command line: REPRO_SHARDS=8 docker run ...
    parser.add_argument(
        "--shards",
        type=int,
        default=int(os.environ.get("REPRO_SHARDS", "0") or "0"),
        help="split the columnar store into N shared-memory shards "
        "served by worker processes (0 = unsharded; env REPRO_SHARDS)",
    )
    parser.add_argument(
        "--shard-processes",
        type=int,
        default=(
            int(os.environ["REPRO_SHARD_PROCESSES"])
            if os.environ.get("REPRO_SHARD_PROCESSES")
            else None
        ),
        help="worker-pool width for --shards (default: one per shard "
        "up to the CPU count; env REPRO_SHARD_PROCESSES)",
    )
    args = parser.parse_args(argv)
    if args.shards < 0:
        parser.error(f"--shards must be >= 0, got {args.shards}")
    if args.shard_processes is not None and args.shard_processes < 0:
        parser.error(
            f"--shard-processes must be >= 0, got {args.shard_processes}"
        )
    try:
        return asyncio.run(_run(args))
    except KeyboardInterrupt:  # pragma: no cover - double ^C
        return 130


if __name__ == "__main__":
    sys.exit(main())
