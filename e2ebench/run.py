"""End-to-end benchmark of the top-k server, with a traced per-layer run.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload deep-lists --seed 1 --seconds 20 --trace 0

``--trace 0`` starts the real server (``python -m repro.serving``)
``setup_spawns`` times to time its set-up (``setup_s`` is the median),
drives the middle one over HTTP for ``--seconds`` and prints the
end-to-end metrics. Every time among them is scaled to the speed of a
reference computation run in blocks between the spawns and the
requests (``reference.py``); the raw times are in the run record. ``--trace 1`` runs the traced per-layer
measurement instead (see ``layers.py``). Every answer is checked
against an oracle after the window closes. The metric names and units
are the ones ``BENCHMARK.json`` declares.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (machine, calibration before and after, details).
Both, plus the trace spans of a traced run, are also written under
``e2ebench/out/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def probe_query(workload, seed: int):
    """What set-up answers: the stream's first one-shot query that is not
    a cold query-by-example atom, whose cost would make set-up depend on
    the seed."""
    return next(q for q in workload.stream(seed) if not (q.pages or q.cold))


def per_label(records) -> dict:
    """Request count and median latency of each query label and step."""
    from drive import by_kind

    return {
        label: {"n": len(v), "p50_ms": statistics.median(v)}
        for label, v in sorted(by_kind(records).items())
    }


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced end-to-end run; returns the result object."""
    from drive import check, closed_loop, open_loop, run_item, summarise
    from oracle import oracle_for
    from reference import Reference
    from server import Connection, Server
    from workloads import declared_metrics

    oracle = oracle_for(workload)
    reference = Reference()
    probe = probe_query(workload, seed)
    spec = workload.spec
    records = []
    setup_times = []
    server = None
    try:
        spawns = spec["setup_spawns"]
        stream = workload.stream(seed)
        warmup = spec["warmup_requests"]
        for attempt in range(spawns):
            reference.block()
            server = Server(ROOT, workload.server_args())
            port = server.wait_ready()
            conn = Connection(port)
            run_item(conn, probe, -1, server.spawned, records, from_ready=True)
            setup_times.append(records[-1].done - server.spawned)
            # The window runs on the middle spawn, so the set-up samples
            # come from both ends of the run and average the host's drift.
            if attempt == spawns // 2:
                warm, _ = closed_loop(
                    conn, itertools.islice(stream, warmup), 0.0, warmup
                )
                records += warm
                if spec["loop"] == "closed":
                    window, window_s = closed_loop(
                        conn, stream, seconds, spec["accounted_requests"],
                        warmup, reference,
                    )
                else:
                    count = math.ceil(spec["rate_qps"] * seconds) + 1
                    window, window_s = open_loop(
                        port, list(itertools.islice(stream, count)),
                        spec["rate_qps"], seconds, spec["connections"], warmup,
                        reference,
                    )
                peak_rss_mb = server.peak_rss_mb()
            conn.close()
            server.stop()
            server = None
    finally:
        if server is not None:
            server.kill()
    every = records + window
    check(every, oracle)
    latency_scale = reference.scale(spec["latency_elasticity"])
    metrics = summarise(
        window, window_s, warmup + spec["accounted_requests"], latency_scale
    )
    raw = metrics.pop("raw")
    raw["setup_s"] = statistics.median(setup_times)
    metrics["setup_s"] = raw["setup_s"] * reference.scale()
    metrics["peak_rss_mb"] = peak_rss_mb
    return {
        **outcome(every),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared_metrics("end_to_end").items()
        },
        "raw": raw,
        "reference": {
            "median_ms": reference.median_ms(),
            "calls": len(reference.times_ms),
            "latency_scale": latency_scale,
            "setup_scale": reference.scale(),
        },
        "errors": sorted({r.error for r in every if r.error})[:10],
        "per_label": per_label(window),
        "setup_times_s": setup_times,
    }


def outcome(records) -> dict:
    """``correct``, ``attempted`` and ``failed`` over every request made.

    Run after :func:`drive.check`, which marks wrong answers as failed:
    one failed request anywhere — set-up, warm-up or the window, a
    non-2xx status (a 503 shed too), a transport error or a wrong
    answer — makes the run incorrect.
    """
    failed = sum(not r.ok for r in records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serving" / "__main__.py").is_file():
        print(f"e2ebench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))

    from machine import calibration, machine_record
    from workloads import load_workloads

    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]
    machine = machine_record()
    if args.trace:
        from layers import traced_run

        result, spans = traced_run(workload, args.seed, args.seconds, ROOT)
    else:
        result, spans = measure(workload, args.seed, args.seconds), None
    machine["calibration_after"] = calibration()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        **{key: result.pop(key) for key in list(result)
           if key not in ("correct", "attempted", "failed", "metrics")},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**record, **result}, indent=1) + "\n"
    )
    if spans is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
