"""E-SERVE: async serving — coalesced vs naive one-query-per-call loop.

The standalone perf-regression harness for the serving subsystem
(:mod:`repro.serve`), the PR 3 counterpart of ``bench_primitives.py``::

    PYTHONPATH=src python benchmarks/bench_server.py --json

Two experiments:

* **coalescing** — drives the same Zipf-skewed closed-loop workload over
  the n-node ``landmark-mssp`` artifact through three async front ends:

  1. ``naive`` — the textbook naive async server: one engine query per
     call, dispatched with ``loop.run_in_executor`` so the synchronous
     engine never blocks the event loop (what you write before you know
     about coalescing; the thread round-trip per query is exactly the
     cost coalescing deletes);
  2. ``uncoalesced`` — :class:`DistanceServer` with the window at 0:
     still one single-pair engine batch per call, but inline on the
     loop (a stronger baseline than the naive loop);
  3. ``coalesced`` — :class:`DistanceServer` with the micro-batching
     window on: all concurrent requests resolved by one vectorised
     gather per tick.

  All three must return bit-identical answers.  The committed
  acceptance number is ``speedup_coalesced_vs_naive`` >= 3x at n=256
  (in practice it is far higher); ``speedup_coalesced_vs_uncoalesced``
  tracks the pure batching win over the inline loop.
* **loadgen smoke** — builds two artifacts at different epsilon levels,
  serves both behind one router, drives 1000 queries through the load
  generator, and asserts >= 99% success with zero answer mismatches
  against a direct :class:`QueryEngine` replay.

``--smoke`` runs the reduced grid and *gates* against the committed
``BENCH_PR3.json``: non-zero exit on an answer mismatch, a success-rate
violation, or a speedup that regressed more than ``--tolerance`` (default
3x) below the committed number.  CI runs the smoke mode.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from _harness import format_table

#: Committed baseline written by full runs and read by --smoke gating.
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"

FULL_SIZES = (64, 256)
SMOKE_SIZES = (64,)

#: Coalesced-mode tuning: a short window (the worker resume work after
#: each flush dominates anyway) and enough workers to fill each batch.
WINDOW_S = 0.0002
CONCURRENCY = 512


def _build_engine(n: int, epsilon: float = 0.5, seed: int = 17):
    from repro.graphs import random_weighted_graph
    from repro.oracle import QueryEngine, build_oracle

    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=seed)
    return QueryEngine(build_oracle(graph, strategy="landmark-mssp",
                                    epsilon=epsilon))


class NaiveExecutorServer:
    """The naive one-query-per-call async front end.

    Each request dispatches one synchronous ``engine.dist`` call to the
    event loop's thread pool — the standard way to serve blocking work
    from asyncio before adding coalescing.  Answer-compatible with
    :class:`DistanceServer` (both ultimately call the same engine), so
    the load generator drives it unchanged.
    """

    def __init__(self, engine):
        self._engine = engine

    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc_info):
        return None

    async def dist(self, u: int, v: int, **_kwargs) -> float:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._engine.dist, u, v)


def experiment_server_coalescing(n: int, queries: int) -> dict:
    """Closed-loop qps: naive executor loop vs inline loop vs coalesced."""
    from repro.serve import (
        DistanceServer,
        ServerConfig,
        run_closed_loop,
        zipf_pairs,
    )

    pairs = zipf_pairs(n, queries, skew=1.0, seed=23)

    async def drive_naive():
        # A fresh engine per mode: every mode starts with a cold cache,
        # so the comparison isolates the serving architecture.
        async with NaiveExecutorServer(_build_engine(n)) as server:
            return await run_closed_loop(server, pairs,
                                         concurrency=CONCURRENCY,
                                         record_latency=False)

    async def drive(config: ServerConfig):
        async with DistanceServer(_build_engine(n), config) as server:
            report = await run_closed_loop(server, pairs,
                                           concurrency=CONCURRENCY,
                                           record_latency=False)
            return report, server

    naive_report = asyncio.run(drive_naive())
    inline_report, inline = asyncio.run(
        drive(ServerConfig(coalesce_window=0.0)))
    coalesced_report, coalesced = asyncio.run(
        drive(ServerConfig(coalesce_window=WINDOW_S, max_batch=4096)))

    for report, label in ((naive_report, "naive"),
                          (inline_report, "uncoalesced"),
                          (coalesced_report, "coalesced")):
        if report.completed != queries:
            raise AssertionError(
                f"{label} run completed {report.completed}/{queries}")
    if (coalesced_report.answers != inline_report.answers
            or coalesced_report.answers != naive_report.answers):
        raise AssertionError("the three serving modes disagree on answers")

    qps_naive = naive_report.achieved_qps
    qps_inline = inline_report.achieved_qps
    qps_coalesced = coalesced_report.achieved_qps
    return {
        "primitive": "server_coalescing",
        "n": n,
        "queries": queries,
        "concurrency": CONCURRENCY,
        "window_ms": WINDOW_S * 1000.0,
        "qps_naive": qps_naive,
        "qps_uncoalesced": qps_inline,
        "qps_coalesced": qps_coalesced,
        "speedup_coalesced_vs_naive": qps_coalesced / qps_naive,
        "speedup_coalesced_vs_uncoalesced": qps_coalesced / qps_inline,
        "engine_batches_uncoalesced": inline.stats()["engine_batches"],
        "engine_batches_coalesced": coalesced.stats()["engine_batches"],
        # Latency comes from the server's own window (the loadgen ran
        # with client-side timing off).
        "p99_us_coalesced": coalesced.latency.snapshot()["p99_us"],
    }


def experiment_loadgen_smoke(n: int = 64, queries: int = 1000) -> dict:
    """Two epsilon levels behind one server; 1k queries, verified."""
    import tempfile

    from repro.graphs import random_weighted_graph
    from repro.oracle import QueryEngine, build_oracle, load_artifact
    from repro.serve import (
        ArtifactRegistry,
        DistanceServer,
        ServerConfig,
        StretchRouter,
        count_mismatches,
        run_closed_loop,
        zipf_pairs,
    )

    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=17)
    pairs = zipf_pairs(n, queries, skew=1.0, seed=29)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_oracle(graph, strategy="landmark-mssp",
                     epsilon=0.25).save_sharded(root / "eps025")
        build_oracle(graph, strategy="landmark-mssp",
                     epsilon=0.75).save_sharded(root / "eps075")
        registry = ArtifactRegistry()
        registry.discover(root)
        router = StretchRouter(registry)

        async def drive():
            config = ServerConfig(coalesce_window=WINDOW_S, max_batch=4096)
            async with DistanceServer(router, config) as server:
                return await run_closed_loop(server, pairs, concurrency=64)

        report = asyncio.run(drive())
        decision = router.route()
        reference = QueryEngine(load_artifact(decision.entry.path))
        mismatches = count_mismatches(pairs, report.answers, reference)

    if report.success_rate < 0.99:
        raise AssertionError(
            f"loadgen smoke success rate {report.success_rate:.4f} < 0.99")
    if mismatches:
        raise AssertionError(
            f"loadgen smoke: {mismatches} answer mismatches vs direct engine")
    return {
        "primitive": "loadgen_smoke",
        "n": n,
        "queries": queries,
        "artifacts": 2,
        "routed_to": decision.name,
        "success_rate": report.success_rate,
        "mismatches": mismatches,
        "achieved_qps": report.achieved_qps,
    }


def collect_results(smoke: bool) -> dict:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    rows = [experiment_server_coalescing(n, queries=5_000 if smoke else 20_000)
            for n in sizes]
    rows.append(experiment_loadgen_smoke())
    return {f"{row['primitive']}_n{row['n']}": row for row in rows}


def regression_failures(results: dict, baseline: dict, tolerance: float) -> list:
    """Speedups that fell more than ``tolerance``x below the committed run."""
    failures = []
    compared = 0
    for key, row in results.items():
        base_row = baseline.get("results", {}).get(key)
        if base_row is None:
            continue
        for field, value in row.items():
            if not field.startswith("speedup_"):
                continue
            base_value = base_row.get(field)
            if not isinstance(base_value, (int, float)):
                continue
            compared += 1
            if value < base_value / tolerance:
                failures.append(
                    f"{key}.{field}: measured {value:.2f}x vs committed "
                    f"{base_value:.2f}x (floor {base_value / tolerance:.2f}x)"
                )
    if compared == 0:
        failures.append(
            "no comparable speedup entries between this run and the baseline "
            "— regenerate BENCH_PR3.json with a full run"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write results as JSON (default: BENCH_PR3.json at the repo "
             "root for full runs, BENCH_PR3.smoke.json for --smoke runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid + regression gate against the committed "
             "BENCH_PR3.json (non-zero exit on answer mismatch, success "
             "below 99%%, or a >tolerance speedup regression)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="baseline JSON for the --smoke regression gate",
    )
    parser.add_argument(
        "--tolerance", type=float, default=3.0,
        help="allowed regression factor on committed speedups (default 3)",
    )
    args = parser.parse_args(argv)

    # Answer mismatches and success-rate violations raise inside the
    # experiments -> non-zero exit.
    results = collect_results(smoke=args.smoke)
    coalescing_rows = [row for row in results.values()
                       if row["primitive"] == "server_coalescing"]
    smoke_rows = [row for row in results.values()
                  if row["primitive"] == "loadgen_smoke"]
    print(format_table(
        "E-SERVE: coalesced async serving vs naive one-query-per-call loop",
        coalescing_rows,
    ))
    print(format_table(
        "E-SERVE: loadgen smoke (two epsilon levels, verified answers)",
        smoke_rows,
    ))

    status = 0
    if args.smoke:
        if args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
            failures = regression_failures(results, baseline, args.tolerance)
            if failures:
                print("PERF REGRESSION against committed baseline:")
                for failure in failures:
                    print(f"  - {failure}")
                status = 1
            else:
                print(f"regression gate OK (tolerance {args.tolerance}x, "
                      f"baseline {args.baseline})")
        else:
            print(f"regression gate SKIPPED: no baseline at {args.baseline}")

    if args.json is not None:
        default_name = "BENCH_PR3.smoke.json" if args.smoke else "BENCH_PR3.json"
        path = Path(args.json) if args.json else DEFAULT_BASELINE.parent / default_name
        payload = {
            "schema": "bench-pr3/v1",
            "smoke": args.smoke,
            "sizes": list(SMOKE_SIZES if args.smoke else FULL_SIZES),
            "results": results,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
