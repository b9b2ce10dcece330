"""E-OBS: observability overhead on the fleet serving path.

Drives a closed-loop single-pair workload through a real 2-worker
``Cluster`` + ``Frontend`` and measures what turning observability on
costs::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --json

Two design facts shape the measurement:

* **Metrics are zero-cost by construction.**  Every tier mirrors its
  plain-int counters onto the registry through weakref *callbacks*
  (``set_function``), evaluated only when ``/metricsz`` is scraped —
  there is no registry code on the dist()/gather() hot paths to
  measure.  What does run per-request is **tracing**: sampled requests
  carry a trace blob across the wire and every tier appends spans.  So
  the bench toggles trace sampling and keeps the worker fleet identical.
* **Shared machines cannot resolve single-digit percent differences
  across independent runs** (cluster spawn, connection setup, and
  neighbour load swamp them).  The bench therefore runs *paired
  segments inside one cluster lifetime* — same processes, same
  connections — alternating the untraced baseline with the traced
  configuration, flipping which of the two runs first on every pair,
  and reports the **median of per-pair throughput ratios**.  Pairing
  cancels drift; order-flipping cancels warm-up bias.

Configurations per pair:

* **off**     — trace sampling 0: the fast-path baseline a deployment
  can always fall back to;
* **sampled** — ``REPRO_TRACE_SAMPLE=0.01``: the production default.
  One request in a hundred carries a full cross-tier trace;
* **full**    — sampling 1.0, every request traced: the worst case
  (separate pairs).

During the run the frontend's fleet ``/metricsz`` aggregator is scraped
twice; the bench asserts the key series exist, both workers were
merged, and the request counters grew between scrapes — the
instrumented configuration is verified to actually be observing, not
just slower.

``--smoke`` runs fewer/shorter pairs (CI's mode).  The exit code is the
scrape assertions; the overhead is printed, never gated: on a shared
box the smoke's five pairs read anywhere from -12% to +16% at one
commit.  The paired ``obs.trace_overhead`` of ``bench/run.py --workload
wire-point --trace 1`` is the measurement that can hold a bound.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from _harness import format_table

from repro.obs.tracing import set_sample_rate

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_PR8.json"

N = 256
NUM_SHARDS = 4
NUM_WORKERS = 2
CONCURRENCY = 64

#: The production trace-sampling rate.
SAMPLED_RATE = 0.01

#: Series the mid-run scrape must find in the frontend's fleet snapshot.
REQUIRED_SERIES = (
    "repro_serve_requests_total",
    "repro_net_frames_in_total",
    "repro_engine_queries_total",
)


def _served_total(snapshot: dict) -> float:
    values = snapshot.get("counters", {}).get(
        "repro_serve_requests_total", {}).get("values", {})
    return sum(values.values())


async def _closed_loop(client, pairs) -> float:
    """Drive ``pairs`` through coalesced dist() at fixed concurrency."""
    iterator = iter(pairs)

    async def worker():
        for u, v in iterator:
            await client.dist(u, v)

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(CONCURRENCY)))
    return len(pairs) / (time.perf_counter() - start)


async def _measure_pairs(client, pairs, sample: float, count: int) -> list:
    """``count`` paired off/traced segments; per-pair qps ratios.

    The two segments of a pair run back to back on the same warm
    connections; which one goes first flips every pair so that any
    monotone drift (cache warm-up, neighbour load ramping) hits both
    configurations symmetrically.
    """
    ratios = []
    for index in range(count):
        off_first = index % 2 == 0
        qps = {}
        for config in (("off", "traced") if off_first
                       else ("traced", "off")):
            set_sample_rate(0.0 if config == "off" else sample)
            qps[config] = await _closed_loop(client, pairs)
        ratios.append({"off_first": off_first, "qps_off": qps["off"],
                       "qps_traced": qps["traced"],
                       "ratio": qps["traced"] / qps["off"]})
    return ratios


def run_campaign(smoke: bool) -> dict:
    from repro.net.bench import synthetic_sharded_artifact
    from repro.net.cluster import Cluster, free_port
    from repro.net.frontend import Frontend, NetClient
    from repro.obs.export import fetch_snapshot
    from repro.obs.tracing import get_tracer

    queries = 3_000 if smoke else 10_000
    sampled_pairs = 5 if smoke else 10
    full_pairs = 2 if smoke else 3
    pairs = [(index % N, (index * 13 + 7) % N) for index in range(queries)]

    # Workers spawn untraced: what tracing costs them is governed by the
    # blobs the client sends.
    os.environ["REPRO_TRACE_SAMPLE"] = "0"
    traces_before = get_tracer().finished
    scrape: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = synthetic_sharded_artifact(
            Path(tmp), n=N, num_shards=NUM_SHARDS, seed=31)
        with Cluster([str(manifest)], num_workers=NUM_WORKERS) as cluster:

            async def drive():
                frontend = Frontend([str(manifest)], cluster.addresses,
                                    port=free_port(), request_timeout=10.0)
                await frontend.start()
                try:
                    async with NetClient(*frontend.address,
                                         client="bench-obs",
                                         coalesce_window=0.0005) as client:
                        # Warm connections + engine mmaps out of the timing.
                        set_sample_rate(0.0)
                        await client.batch(pairs[:64])
                        await _closed_loop(client, pairs)

                        sampled = await _measure_pairs(
                            client, pairs, SAMPLED_RATE, sampled_pairs)
                        mid = await asyncio.to_thread(
                            fetch_snapshot, frontend.host, frontend.port)
                        scrape["mid_served"] = _served_total(mid)
                        scrape["missing_series"] = [
                            name for name in REQUIRED_SERIES
                            if name not in mid.get("counters", {})]
                        scrape["fleet"] = mid.get("fleet")

                        full = await _measure_pairs(
                            client, pairs, 1.0, full_pairs)
                        end = await asyncio.to_thread(
                            fetch_snapshot, frontend.host, frontend.port)
                        scrape["end_served"] = _served_total(end)
                        return sampled, full
                finally:
                    await frontend.stop()

            sampled, full = asyncio.run(drive())
    set_sample_rate(0.0)

    sampled_ratio = statistics.median(entry["ratio"] for entry in sampled)
    full_ratio = statistics.median(entry["ratio"] for entry in full)
    return {
        "primitive": "obs_overhead",
        "n": N,
        "num_workers": NUM_WORKERS,
        "queries_per_segment": queries,
        "concurrency": CONCURRENCY,
        "sampled_rate": SAMPLED_RATE,
        "sampled_pairs": sampled,
        "full_pairs": full,
        "qps_off_median": statistics.median(
            entry["qps_off"] for entry in sampled),
        "qps_sampled_median": statistics.median(
            entry["qps_traced"] for entry in sampled),
        "overhead_pct": 100.0 * (1.0 - sampled_ratio),
        "overhead_full_pct": 100.0 * (1.0 - full_ratio),
        "traces_finished": get_tracer().finished - traces_before,
        "scrape": scrape,
        "scrape_failures": scrape_failures(scrape),
    }


def scrape_failures(scrape: dict) -> list:
    """The instrumented fleet must demonstrably be observing."""
    failures = []
    if scrape.get("missing_series"):
        failures.append(f"series absent from fleet snapshot: "
                        f"{scrape['missing_series']}")
    fleet = scrape.get("fleet") or {}
    if fleet.get("workers_scraped") != NUM_WORKERS:
        failures.append(f"frontend scraped {fleet.get('workers_scraped')} "
                        f"of {NUM_WORKERS} workers")
    if not scrape.get("end_served", 0) > scrape.get("mid_served", 0):
        failures.append(f"repro_serve_requests_total did not grow between "
                        f"scrapes ({scrape.get('mid_served')} -> "
                        f"{scrape.get('end_served')})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write results as JSON (default: BENCH_PR8.json at the repo "
             "root for full runs, BENCH_PR8.smoke.json for --smoke runs)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="fewer/shorter segment pairs (CI mode)")
    args = parser.parse_args(argv)

    results = run_campaign(smoke=args.smoke)
    print(format_table(
        "E-OBS: paired fleet throughput — untraced vs sampled vs full "
        "tracing",
        [{key: value for key, value in results.items()
          if key not in ("sampled_pairs", "full_pairs", "scrape",
                         "scrape_failures")}]))

    status = 0
    for failure in results["scrape_failures"]:
        print(f"SCRAPE FAILURE: {failure}")
        status = 1
    if results["traces_finished"] == 0:
        print("SCRAPE FAILURE: instrumented segments finished zero traces")
        status = 1
    print(f"throughput overhead (reported, not gated): "
          f"{results['overhead_pct']:.2f}% at sample rate {SAMPLED_RATE}, "
          f"{results['overhead_full_pct']:.2f}% with full tracing")

    if args.json is not None:
        default_name = ("BENCH_PR8.smoke.json" if args.smoke
                        else "BENCH_PR8.json")
        path = Path(args.json) if args.json else DEFAULT_OUT.parent / default_name
        payload = {
            "schema": "bench-pr8/v2",
            "smoke": args.smoke,
            "results": {"obs_overhead": results},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
