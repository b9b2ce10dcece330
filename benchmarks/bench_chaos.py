"""Chaos campaign: availability and correctness under injected faults.

Every scenario spins up a fresh 2-worker fleet, activates one fault
family (or none, for the baseline) via the ``REPRO_CHAOS`` environment
the workers inherit, drives a closed-loop per-pair workload through the
front tier with client-side timeouts, and replays every answered pair
against a direct engine.  The campaign is the PR's acceptance argument
in executable form:

* **baseline** — no faults; calibrates the P99 the inflation gate is
  measured against.
* **delay / drop_connection / corrupt_frame / overload / slow_worker**
  — one runtime fault family each, exercising retries, link teardown +
  reconnect, circuit breakers, and hedged requests respectively.
* **stuck_worker** — a worker whose event loop wedges; the cluster
  supervisor detects the stalled ``/healthz``, SIGKILLs, and respawns
  it while the breaker keeps traffic away.
* **corrupt_shard** — each worker serves its *own copy* of the
  artifact and one copy's shard is bit-rotted on disk; the integrity
  pipeline (checksum re-verify -> quarantine -> typed
  ``ERR_DATA_INTEGRITY``) must convert silent corruption into failover,
  never into a wrong answer.
* **bad_day** — all of the above at once, sized like a genuinely bad
  day.  Gates: availability >= 99%, **zero** wrong answers, P99 within
  a bounded multiple of baseline.

Full runs write ``BENCH_PR9.json`` at the repo root; ``--smoke`` runs a
reduced scenario set and exits non-zero if any gate fails — CI's
``chaos-smoke`` job runs it on every push.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.chaos.disk import apply_disk_faults
from repro.chaos.plan import CHAOS_ENV_VAR, FaultPlan, FaultSpec
from repro.net.bench import NET_ERROR_TYPES, synthetic_sharded_artifact
from repro.net.cluster import Cluster, free_port
from repro.net.frontend import Frontend, NetClient
from repro.serve.loadgen import count_mismatches, run_closed_loop, zipf_pairs
from repro.serve.registry import build_registry

#: Committed campaign results (written by full runs, shipped with the repo).
DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_PR9.json"

#: Acceptance gates (also asserted by the CI chaos-smoke run).
AVAILABILITY_FLOOR = 0.99
P99_INFLATION_FACTOR = 25.0
P99_CEILING_FLOOR_US = 250_000.0  # inflation gate never tighter than this

#: Client-side per-request timeout — the load loop must never hang on a
#: wedged fleet, which is half the point of the exercise.
CLIENT_TIMEOUT_S = 10.0


def scenario_plans(seed: int) -> Dict[str, Optional[FaultPlan]]:
    """Scenario name -> fault plan (None = no chaos).

    Probabilities are per *frame* at the injection site, so a 1% drop
    fails ~1% of coalesced batches before retry — noticeable, survivable.
    ``corrupt_shard`` entries here mark scenarios that also rot worker
    1's on-disk artifact copy (applied by the harness, not the
    injector).
    """

    def plan(*faults: FaultSpec) -> FaultPlan:
        return FaultPlan(faults=faults, seed=seed)

    return {
        "baseline": None,
        "delay": plan(
            FaultSpec(kind="delay", site="worker.gather",
                      probability=0.10, ms=30)),
        "drop_connection": plan(
            FaultSpec(kind="drop_connection", site="worker.recv",
                      probability=0.01),
            FaultSpec(kind="drop_connection", site="worker.send",
                      probability=0.01)),
        "corrupt_frame": plan(
            FaultSpec(kind="corrupt_frame", site="worker.send",
                      probability=0.01)),
        "overload": plan(
            FaultSpec(kind="shed", site="worker.recv", probability=0.004),
            FaultSpec(kind="error_frame", site="worker.recv",
                      probability=0.004)),
        "slow_worker": plan(
            FaultSpec(kind="slow_worker", site="worker.gather",
                      workers=(1,), ms=80)),
        # 4s stall > the supervisor's ~2.5s detection window (two failed
        # 1s-timeout probes, 0.25s apart) — the worker IS killed and
        # respawned, not merely waited out.
        "stuck_worker": plan(
            FaultSpec(kind="stuck_worker", site="worker.recv",
                      workers=(1,), probability=1.0, limit=1, ms=4000)),
        # Shard 1 routes to worker 1 by affinity (shard % workers), and
        # worker 1's copy is the one the harness rots — so the corrupted
        # data sits exactly where the primary attempts land.
        "corrupt_shard": plan(
            FaultSpec(kind="corrupt_shard", shard=1, flips=4096)),
        "bad_day": plan(
            FaultSpec(kind="delay", site="worker.gather",
                      probability=0.05, ms=30),
            FaultSpec(kind="drop_connection", site="worker.recv",
                      probability=0.01),
            FaultSpec(kind="corrupt_frame", site="worker.send",
                      probability=0.01),
            FaultSpec(kind="shed", site="worker.recv", probability=0.004),
            FaultSpec(kind="error_frame", site="worker.recv",
                      probability=0.004),
            FaultSpec(kind="slow_worker", site="worker.gather",
                      workers=(1,), ms=50),
            FaultSpec(kind="corrupt_shard", shard=1, flips=4096)),
    }


#: Scenarios that SIGKILL/respawn workers, so the supervisor runs.
SUPERVISED = {"stuck_worker", "bad_day"}

SMOKE_SCENARIOS = ("baseline", "drop_connection", "corrupt_shard", "bad_day")


class PerWorkerArtifactCluster(Cluster):
    """A cluster whose workers each serve a private copy of the artifact.

    Same artifact *names* (the wire routes by name), different files —
    so the corrupt_shard scenarios poison exactly one worker's data and
    the front tier's integrity failover can route around it.
    """

    def __init__(self, per_worker_paths: Sequence[Sequence[str]], **kwargs):
        super().__init__(list(per_worker_paths[0]),
                         num_workers=len(per_worker_paths), **kwargs)
        self._per_worker_paths = [[str(path) for path in paths]
                                  for paths in per_worker_paths]

    def _spawn(self, index: int) -> None:
        saved = self.artifacts
        self.artifacts = self._per_worker_paths[index]
        try:
            super()._spawn(index)
        finally:
            self.artifacts = saved


def make_worker_copies(manifest: Path, workers: int,
                       root: Path) -> List[Path]:
    """One private copy of the sharded artifact directory per worker."""
    copies: List[Path] = []
    for index in range(workers):
        worker_dir = root / f"worker-{index}"
        shutil.copytree(manifest.parent, worker_dir)
        copies.append(worker_dir / manifest.name)
    return copies


async def run_scenario(name: str, plan: Optional[FaultPlan],
                       manifests: Sequence[Path], pairs, reference,
                       *, concurrency: int) -> Dict[str, object]:
    """One fleet, one fault plan, one verified closed-loop run."""
    supervise = name in SUPERVISED
    if plan is not None and plan.disk_faults:
        # Rot worker 1's private copy only; worker 0 stays the truth.
        apply_disk_faults(plan, manifests[1])
    if plan is not None and plan.runtime_faults:
        os.environ[CHAOS_ENV_VAR] = plan.to_json()
    else:
        os.environ.pop(CHAOS_ENV_VAR, None)
    try:
        cluster = PerWorkerArtifactCluster(
            [[str(path)] for path in manifests],
            supervise=supervise, supervise_interval=0.25, stuck_after=2,
            respawn_backoff=0.25)
        with cluster:
            frontend = Frontend([str(manifests[0])], cluster.addresses,
                                port=free_port(), request_timeout=1.0,
                                breaker_cooldown=0.25)
            await frontend.start()
            try:
                started = time.perf_counter()
                async with NetClient(*frontend.address, client=name,
                                     request_timeout=8.0) as client:
                    report = await run_closed_loop(
                        client, pairs, concurrency=concurrency, client=name,
                        error_types=NET_ERROR_TYPES,
                        timeout=CLIENT_TIMEOUT_S)
                duration = time.perf_counter() - started
                mismatches = count_mismatches(pairs, report.answers,
                                              reference)
                stats = frontend.stats()
                breakers = [{"state": link.breaker.state,
                             "opens": link.breaker.opens}
                            for link in frontend.links()]
            finally:
                await frontend.stop()
            fleet = cluster.describe()
    finally:
        os.environ.pop(CHAOS_ENV_VAR, None)
    return {
        "scenario": name,
        "plan": json.loads(plan.to_json()) if plan is not None else None,
        "supervised": supervise,
        "requested": report.requested,
        "completed": report.completed,
        "errors": report.errors,
        "timeouts": report.timeouts,
        "shed": report.shed,
        "availability": report.availability,
        "error_taxonomy": dict(report.error_taxonomy),
        "mismatches": mismatches,
        "duration_s": duration,
        "qps": report.achieved_qps,
        "p50_us": report.latency.get("p50_us"),
        "p95_us": report.latency.get("p95_us"),
        "p99_us": report.latency.get("p99_us"),
        "frontend": {key: stats.get(key) for key in (
            "retries", "failovers", "ejections", "readmits", "hedges",
            "hedge_wins", "deadline_rejections")},
        "breakers": breakers,
        "cluster": {"respawns": fleet["respawns"],
                    "stuck_kills": fleet["stuck_kills"]},
    }


async def run_campaign(manifest: Path, scenarios: Sequence[str], *,
                       workers: int, queries: int, bad_day_queries: int,
                       concurrency: int, seed: int,
                       copies_root: Path) -> Dict[str, object]:
    plans = scenario_plans(seed)
    ref_registry = build_registry([str(manifest)])
    reference = ref_registry.engine(ref_registry.entries()[0].name)
    n = ref_registry.entries()[0].n

    results: Dict[str, object] = {}
    for index, name in enumerate(scenarios):
        count = bad_day_queries if name == "bad_day" else queries
        pairs = zipf_pairs(n, count, skew=1.0, seed=seed + index)
        scenario_root = copies_root / name
        manifests = make_worker_copies(manifest, workers, scenario_root)
        print(f"-- {name}: {count} queries over {workers} workers --",
              flush=True)
        row = await run_scenario(name, plans[name], manifests, pairs,
                                 reference, concurrency=concurrency)
        shutil.rmtree(scenario_root, ignore_errors=True)
        results[name] = row
        print(f"  availability {row['availability']:.4f}, "
              f"P99 {row['p99_us'] or 0:.0f}us, "
              f"{row['mismatches']} mismatches, "
              f"errors {row['error_taxonomy']}, "
              f"failovers {row['frontend']['failovers']}, "
              f"hedges {row['frontend']['hedges']}, "
              f"respawns {row['cluster']['respawns']}", flush=True)
    return results


def gate_failures(results: Dict[str, object]) -> List[str]:
    """Acceptance-gate violations (empty list = pass)."""
    failures: List[str] = []
    for name, row in results.items():
        if row["mismatches"]:
            failures.append(
                f"correctness gate: {name} returned {row['mismatches']} "
                f"wrong answers (must be zero)")
        if row["availability"] < AVAILABILITY_FLOOR:
            failures.append(
                f"availability gate: {name} at "
                f"{row['availability']:.4f} < {AVAILABILITY_FLOOR}")
    baseline = results.get("baseline")
    bad_day = results.get("bad_day")
    if baseline and bad_day and baseline.get("p99_us") and \
            bad_day.get("p99_us"):
        ceiling = max(P99_CEILING_FLOOR_US,
                      P99_INFLATION_FACTOR * baseline["p99_us"])
        if bad_day["p99_us"] > ceiling:
            failures.append(
                f"latency gate: bad_day P99 {bad_day['p99_us']:.0f}us > "
                f"ceiling {ceiling:.0f}us "
                f"({P99_INFLATION_FACTOR}x baseline "
                f"{baseline['p99_us']:.0f}us)")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_chaos",
        description="availability + correctness under injected faults")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scenario set; gates only")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--n", type=int, default=512,
                        help="synthetic artifact size (nodes)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per scenario (default 1500 smoke / "
                             "3000)")
    parser.add_argument("--bad-day-queries", type=int, default=None,
                        dest="bad_day_queries",
                        help="queries for the combined plan (default 2000 "
                             "smoke / 10000)")
    parser.add_argument("--concurrency", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated subset to run")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"summary JSON (default {DEFAULT_OUT.name} on "
                             f"full runs)")
    args = parser.parse_args(argv)

    all_scenarios = tuple(scenario_plans(args.seed))
    if args.scenarios:
        scenarios = tuple(name.strip() for name in args.scenarios.split(","))
        unknown = set(scenarios) - set(all_scenarios)
        if unknown:
            parser.error(f"unknown scenarios: {', '.join(sorted(unknown))}")
    else:
        scenarios = SMOKE_SCENARIOS if args.smoke else all_scenarios
    queries = args.queries or (1_500 if args.smoke else 3_000)
    bad_day_queries = args.bad_day_queries or (2_000 if args.smoke
                                               else 10_000)
    out = args.out or (None if args.smoke else DEFAULT_OUT)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-bench-") as tmp:
        artifact_dir = Path(tmp) / "artifact"
        artifact_dir.mkdir()
        manifest = synthetic_sharded_artifact(
            artifact_dir, n=args.n, num_shards=args.shards, seed=args.seed)
        results = asyncio.run(run_campaign(
            manifest, scenarios, workers=args.workers, queries=queries,
            bad_day_queries=bad_day_queries, concurrency=args.concurrency,
            seed=args.seed, copies_root=Path(tmp) / "copies"))

    document = {
        "schema": "bench-pr9/v1",
        "smoke": bool(args.smoke),
        "config": {
            "workers": args.workers, "n": args.n, "shards": args.shards,
            "queries": queries, "bad_day_queries": bad_day_queries,
            "concurrency": args.concurrency, "seed": args.seed,
            "scenarios": list(scenarios),
            "client_timeout_s": CLIENT_TIMEOUT_S,
        },
        "gates": {"availability_floor": AVAILABILITY_FLOOR,
                  "p99_inflation_factor": P99_INFLATION_FACTOR,
                  "p99_ceiling_floor_us": P99_CEILING_FLOOR_US},
        "results": results,
    }
    if out is not None:
        out.write_text(json.dumps(document, indent=2, sort_keys=True,
                                  default=repr) + "\n")
        print(f"wrote {out}")

    failures = gate_failures(results)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("all gates passed")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
