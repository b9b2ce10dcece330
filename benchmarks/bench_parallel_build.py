"""E-PAR: parallel sharded oracle build ladder.

Standalone perf harness for oracle builds with ``jobs``::

    PYTHONPATH=src python benchmarks/bench_parallel_build.py --json

builds the same graph at jobs=1/2/4 through
``OracleBuilder(strategy, jobs=jobs).build_sharded`` and records, per job
count, wall-clock seconds, the per-phase breakdown the builder already
times, and the per-shard SHA-256 digests.  Full runs write
``BENCH_PR7.json`` at the repo root so future PRs have a committed
trajectory.  ``--smoke`` runs a reduced ladder (n=1024, jobs 1 and 4)
and *gates* one thing: every job count must produce bit-identical shards
(the per-shard SHA-256 lists must match) — parallelism may never change
the artifact.  The jobs ratio is printed, not gated: at this size it
compares a 0.6 s build with one that first waits for a spawn pool to boot.

``bench_primitives.py --smoke`` imports ``run_ladder`` /
``gate_failures`` from here so CI exercises the gate in one entrypoint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.graphs.generators import random_weighted_graph
from repro.oracle import OracleBuilder

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Committed baseline written by full runs.
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR7.json"

#: Full ladder: the ISSUE acceptance grid (n=2048 landmark build).
FULL_LADDER = dict(n=2048, num_shards=4, jobs_list=(1, 2, 4))

#: Smoke ladder: the CI gate grid (n=1024, serial vs 4 workers).
SMOKE_LADDER = dict(n=1024, num_shards=4, jobs_list=(1, 4))


def run_ladder(n, num_shards, jobs_list, *, strategy="landmark-mssp",
               degree=8.0, max_weight=32, seed=7):
    """Build one graph at each job count; return the timed ladder."""
    graph = random_weighted_graph(n, degree, max_weight=max_weight, seed=seed)
    runs = []
    for jobs in jobs_list:
        with tempfile.TemporaryDirectory(prefix="bench-par-") as tmp:
            start = time.perf_counter()
            artifact, _, shard_paths = OracleBuilder(
                strategy, jobs=jobs).build_sharded(
                    graph, Path(tmp) / "oracle.npz", num_shards)
            seconds = time.perf_counter() - start
            runs.append({
                "jobs": jobs,
                "seconds": round(seconds, 3),
                "phases": artifact.metadata["build"]["phases"],
                "shard_sha256": [hashlib.sha256(p.read_bytes()).hexdigest()
                                 for p in shard_paths],
            })
    serial = runs[0]["seconds"]
    for run in runs:
        run["speedup_vs_jobs1"] = round(serial / run["seconds"], 3)
    return {
        "primitive": "sharded_build",
        "strategy": strategy,
        "n": n,
        "num_shards": num_shards,
        "degree": degree,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }


def gate_failures(ladder):
    """Gate a ladder: every job count writes the jobs=1 shards."""
    runs = ladder["runs"]
    return [
        f"jobs={run['jobs']} shards differ from jobs={runs[0]['jobs']}"
        " — parallel build is not bit-identical"
        for run in runs[1:]
        if run["shard_sha256"] != runs[0]["shard_sha256"]
    ]


def format_ladder(ladder) -> str:
    lines = [
        f"E-PAR: sharded {ladder['strategy']} build, n={ladder['n']}, "
        f"{ladder['num_shards']} shards, {ladder['cpu_count']} CPUs",
        f"{'jobs':>6} {'seconds':>10} {'speedup':>9}  phases",
    ]
    for run in ladder["runs"]:
        phases = " ".join(f"{k}={v:.2f}s"
                          for k, v in sorted(run["phases"].items()))
        lines.append(f"{run['jobs']:>6} {run['seconds']:>10.3f} "
                     f"{run['speedup_vs_jobs1']:>8.2f}x  {phases}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write results as JSON (default: BENCH_PR7.json at the repo "
             "root for full runs, BENCH_PR7.smoke.json for --smoke runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced ladder (n=1024, jobs 1/4) with the bit-parity gate",
    )
    args = parser.parse_args(argv)

    config = SMOKE_LADDER if args.smoke else FULL_LADDER
    ladder = run_ladder(**config)
    print(format_ladder(ladder))

    status = 0
    failures = gate_failures(ladder)
    if failures:
        print("PARALLEL BUILD GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        status = 1
    else:
        best = max(run["speedup_vs_jobs1"] for run in ladder["runs"][1:])
        print(f"parallel build gate OK (bit-parity; best jobs ratio "
              f"{best:.2f}x on {ladder['cpu_count']} CPUs, not gated)")

    if args.json is not None:
        default = "BENCH_PR7.smoke.json" if args.smoke else "BENCH_PR7.json"
        path = Path(args.json) if args.json else REPO_ROOT / default
        payload = {"schema": "bench-pr7/v1", "smoke": args.smoke,
                   "ladder": ladder}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
