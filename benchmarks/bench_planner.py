"""E-PLAN: stretch-budget fleet planner gates.

Standalone harness for the PR 10 planner + oracle family::

    PYTHONPATH=src python benchmarks/bench_planner.py --json

Two experiments, both gated (``--smoke`` runs the same experiments on
the same grids — the gates are cheap enough to enforce everywhere):

* **Artifact size** — build ``spanner-greedy`` and ``dense-apsp`` for
  the same n=1024 graph through the ordinary sharded save path and
  compare on-disk shard bytes.  Gate: the spanner fleet must be at most
  ``--max-size-ratio`` (default 0.5) of the dense fleet.  This is the
  paper's point made operational: a (2k-1)-spanner plus landmark rows
  replaces the quadratic table.
* **Budget violations** — for every budget in a stretch grid
  (1x, 3x, 4.5x, 9x, inf) run :func:`repro.oracle.plan_fleet` +
  :func:`repro.oracle.execute_plan` on an n=128 graph, boot the emitted
  manifest through ``build_registry`` + :class:`StretchRouter` (the same
  path ``repro net serve`` takes), and check **every** pair's answer
  against brute-force Dijkstra distances.  Gates: zero violations — the
  planner may never ship an artifact that breaks the budget that
  selected it — and every budget routed to the artifact the planner
  built for it, so no built artifact goes unserved.

Full runs write ``BENCH_PR10.json`` at the repo root so future PRs have
a committed trajectory; ``--smoke`` writes ``BENCH_PR10.smoke.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path

from repro.graphs import all_pairs_dijkstra
from repro.graphs.generators import random_weighted_graph
from repro.oracle import build_oracle, execute_plan, plan_fleet
from repro.serve import StretchRouter, build_registry
from repro.serve.router import StretchBudget

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Committed baseline written by full runs.
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_PR10.json"

#: Artifact-size experiment: one graph, both strategies, sharded save.
SIZE_GRID = dict(n=1024, degree=8.0, max_weight=32, seed=7, num_shards=4)

#: Budget-violation experiment: the stretch grid every CI run must clear.
VIOLATION_GRID = dict(n=128, degree=6.0, max_weight=16, seed=11,
                      budget_multipliers=(1.0, 3.0, 4.5, 9.0, math.inf))

#: Required spanner/dense on-disk size ratio.
MAX_SIZE_RATIO = 0.5


def run_size_experiment(n, degree, max_weight, seed, num_shards):
    """Build both artifacts sharded; report on-disk bytes and build time."""
    graph = random_weighted_graph(n, degree, max_weight=max_weight, seed=seed)
    results = {}
    for strategy in ("dense-apsp", "spanner-greedy"):
        start = time.perf_counter()
        artifact = build_oracle(graph, strategy=strategy, epsilon=0.5)
        build_s = time.perf_counter() - start
        with tempfile.TemporaryDirectory(prefix="bench-plan-") as tmp:
            _, shard_paths = artifact.save_sharded(
                Path(tmp) / strategy, num_shards)
            size = sum(path.stat().st_size for path in shard_paths)
        results[strategy] = {
            "build_seconds": round(build_s, 3),
            "sharded_bytes": size,
            "stretch": [artifact.stretch.multiplicative,
                        artifact.stretch.additive],
        }
    ratio = (results["spanner-greedy"]["sharded_bytes"]
             / results["dense-apsp"]["sharded_bytes"])
    return {
        "experiment": "artifact_size",
        "n": n,
        "degree": degree,
        "num_shards": num_shards,
        "seed": seed,
        "strategies": results,
        "spanner_over_dense_ratio": round(ratio, 4),
    }


def run_violation_experiment(n, degree, max_weight, seed,
                             budget_multipliers):
    """Plan/build/boot a fleet per budget; count stretch violations."""
    graph = random_weighted_graph(n, degree, max_weight=max_weight, seed=seed)
    exact = all_pairs_dijkstra(graph)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    budgets = [StretchBudget(mult, math.inf if math.isinf(mult) else 0.0)
               for mult in budget_multipliers]
    plan = plan_fleet(graph, budgets=budgets)
    with tempfile.TemporaryDirectory(prefix="bench-plan-") as tmp:
        execution = execute_plan(plan, graph, Path(tmp) / "fleet")
        registry = build_registry([execution.manifest_path])
        router = StretchRouter(registry)
        rows = []
        for budget, choice in zip(budgets, plan.choices):
            decision = router.route(multiplicative=budget.multiplicative,
                                    additive=budget.additive)
            engine = registry.engine(decision.name)
            violations = 0
            worst = 1.0
            for (u, v), est in zip(pairs, engine.batch(pairs).tolist()):
                true = exact[u][v]
                if true == math.inf:
                    if est != math.inf:
                        violations += 1
                    continue
                if est < true - 1e-9:
                    violations += 1
                elif not math.isinf(budget.multiplicative):
                    if est > budget.multiplicative * true + 1e-9:
                        violations += 1
                    elif true > 0:
                        worst = max(worst, est / true)
            rows.append({
                "budget_multiplicative": budget.multiplicative,
                "planned_strategy": choice.strategy,
                "routed_artifact": decision.name,
                "num_shards": choice.num_shards,
                "pairs_checked": len(pairs),
                "violations": violations,
                "worst_observed_stretch": round(worst, 4),
            })
    return {
        "experiment": "budget_violations",
        "n": n,
        "degree": degree,
        "seed": seed,
        "plan_builds": [list(build) for build in plan.builds()],
        "rows": rows,
    }


def gate_failures(size_result, violation_result,
                  max_size_ratio=MAX_SIZE_RATIO):
    """Every CI gate; a non-empty list fails the run."""
    failures = []
    ratio = size_result["spanner_over_dense_ratio"]
    if ratio > max_size_ratio:
        failures.append(
            f"spanner artifact is {ratio:.1%} of dense at "
            f"n={size_result['n']} — exceeds the {max_size_ratio:.0%} cap")
    for row in violation_result["rows"]:
        if row["violations"]:
            failures.append(
                f"budget {row['budget_multiplicative']:g}x via "
                f"{row['routed_artifact']}: {row['violations']} violations "
                f"over {row['pairs_checked']} pairs")
        if row["routed_artifact"] != row["planned_strategy"]:
            failures.append(
                f"budget {row['budget_multiplicative']:g}x: planned "
                f"{row['planned_strategy']} but routed to "
                f"{row['routed_artifact']}")
    return failures


def format_results(size_result, violation_result) -> str:
    lines = [
        f"E-PLAN: artifact size at n={size_result['n']} "
        f"({size_result['num_shards']} shards)",
    ]
    for name, row in size_result["strategies"].items():
        lines.append(f"  {name:>16}: {row['sharded_bytes']:>10} bytes "
                     f"({row['build_seconds']:.2f}s build)")
    lines.append(f"  spanner/dense ratio: "
                 f"{size_result['spanner_over_dense_ratio']:.1%}")
    lines.append(f"E-PLAN: budget grid at n={violation_result['n']}")
    lines.append(f"{'budget':>10} {'strategy':>16} {'shards':>7} "
                 f"{'violations':>11} {'worst':>7}")
    for row in violation_result["rows"]:
        lines.append(
            f"{row['budget_multiplicative']:>9g}x "
            f"{row['planned_strategy']:>16} {row['num_shards']:>7} "
            f"{row['violations']:>11} {row['worst_observed_stretch']:>6.2f}x")
    return "\n".join(lines)


def _json_safe(value):
    """Strict JSON has no Infinity: stringify non-finite floats."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write results as JSON (default: BENCH_PR10.json at the repo "
             "root for full runs, BENCH_PR10.smoke.json for --smoke runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: same grids, gates enforced, smoke JSON filename",
    )
    parser.add_argument(
        "--max-size-ratio", type=float, default=MAX_SIZE_RATIO,
        help="maximum allowed spanner/dense on-disk byte ratio "
             f"(default {MAX_SIZE_RATIO})",
    )
    args = parser.parse_args(argv)

    size_result = run_size_experiment(**SIZE_GRID)
    violation_result = run_violation_experiment(**VIOLATION_GRID)
    print(format_results(size_result, violation_result))

    status = 0
    failures = gate_failures(size_result, violation_result,
                             max_size_ratio=args.max_size_ratio)
    if failures:
        print("PLANNER GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        status = 1
    else:
        print("planner gate OK (size ratio + zero budget violations + "
              "planned == routed)")

    if args.json is not None:
        default = "BENCH_PR10.smoke.json" if args.smoke else "BENCH_PR10.json"
        path = Path(args.json) if args.json else REPO_ROOT / default
        payload = _json_safe({
            "schema": "bench-pr10/v1",
            "smoke": args.smoke,
            "artifact_size": size_result,
            "budget_violations": violation_result,
        })
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
