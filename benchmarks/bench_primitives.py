"""E-PRIM / E-KERN: model and kernel primitives.

Two roles in one file:

* As a pytest-benchmark module it validates, at small n where full
  message-level simulation is feasible, that the routing and sorting
  primitives complete full (load n per node) instances in a constant
  number of rounds — the assumption under which the accounting layer
  charges the algorithms (the ablation called out in DESIGN.md).

* As a standalone script it is the **perf-regression harness** for the
  local product kernels::

      PYTHONPATH=src python benchmarks/bench_primitives.py --json

  times every kernel primitive (dict vs CSR vs dense local products over
  min-plus / augmented / Boolean semirings, the restricted subcube
  product, witnessed products, and the vectorised ``QueryEngine.batch``)
  at fixed seeds and sizes, asserts that the kernels agree bit-for-bit,
  and writes ``BENCH_PR2.json`` so future PRs have a trajectory to
  compare against.  ``--smoke`` runs a reduced grid and *gates* against
  the committed baseline: it exits non-zero if any kernel disagrees with
  the dict reference or any speedup regressed more than ``--tolerance``
  (default 3x) below the committed number.  ``--smoke`` also runs the
  parallel sharded-build ladder from ``bench_parallel_build.py`` and
  enforces its gate: bit-identical shards at every job count (the jobs
  ratio is printed, not gated).  CI runs the smoke mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _harness import (
    experiment_engine_batch,
    experiment_kernel_primitives,
    experiment_primitives,
    format_table,
)
from bench_parallel_build import (
    SMOKE_LADDER,
    format_ladder,
    gate_failures as parallel_gate_failures,
    run_ladder,
)

#: Committed baseline written by full runs and read by --smoke gating.
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"

#: Sizes for the kernel grid; the smoke grid is the prefix.
FULL_SIZES = (64, 256)
SMOKE_SIZES = (64,)


def test_primitives_constant_rounds(benchmark):
    from conftest import run_experiment

    rows = run_experiment(benchmark, experiment_primitives, (8, 12, 16, 24))
    print()
    print(format_table("E-PRIM: routing / sorting on the message-level simulator", rows))
    for row in rows:
        assert row["routing_rounds"] <= 8
        assert row["sorting_rounds"] <= 24
    # Constant rounds: the largest instance takes no more rounds than twice
    # the smallest (no growth trend with n).
    assert rows[-1]["routing_rounds"] <= 2 * max(1, rows[0]["routing_rounds"])
    assert rows[-1]["sorting_rounds"] <= 2 * max(1, rows[0]["sorting_rounds"])


# ----------------------------------------------------------------------
# standalone kernel-benchmark harness
# ----------------------------------------------------------------------
def collect_results(smoke: bool) -> dict:
    """Run the kernel grid and key rows as ``{primitive}_n{n}``."""
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    rows = experiment_kernel_primitives(sizes=sizes)
    # Same query count in both modes: the gate compares speedups under the
    # same JSON key, and batch amortisation depends on the batch size.
    rows += experiment_engine_batch(n=64, queries=20_000)
    return {f"{row['primitive']}_n{row['n']}": row for row in rows}


def regression_failures(results: dict, baseline: dict, tolerance: float) -> list:
    """Speedups that fell more than ``tolerance``x below the baseline.

    Comparing *speedups* (CSR vs dict on the same machine, batch vs loop on
    the same machine) rather than absolute wall-clock keeps the gate
    meaningful across differently-sized CI runners.
    """
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
            "— regenerate BENCH_PR2.json with a full run"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="write results as JSON (default: BENCH_PR2.json at the repo "
             "root for full runs, BENCH_PR2.smoke.json for --smoke runs)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced grid + regression gate against the committed "
             "BENCH_PR2.json (exit non-zero on kernel disagreement or a "
             ">tolerance speedup regression)",
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

    # Kernel disagreement raises inside the experiments -> non-zero exit.
    results = collect_results(smoke=args.smoke)
    kernel_rows = [r for r in results.values() if "kernel_auto" in r]
    engine_rows = [r for r in results.values() if "kernel_auto" not in r]
    print(format_table(
        "E-KERN: local product kernels (dict vs csr vs dense)", kernel_rows
    ))
    print(format_table(
        "E-KERN: QueryEngine.batch (vectorised) vs per-pair dist loop",
        engine_rows,
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

        # Parallel-vs-serial sharded build gate: bit-parity.
        ladder = run_ladder(**SMOKE_LADDER)
        print(format_ladder(ladder))
        par_failures = parallel_gate_failures(ladder)
        if par_failures:
            print("PARALLEL BUILD GATE FAILED:")
            for failure in par_failures:
                print(f"  - {failure}")
            status = 1
        else:
            print("parallel build gate OK")

    if args.json is not None:
        default_name = "BENCH_PR2.smoke.json" if args.smoke else "BENCH_PR2.json"
        path = Path(args.json) if args.json else DEFAULT_BASELINE.parent / default_name
        payload = {
            "schema": "bench-pr2/v1",
            "smoke": args.smoke,
            "sizes": list(SMOKE_SIZES if args.smoke else FULL_SIZES),
            "results": results,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
