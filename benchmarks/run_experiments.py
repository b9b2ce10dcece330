#!/usr/bin/env python3
"""Regenerate every paper-vs-measured table.

Runs all experiments from :mod:`benchmarks._harness` (the same code paths
the pytest-benchmark suite exercises) and prints the tables to stdout.

Usage::

    python benchmarks/run_experiments.py            # all experiments
    python benchmarks/run_experiments.py t3 t25     # a subset, by id
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _harness as harness  # noqa: E402

EXPERIMENTS = {
    "t8": ("E-T8: output-sensitive sparse MM (Theorem 8), n=256", lambda: harness.experiment_t8_sparse_mm(256)),
    "t14": ("E-T14: filtered MM (Theorem 14), star workload, n=96", lambda: harness.experiment_t14_filtered(96)),
    "t18": ("E-T18: k-nearest (Theorem 18), n=96", lambda: harness.experiment_t18_k_nearest(96)),
    "t19": ("E-T19: source detection (Theorem 19), n=96", lambda: harness.experiment_t19_source_detection(96)),
    "t20": ("E-T20: distance through sets (Theorem 20), n=96", lambda: harness.experiment_t20_through_sets(96)),
    "t25": ("E-T25: hopsets (Theorem 25), n=80", lambda: harness.experiment_t25_hopsets(80)),
    "t3": ("E-T3: multi-source shortest paths (Theorem 3), n=96", lambda: harness.experiment_t3_mssp(96)),
    "t28": ("E-T28: weighted APSP (Theorem 28 / Section 6.1), n=80", lambda: harness.experiment_t28_apsp_weighted(80)),
    "t2": ("E-T2: unweighted APSP (Theorems 2/31), n=80", lambda: harness.experiment_t2_apsp_unweighted(80)),
    "t33": ("E-T33: exact SSSP (Theorem 33), weighted grids", lambda: harness.experiment_t33_sssp((36, 64, 100, 144, 196))),
    "c35": ("E-C35: diameter approximation (Claim 35)", harness.experiment_c35_diameter),
    "base": ("E-BASE: APSP family head-to-head", lambda: harness.experiment_baseline_comparison((32, 64, 96, 128))),
    "prim": ("E-PRIM: simulator primitives", lambda: harness.experiment_primitives((8, 12, 16, 24))),
}


def main(selected: list[str]) -> None:
    chosen = selected or list(EXPERIMENTS)
    for key in chosen:
        if key not in EXPERIMENTS:
            print(f"unknown experiment id: {key}; known ids: {', '.join(EXPERIMENTS)}")
            continue
        title, runner = EXPERIMENTS[key]
        start = time.time()
        rows = runner()
        elapsed = time.time() - start
        print(harness.format_table(title, rows))
        print(f"(regenerated in {elapsed:.1f}s wall-clock)\n")


if __name__ == "__main__":
    main(sys.argv[1:])
