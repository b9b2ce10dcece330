"""Benchmark-suite configuration.

Each benchmark runs the corresponding experiment from
:mod:`benchmarks._harness` exactly once (``pedantic`` with one round): the
quantity of interest is the *simulated Congested Clique round count*, which
is deterministic, not the wall-clock time.  The measured rows are attached
to ``benchmark.extra_info`` so they appear in the pytest-benchmark output
and JSON exports, and ``benchmarks/run_experiments.py`` prints the same rows
as paper-vs-measured tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make `import _harness` work regardless of how pytest sets up sys.path.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_experiment(benchmark, experiment_fn, *args, **kwargs):
    """Run an experiment function once under pytest-benchmark."""
    result = benchmark.pedantic(
        lambda: experiment_fn(*args, **kwargs), rounds=1, iterations=1
    )
    benchmark.extra_info["rows"] = result
    return result
