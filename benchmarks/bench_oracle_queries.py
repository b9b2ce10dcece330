"""E-ORACLE: distance-oracle query throughput and latency.

A pytest-benchmark module: it builds every oracle strategy on a 256-node
random graph and a 16x16 grid, then measures cold (cache-miss) and cached
queries/sec plus P50/P95/P99 query latency — the serve-side counterpart of
the round-count experiments.  The acceptance floor asserted here: every
strategy sustains at least 10,000 cached point queries/sec on the 256-node
graphs.

(The standalone half that compared the single-file format with row shards
went with that format; what serving from shards costs is measured by
``bench/run.py``'s ``oracle.sharding.*`` and ``oracle.engine.*`` rows.)
"""

from __future__ import annotations

from _harness import experiment_oracle_queries, format_table


def test_oracle_query_throughput(benchmark):
    from conftest import run_experiment

    rows = run_experiment(benchmark, experiment_oracle_queries, 256, 20_000)
    print()
    print(format_table("E-ORACLE: oracle queries/sec and latency (n=256)", rows))
    assert len(rows) == 6  # 3 strategies x 2 graph families
    for row in rows:
        assert row["cached_qps"] >= 10_000, row
        # Caching must not make things slower than recomputing per query.
        assert row["cached_qps"] >= row["cold_qps"] * 0.5, row
        assert row["p50_us"] <= row["p95_us"] <= row["p99_us"], row
