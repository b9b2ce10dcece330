#!/usr/bin/env python3
"""Distance-oracle service walkthrough: build once, persist, query many.

The headline algorithms compute distances once and throw the result away;
a serving system wants the opposite split — pay the expensive Congested
Clique computation once, keep the artifact, and answer queries in
microseconds.  This example walks the full loop:

1. build a ``landmark-mssp`` oracle (exact √n-balls + hitting-set
   landmarks + (1 + ε)-approximate MSSP table) and inspect its build cost;
2. save it to disk (one memory-mappable row shard + JSON manifest) and
   open it again, as a service restart would;
3. serve point, batch, and k-nearest queries through the LRU-cached
   engine;
4. validate answers against exact Dijkstra and read the serving stats
   (cache hit rate, latency percentiles).

Run with::

    python examples/distance_oracle_service.py [n] [epsilon]
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

from repro.graphs import dijkstra, random_weighted_graph
from repro.oracle import OracleBuilder, QueryEngine, load_artifact


def main(n: int = 96, epsilon: float = 0.5) -> None:
    print(f"== Distance-oracle service on n={n}, eps={epsilon} ==\n")

    graph = random_weighted_graph(n, average_degree=8, max_weight=32, seed=7)
    print(f"graph: {graph.n} nodes, {graph.num_edges()} edges")

    # --- 1. build ---------------------------------------------------------
    builder = OracleBuilder(strategy="landmark-mssp", epsilon=epsilon)
    artifact = builder.build(graph)
    print("\n-- oracle build (paid once) --")
    print(builder.report(artifact).summary())

    # --- 2. persist and reopen -------------------------------------------
    # Shards are mapped, not read: the files stay where they are for as
    # long as the engine serves from them.
    with tempfile.TemporaryDirectory() as tmp:
        manifest, shards = artifact.save_sharded(Path(tmp) / "oracle")
        size_kb = sum(shard.stat().st_size for shard in shards) / 1024
        print("\n-- persistence --")
        print(f"manifest : {manifest.name}")
        print(f"shards   : {len(shards)} ({size_kb:.1f} KiB, memory-mapped)")
        engine = QueryEngine(load_artifact(manifest))  # a fresh "server"
        serve_and_validate(engine, graph, artifact.stretch)


def serve_and_validate(engine: QueryEngine, graph, bound) -> None:
    n = graph.n
    # --- 3. serve queries --------------------------------------------------
    rng = random.Random(11)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    engine.batch(pairs)  # cold pass fills the cache
    engine.batch(pairs)  # warm pass is served from the cache

    u, v = pairs[0]
    print("\n-- queries --")
    print(f"dist({u}, {v})    = {engine.dist(u, v):g}")
    nearest = engine.k_nearest(0, 5)
    print(f"k_nearest(0, 5) = {nearest}")

    # --- 4. validate and report stats --------------------------------------
    worst = 1.0
    exact_from_u = {u: dijkstra(graph, u) for u in {p[0] for p in pairs[:200]}}
    for u, v in pairs[:200]:
        true = exact_from_u[u][v]
        if true in (0, float("inf")):
            continue
        estimate = engine.dist(u, v)
        assert true - 1e-9 <= estimate <= bound.upper_bound(true) + 1e-9
        worst = max(worst, estimate / true)
    print("\n-- validation against exact Dijkstra (200 sampled pairs) --")
    print(f"max stretch      : {worst:.3f} "
          f"(guarantee {bound.multiplicative:g}x)")

    latency = engine.latency.snapshot()
    print("\n-- serving stats --")
    print(f"queries          : {engine.stats()['queries']}")
    print(f"cache hit rate   : {engine.cache.hit_rate:.3f}")
    print(f"latency P50/P95/P99 (us): {latency['p50_us']:.1f} / "
          f"{latency['p95_us']:.1f} / {latency['p99_us']:.1f}")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    eps = float(sys.argv[2]) if len(sys.argv) > 2 else 0.5
    main(size, eps)
