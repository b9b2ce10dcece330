#!/usr/bin/env python3
"""Two epsilon levels behind one async distance server.

The serving subsystem (:mod:`repro.serve`) operationalises the
stretch/size trade-off: keep several oracle artifacts at different
stretch levels and answer each query from the cheapest one that
satisfies its stretch budget.  This example walks the full serving loop:

1. build TWO ``landmark-mssp`` oracles of the same graph at different
   epsilon levels (a tight 3(1+0.1)x one and a loose 3(1+0.9)x one) and
   persist them next to a registry manifest;
2. discover both through an :class:`ArtifactRegistry` (lazy engines,
   LRU-evicted) and route with a :class:`StretchRouter`;
3. serve concurrent queries through :class:`DistanceServer` — budgetless
   queries coalesce onto the cheap artifact, budgeted ones onto the
   tight artifact;
4. drive a Zipf-skewed closed-loop workload with the load generator and
   read the server's flat stats and latency window, each engine's stats,
   and the router's per-artifact route counts — the numbers ``/metricsz``
   publishes.

Run with::

    python examples/distance_server.py [n] [queries]
"""

from __future__ import annotations

import asyncio
import sys
import tempfile
from pathlib import Path

from repro.graphs import random_weighted_graph
from repro.oracle import OracleBuilder
from repro.serve import (
    ArtifactRegistry,
    DistanceServer,
    ServerConfig,
    StretchRouter,
    run_closed_loop,
    zipf_pairs,
)


async def serve(registry: ArtifactRegistry, n: int, queries: int) -> None:
    router = StretchRouter(registry)
    config = ServerConfig(coalesce_window=0.001, max_batch=4096)
    async with DistanceServer(router, config) as server:
        # --- budget routing: same pair, two guarantees -------------------
        tight_budget = registry.get("tight").stretch.multiplicative
        loose = await server.dist(0, n - 1)
        tight = await server.dist(0, n - 1, multiplicative=tight_budget)
        print("\n-- one pair, two stretch budgets --")
        print(f"dist(0, {n - 1})  no budget      = {loose:g}  (served by "
              f"{router.route().name!r})")
        print(f"dist(0, {n - 1})  <= {tight_budget:g}x budget = {tight:g}  "
              f"(served by {router.route(multiplicative=tight_budget).name!r})")

        # --- a coalesced Zipf workload ----------------------------------
        pairs = zipf_pairs(n, queries, skew=1.0, seed=42)
        report = await run_closed_loop(server, pairs, concurrency=64)
        print("\n-- closed-loop workload --")
        print(report.summary())

        stats = server.stats()
        print("\n-- server stats --")
        latency = server.latency.snapshot()
        print(f"requests         : {stats['requests']} "
              f"({stats['shed']} shed, P99 {latency['p99_us']:.0f} us)")
        print(f"engine batches   : {stats['engine_batches']} for "
              f"{stats['coalesced_keys']} coalesced keys")
        print(f"routes           : {dict(sorted(router.routes.items()))}")
        for name, engine in sorted(registry.loaded_engines().items()):
            print(f"engine[{name}]: queries={engine.stats()['queries']}, "
                  f"hit_rate={engine.cache.hit_rate:.3f}")


def main(n: int = 96, queries: int = 2000) -> None:
    print(f"== Async distance serving on n={n}, two epsilon levels ==")
    graph = random_weighted_graph(n, average_degree=8, max_weight=32, seed=7)
    print(f"graph: {graph.n} nodes, {graph.num_edges()} edges")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # The expensive half, paid once per epsilon level.
        for name, epsilon in (("tight", 0.1), ("loose", 0.9)):
            builder = OracleBuilder(strategy="landmark-mssp", epsilon=epsilon)
            artifact = builder.build(graph)
            artifact.save_sharded(root / name)
            stretch = artifact.stretch
            print(f"built {name!r}: eps={epsilon} -> "
                  f"{stretch.multiplicative:g}x guarantee")

        registry = ArtifactRegistry(capacity=2)
        registry.discover(root)
        manifest = registry.write_manifest(root / "fleet.json")
        print(f"manifest: {manifest.name} pins {len(registry)} artifacts")

        asyncio.run(serve(registry, n, queries))


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    main(size, count)
