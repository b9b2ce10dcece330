"""Distance-oracle subsystem: build once, persist, query many times.

The headline algorithms in :mod:`repro.core` are one-shot Congested Clique
computations.  This package turns them into a *distance oracle* with the
build/serve split used by production shortest-path systems:

* :mod:`repro.oracle.strategies` — the pluggable :class:`StrategyRegistry`
  of build strategies (``dense-apsp``, ``landmark-mssp``,
  ``exact-fallback``, ``spanner-greedy``, ``hopset-landmark``), each a
  declarative :class:`StrategySpec` with build fn, stretch guarantee and
  cost estimators.
* :mod:`repro.oracle.build` — :class:`OracleBuilder` dispatches through
  the registry and records the simulated build rounds and the stretch
  guarantee.
* :mod:`repro.oracle.planner` — :func:`plan_fleet` / :func:`execute_plan`
  turn stretch/latency/memory budgets into a built, bootable artifact
  fleet.
* :mod:`repro.oracle.artifact` — :class:`OracleArtifact`, the in-memory
  build product, and :mod:`repro.oracle.sharding` — the one on-disk format
  (memory-mappable row shards + a JSON manifest with per-shard SHA-256),
  written by ``save_sharded`` and opened by :func:`load_artifact`.
* :mod:`repro.oracle.engine` — :class:`QueryEngine` serving ``dist``,
  ``batch`` and ``k_nearest`` queries with an array-resident answer
  cache (:class:`AnswerCache`) and latency percentiles via ``latency``.

Quick start::

    from repro import graphs
    from repro.oracle import build_oracle, load_artifact, QueryEngine

    g = graphs.random_weighted_graph(96, average_degree=8, seed=0)
    artifact = build_oracle(g, strategy="landmark-mssp", epsilon=0.5)
    artifact.save_sharded("oracle")       # oracle.shards.json + one shard

    engine = QueryEngine(load_artifact("oracle"))
    print(engine.dist(0, 42), engine.latency.snapshot()["p50_us"])
"""

from repro import lazy_exports

#: Public names and the submodule each lives in, imported on first
#: access (PEP 562): a serving worker needs ``engine``/``sharding``/
#: ``artifact``/``strategies``/``cache`` and must not pay for ``build``
#: and ``planner``, which pull in the simulator and every algorithm.
_EXPORTS = {
    "FORMAT_VERSION": "artifact",
    "ArtifactError": "artifact",
    "OracleArtifact": "artifact",
    "BuildReport": "build",
    "OracleBuilder": "build",
    "build_oracle": "build",
    "AnswerCache": "cache",
    "QueryEngine": "engine",
    "SHARD_MANIFEST_SUFFIX": "sharding",
    "SHARD_MANIFEST_VERSION": "sharding",
    "ShardedOracleArtifact": "sharding",
    "load_artifact": "sharding",
    "shard_artifact": "sharding",
    "shard_manifest_path": "sharding",
    "write_sharded_artifact": "sharding",
    "QUERY_KINDS": "strategies",
    "REGISTRY": "strategies",
    "STRATEGY_NAMES": "strategies",
    "CostEstimate": "strategies",
    "StrategyRegistry": "strategies",
    "StrategySpec": "strategies",
    "StretchGuarantee": "strategies",
    "get_strategy": "strategies",
    "register_strategy": "strategies",
    "FleetPlan": "planner",
    "PlanChoice": "planner",
    "PlanError": "planner",
    "execute_plan": "planner",
    "parse_budget": "planner",
    "plan_fleet": "planner",
}


__getattr__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
