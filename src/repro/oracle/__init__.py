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
* :mod:`repro.oracle.artifact` — :class:`OracleArtifact`, a versioned
  on-disk format (compressed ``.npz`` payload + JSON metadata sidecar with
  a payload checksum) that round-trips through ``save``/``load``.
* :mod:`repro.oracle.engine` — :class:`QueryEngine` serving ``dist``,
  ``batch`` and ``k_nearest`` queries with an array-resident answer
  cache (:class:`AnswerCache`) and latency percentiles via ``stats()``.

Quick start::

    from repro import graphs
    from repro.oracle import build_oracle, OracleArtifact, QueryEngine

    g = graphs.random_weighted_graph(96, average_degree=8, seed=0)
    artifact = build_oracle(g, strategy="landmark-mssp", epsilon=0.5)
    artifact.save("oracle.npz")

    engine = QueryEngine(OracleArtifact.load("oracle.npz"))
    print(engine.dist(0, 42), engine.stats()["latency"]["p50_us"])
"""

#: Public names and the submodule each lives in, imported on first
#: access (PEP 562): a serving worker needs ``engine``/``sharding``/
#: ``artifact``/``strategies``/``cache`` and must not pay for ``build``
#: and ``planner``, which pull in the simulator and every algorithm.
_EXPORTS = {
    "FORMAT_VERSION": "artifact",
    "ArtifactError": "artifact",
    "OracleArtifact": "artifact",
    "artifact_paths": "artifact",
    "BuildReport": "build",
    "OracleBuilder": "build",
    "build_oracle": "build",
    "AnswerCache": "cache",
    "QueryEngine": "engine",
    "measure_throughput": "engine",
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


def __getattr__(name: str):
    import importlib

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"repro.oracle.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


__all__ = sorted(_EXPORTS)
