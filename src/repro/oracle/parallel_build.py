"""Process-parallel oracle builds: K row shards built on K cores.

The sharded artifact format (PR 4) already splits every oracle payload
into contiguous row ranges — exactly the slab decomposition the paper's
Congested Clique algorithms assign to their ``n`` machines.  This module
builds those shards **concurrently**: the distance closure, the ball
derivation, and the shard files themselves are all row-slab tasks executed
on a :class:`repro.matmul.parallel.SlabExecutor`, so build time scales
with cores while each worker holds one slab of rows, never the artifact.

Two entry points (both also reachable through
``OracleBuilder(..., jobs=K)`` and ``repro oracle build --jobs K``):

* :func:`build_parallel` — in-memory :class:`OracleArtifact`, for callers
  that want the classic artifact object but a faster build.
* :func:`build_sharded_parallel` — shard files written **directly** by the
  workers (each worker streams its own ``oracle.shard-K.npz``), so the
  full payload is never materialised in any single process.

Determinism contract — ``jobs=K`` is *bit-identical* to ``jobs=1``:

* the closure's relaxation steps (``D ← min(D, W ⊗ D)`` through the
  graph's edges) are global barriers and each row is an order-free minimum
  of single sums, so the step count (and every float) is independent of
  the slab split;
* ball rows are per-row stable argsorts of closure rows — no cross-row
  state;
* the hitting set runs in the parent on the full ball table (sorted,
  deterministic greedy);
* shard bytes come from :func:`repro.oracle.sharding.write_shard_payload`,
  whose output is a pure function of the payload (fixed zip timestamps).

The tests assert per-shard SHA-256 equality between jobs=1 and jobs=4
builds; CI gates the build-time ratio.

The distances computed here are **exact** (full min-plus closure), which
satisfies every strategy's advertised stretch guarantee a fortiori.  The
trade is explicit: the classic ``jobs=None`` path simulates the paper's
round-efficient approximations and reports their round counts; the
parallel path optimises wall-clock on real cores and records
``rounds=0.0`` with ``build.mode = "parallel"`` so artifacts remain
self-describing.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.matmul.parallel import (
    SlabExecutor,
    minplus_closure,
    slab_ranges,
)
from repro.oracle.artifact import OracleArtifact
from repro.oracle.sharding import (
    _row_ranges,
    shard_entry,
    shard_manifest_path,
    shard_payload_name,
    write_shard_manifest,
    write_shard_payload,
)
from repro.oracle.strategies import get_strategy
from repro.distance.hitting_set import greedy_hitting_set

__all__ = ["build_parallel", "build_sharded_parallel", "weight_matrix"]


def weight_matrix(graph: Graph) -> np.ndarray:
    """The graph's dense adjacency: ``inf`` off-edges, zero diagonal."""
    W = np.full((graph.n, graph.n), np.inf, dtype=np.float64)
    np.fill_diagonal(W, 0.0)
    for u in range(graph.n):
        for v, weight in graph.adj[u].items():
            W[u, v] = float(weight)
    return W


def _default_k(n: int) -> int:
    """The landmark-mssp default ball size (matches the classic builder)."""
    return max(2, min(n, math.ceil(math.sqrt(n))))


# ----------------------------------------------------------------------
# slab workers (module-level for spawn pickling)
# ----------------------------------------------------------------------
def _balls_slab(task) -> None:
    """Derive the k-nearest ball rows for one slab of nodes.

    Stable argsort on the closure row orders by ``(distance, node id)`` —
    the same tie-break the classic builder applies — and unreachable slots
    are padded with ``-1`` / ``inf``, which the query engine skips.
    """
    D_h, idx_h, dist_h, k, start, stop = task
    rows = np.asarray(D_h.open()[start:stop])
    order = np.argsort(rows, axis=1, kind="stable")[:, :k].astype(np.int64)
    dists = np.take_along_axis(rows, order, axis=1)
    order[~np.isfinite(dists)] = -1
    idx_h.open("r+")[start:stop] = order
    dist_h.open("r+")[start:stop] = dists


def _write_shard(task: Dict[str, Any]) -> Dict[str, Any]:
    """Write one shard file from shared sources; returns its manifest entry.

    ``task["sources"]`` maps each member name to how its rows are produced:
    ``("slab", handle)`` slices the shard's row range, ``("cols", handle,
    cols)`` additionally gathers columns (the landmark table is a column
    gather of the closure — never materialised whole), and ``("array",
    values)`` embeds a small common array (shard 0 only).  Member order is
    ``task["order"]``, kept identical to the serial writer's so the bytes
    match byte-for-byte.
    """
    path = Path(task["path"])
    start, stop = task["start"], task["stop"]
    payload: Dict[str, np.ndarray] = {}
    for name in task["order"]:
        source = task["sources"][name]
        if source[0] == "slab":
            payload[name] = np.asarray(source[1].open()[start:stop])
        elif source[0] == "cols":
            payload[name] = np.asarray(source[1].open()[start:stop][:, source[2]])
        else:  # "array"
            payload[name] = source[1]
    write_shard_payload(path, payload)
    return shard_entry(task["index"], path, start, stop)


# ----------------------------------------------------------------------
# build pipeline
# ----------------------------------------------------------------------
def _generic_payload(
    executor: SlabExecutor,
    graph: Graph,
    spec,
    k: Optional[int],
    epsilon: float,
    phases: Dict[str, float],
):
    """Fallback payload for registry strategies without a native slab path.

    The strategy's classic build function runs once in the parent — it is
    deterministic and kernel-independent, so the payload bytes cannot
    depend on the job count — and the resulting arrays are shared to the
    workers as memmaps, which then write their shard files concurrently
    exactly like the native paths.  Per-shard SHA-256 therefore stays
    identical at any ``jobs``; only the shard writes parallelise.
    """
    from repro.oracle.build import OracleBuilder

    tick = time.perf_counter()
    builder = OracleBuilder(strategy=spec.name, epsilon=epsilon, k=k)
    arrays, rounds, detail, build_phases = spec.resolve_build()(builder, graph)
    phases.update(build_phases)
    phases["share"] = time.perf_counter() - tick

    sharded: Dict[str, Any] = {}
    common: Dict[str, Any] = {}
    layout: Dict[str, Any] = {}
    for name, array in arrays.items():
        array = np.asarray(array)
        layout[name] = {"dtype": array.dtype.name, "shape": list(array.shape)}
        if name in spec.row_sharded_arrays:
            sharded[name] = ("slab", executor.share(f"payload-{name}", array))
        else:
            common[name] = ("array", array)
    return sharded, common, layout, detail, float(rounds)


def _parallel_payload(
    executor: SlabExecutor,
    graph: Graph,
    spec,
    k: Optional[int],
    epsilon: float,
    phases: Dict[str, float],
):
    """Run the compute phases; returns shared-source descriptors + layouts.

    Returns ``(sharded_sources, common_sources, layout, detail, rounds)``
    where the source descriptors are the ``("slab"|"cols"|"array", ...)``
    tuples the shard writer and the in-memory materialiser both consume,
    and ``layout`` maps every array name to its manifest ``{dtype,
    shape}``.  Dispatch is by the spec's ``query_kind``: dense strategies
    take the min-plus closure slab path, ``landmark-mssp`` its native
    ball/landmark slab path, everything else the deterministic
    :func:`_generic_payload` fallback.
    """
    n = graph.n
    if spec.name != "landmark-mssp" and spec.query_kind != "dense":
        return _generic_payload(executor, graph, spec, k, epsilon, phases)

    tick = time.perf_counter()
    W = executor.share("weights", weight_matrix(graph))
    closure, steps = minplus_closure(executor, W)
    phases["closure"] = time.perf_counter() - tick
    detail: Dict[str, Any] = {"closure_steps": steps}

    if spec.query_kind == "dense":
        layout = {"dist": {"dtype": "float64", "shape": [n, n]}}
        return {"dist": ("slab", closure)}, {}, layout, detail, 0.0

    k_val = k if k is not None else _default_k(n)
    if not 1 <= k_val <= n:
        raise ValueError(f"ball size k={k_val} out of range [1, {n}]")

    tick = time.perf_counter()
    idx_h = executor.empty("ball-idx", np.int64, (n, k_val))
    dist_h = executor.empty("ball-dist", np.float64, (n, k_val))
    executor.map(
        _balls_slab,
        [(closure, idx_h, dist_h, k_val, start, stop)
         for start, stop in slab_ranges(n, min(max(executor.jobs, 1), n))],
    )
    phases["balls"] = time.perf_counter() - tick

    tick = time.perf_counter()
    ball_idx = np.asarray(idx_h.open())
    ball_sets = [set(int(u) for u in row if u >= 0) for row in ball_idx]
    landmarks = np.asarray(
        greedy_hitting_set(ball_sets, n), dtype=np.int64)
    phases["hitting-set"] = time.perf_counter() - tick

    detail.update({"k": k_val, "num_landmarks": int(len(landmarks))})
    sharded = {
        "landmark_dist": ("cols", closure, landmarks),
        "ball_idx": ("slab", idx_h),
        "ball_dist": ("slab", dist_h),
    }
    common = {"landmarks": ("array", landmarks)}
    layout = {
        "landmark_dist": {"dtype": "float64", "shape": [n, len(landmarks)]},
        "ball_idx": {"dtype": "int64", "shape": [n, k_val]},
        "ball_dist": {"dtype": "float64", "shape": [n, k_val]},
        "landmarks": {"dtype": "int64", "shape": [len(landmarks)]},
    }
    return sharded, common, layout, detail, 0.0


def _metadata(
    graph: Graph,
    spec,
    epsilon: float,
    k: Optional[int],
    rounds: float,
    seconds: float,
    jobs: int,
    phases: Dict[str, float],
    detail: Dict[str, Any],
    extra_metadata: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    max_weight = graph.max_weight()
    native = spec.query_kind == "dense" or spec.name == "landmark-mssp"
    metadata: Dict[str, Any] = {
        "strategy": spec.name,
        "n": graph.n,
        "num_edges": graph.num_edges(),
        "epsilon": epsilon,
        "max_weight": max_weight,
        "stretch": spec.guarantee(epsilon, max_weight, k).as_dict(),
        "query_kind": spec.query_kind,
        "build": {
            "rounds": rounds,
            "seconds": seconds,
            "kernel": "edge-relaxation" if native else "classic",
            "hot_primitives": list(spec.hot_primitives),
            "mode": "parallel",
            "jobs": jobs,
            "phases": {name: round(value, 6) for name, value in phases.items()},
            **detail,
        },
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return metadata


def _validate_build_inputs(graph: Graph, epsilon: float, jobs: int) -> None:
    if graph.directed:
        raise ValueError("distance oracles require an undirected graph")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")


def build_parallel(
    graph: Graph,
    strategy: str = "landmark-mssp",
    epsilon: float = 0.5,
    k: Optional[int] = None,
    jobs: int = 1,
    pool=None,
) -> OracleArtifact:
    """Parallel build returning a classic in-memory artifact.

    Same payload bits as :func:`build_sharded_parallel` at the same
    parameters — only the packaging differs.
    """
    _validate_build_inputs(graph, epsilon, jobs)
    spec = get_strategy(strategy)
    phases: Dict[str, float] = {}
    start = time.perf_counter()
    with SlabExecutor(jobs=jobs, pool=pool) as executor:
        sharded, common, _layout, detail, rounds = _parallel_payload(
            executor, graph, spec, k, float(epsilon), phases)
        tick = time.perf_counter()
        arrays: Dict[str, np.ndarray] = {}
        for name, source in {**sharded, **common}.items():
            if source[0] == "slab":
                arrays[name] = np.asarray(source[1].open())
            elif source[0] == "cols":
                arrays[name] = np.asarray(source[1].open()[:, source[2]])
            else:
                arrays[name] = source[1]
        phases["materialize"] = time.perf_counter() - tick
    seconds = time.perf_counter() - start
    from repro.oracle.build import record_build_phases
    record_build_phases(spec.name, phases)
    metadata = _metadata(graph, spec, float(epsilon), k, rounds, seconds,
                         jobs, phases, detail, None)
    artifact = OracleArtifact(metadata=metadata, arrays=arrays)
    artifact.validate()
    return artifact


def build_sharded_parallel(
    graph: Graph,
    path,
    num_shards: int,
    strategy: str = "landmark-mssp",
    epsilon: float = 0.5,
    k: Optional[int] = None,
    jobs: int = 1,
    pool=None,
    extra_metadata: Optional[Dict[str, Any]] = None,
) -> Tuple[Path, List[Path], Dict[str, Any]]:
    """Build a sharded artifact with ``jobs`` workers writing shards directly.

    Returns ``(manifest_path, shard_paths, metadata)``.  Each shard file is
    written by whichever worker drew its row range — the parent only runs
    the hitting set and assembles the manifest from the workers' returned
    entries (ordered by shard index, so the manifest is deterministic too).
    """
    _validate_build_inputs(graph, epsilon, jobs)
    spec = get_strategy(strategy)
    manifest_path = shard_manifest_path(path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    base = manifest_path.name[: -len(".shards.json")]

    phases: Dict[str, float] = {}
    start = time.perf_counter()
    with SlabExecutor(jobs=jobs, pool=pool) as executor:
        sharded, common, layout, detail, rounds = _parallel_payload(
            executor, graph, spec, k, float(epsilon), phases)

        tick = time.perf_counter()
        tasks = []
        shard_paths: List[Path] = []
        for index, (row_start, row_stop) in enumerate(
                _row_ranges(graph.n, num_shards)):
            order = list(spec.row_sharded_arrays)
            sources: Dict[str, Any] = {name: sharded[name] for name in order}
            if index == 0:
                for name in sorted(common):
                    order.append(name)
                    sources[name] = common[name]
            shard_file = manifest_path.with_name(shard_payload_name(base, index))
            shard_paths.append(shard_file)
            tasks.append({
                "path": str(shard_file),
                "index": index,
                "start": row_start,
                "stop": row_stop,
                "order": order,
                "sources": sources,
            })
        entries = executor.map(_write_shard, tasks)
        phases["shard-write"] = time.perf_counter() - tick

    seconds = time.perf_counter() - start
    from repro.oracle.build import record_build_phases
    record_build_phases(spec.name, phases)
    metadata = _metadata(graph, spec, float(epsilon), k, rounds, seconds,
                         jobs, phases, detail, extra_metadata)
    write_shard_manifest(
        manifest_path,
        metadata,
        entries,
        {name: layout[name] for name in spec.row_sharded_arrays},
        {name: layout[name] for name in sorted(common)},
    )
    return manifest_path, shard_paths, metadata
