"""The exact row-slab builds: what ``OracleBuilder(jobs=K)`` runs on K cores.

Two build functions in the registry's shape with one more argument, the
executor the builder opens for them — ``(builder, graph, executor) ->
(arrays, rounds, detail, phases)``, named by
:attr:`~repro.oracle.strategies.StrategySpec.slab_build_fn`:

* :func:`closure_dense_arrays` (``dense-apsp``, ``exact-fallback``) — the
  min-plus closure of the weight matrix
  (:func:`repro.matmul.parallel.minplus_closure`), one row slab a worker.
* :func:`closure_landmark_arrays` (``landmark-mssp``) — the same closure,
  every node's ball as the first ``k`` of its stably sorted closure row
  (one row slab a worker), the hitting set in the parent, and the landmark
  table as the closure's landmark columns.

``jobs`` parallelises the closure and the ball rows and nothing else: they
are the two phases it ever sped up (README "Parallel oracle builds").
Packaging, metadata and the shard files are :class:`~repro.oracle.build.
OracleBuilder`'s, the same for every build function.

The row arrays come back as **the executor's outputs**, never copied: at
``jobs=1`` the in-process arrays the inline tasks filled (nothing touches
the disk before the shard write); at ``jobs=K`` its maps (``np.memmap``:
an n×n table is never copied into the parent's heap; the shard writer
streams rows from the map to the shard file), valid only while the
executor is open.  ``landmarks`` and ``landmark_dist`` are resident.

Determinism — ``jobs=K`` is bit-identical to ``jobs=1``: the closure's
steps are global barriers and each row an order-free minimum of single
sums; a ball row is a stable argsort of one closure row; the hitting set
is the sorted, deterministic greedy over the whole table.

The distances are **exact**, which satisfies every strategy's advertised
stretch a fortiori.  The trade is explicit: the ``jobs=None`` builds
simulate the paper's round-efficient approximations and report their
rounds; these optimise wall-clock on real cores and report ``rounds=0.0``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.distance.hitting_set import greedy_hitting_set
from repro.distance.products import edge_arrays
from repro.graphs.graph import Graph
from repro.matmul.parallel import SlabExecutor, minplus_closure, slab_ranges
from repro.oracle.build import default_ball_size

__all__ = ["closure_dense_arrays", "closure_landmark_arrays", "weight_matrix"]


def weight_matrix(graph: Graph) -> np.ndarray:
    """The graph's dense adjacency: ``inf`` off-edges, zero diagonal."""
    W = np.full((graph.n, graph.n), np.inf, dtype=np.float64)
    np.fill_diagonal(W, 0.0)
    src, dst, weight = edge_arrays(graph)
    W[src, dst] = weight
    return W


def _balls_slab(task) -> None:
    """Derive the k-nearest ball rows for one slab of nodes.

    Module-level: spawn workers import it by name.  Stable argsort on the
    closure row orders by ``(distance, node id)`` — the same tie-break the
    classic builder applies — and unreachable slots are padded with ``-1``
    / ``inf``, which the query engine skips.
    """
    D_h, idx_h, dist_h, k, start, stop = task
    rows = np.asarray(D_h.open()[start:stop])
    order = np.argsort(rows, axis=1, kind="stable")[:, :k].astype(np.int64)
    dists = np.take_along_axis(rows, order, axis=1)
    order[~np.isfinite(dists)] = -1
    idx_h.open("r+")[start:stop] = order
    dist_h.open("r+")[start:stop] = dists


def _closure(graph: Graph, executor: SlabExecutor, phases: Dict[str, float]):
    """``(closure handle, step count)``, timed as ``phases["closure"]``."""
    tick = time.perf_counter()
    W = executor.share("weights", weight_matrix(graph))
    closure, steps = minplus_closure(executor, W)
    phases["closure"] = time.perf_counter() - tick
    return closure, steps


def closure_dense_arrays(builder, graph: Graph, executor: SlabExecutor):
    """The dense strategies' slab build: ``dist`` is the exact closure."""
    phases: Dict[str, float] = {}
    closure, steps = _closure(graph, executor, phases)
    return {"dist": closure.open()}, 0.0, {"closure_steps": steps}, phases


def closure_landmark_arrays(builder, graph: Graph, executor: SlabExecutor):
    """``landmark-mssp``'s slab build: exact balls, hitting-set landmarks
    and the closure's landmark columns as the table."""
    n = graph.n
    k = default_ball_size(builder, n)
    phases: Dict[str, float] = {}
    closure, steps = _closure(graph, executor, phases)

    tick = time.perf_counter()
    idx_h = executor.empty("ball-idx", np.int64, (n, k))
    dist_h = executor.empty("ball-dist", np.float64, (n, k))
    executor.map(
        _balls_slab,
        [(closure, idx_h, dist_h, k, start, stop)
         for start, stop in slab_ranges(n, min(executor.jobs, n))],
    )
    phases["balls"] = time.perf_counter() - tick

    tick = time.perf_counter()
    ball_idx = idx_h.open()
    landmarks = np.asarray(greedy_hitting_set(ball_idx, n), dtype=np.int64)
    phases["hitting-set"] = time.perf_counter() - tick

    arrays = {
        "landmarks": landmarks,
        # A column gather comes back column-major; every member is stored
        # row-major, so a row of a mapped shard is one contiguous read.
        "landmark_dist": np.ascontiguousarray(closure.open()[:, landmarks]),
        "ball_idx": ball_idx,
        "ball_dist": dist_h.open(),
    }
    detail = {"closure_steps": steps, "k": k, "num_landmarks": len(landmarks)}
    return arrays, 0.0, detail, phases
