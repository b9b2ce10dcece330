"""``hopset-landmark``: hopset-accelerated exact landmark tables.

The hopset machinery of :mod:`repro.hopsets` (the paper's Section 4/5
(β, ε)-hopsets) already computes everything a Thorup–Zwick-style oracle
needs — exact k-nearest balls, a hitting set, per-node pivots — and its
edges H are *real path lengths* in G, so d_{G∪H} = d_G exactly.  This
strategy exploits both facts:

* **landmarks** are the hopset's hitting set; their distance table is
  computed by vectorised Bellman–Ford over the edges of G ∪ H run to
  convergence.  Because hopset edges shortcut long shortest paths, the
  iteration count collapses from the graph's hop diameter to roughly the
  hopset's β (recorded as ``bf_iterations`` in the build detail) — the
  hopset's honest role here is convergence acceleration, not
  approximation, so the table is **exact**.
* **balls** are the per-node bunches the hopset already derived:
  every k-nearest neighbour closer than the pivot, plus the pivot itself.
  Bunch distances come from the exact k-nearest computation.

Exact table + pivot argument ⇒ pure multiplicative stretch 3 (tighter
than ``landmark-mssp``'s 3(1 + ε)) with the same array schema, so the
engine serves it through the existing landmark kernels unchanged —
from memory, from the map, and batched.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.cclique.accounting import Clique
from repro.distance.products import union_edge_arrays
from repro.graphs.graph import Graph
from repro.hopsets import build_hopset
from repro.oracle.build import default_ball_size


def landmark_table(graph: Graph, hopset_edges, landmarks: np.ndarray):
    """Exact distances from every landmark via Bellman–Ford over G ∪ H.

    Returns ``(table, iterations)`` with ``table`` shaped ``(n,
    len(landmarks))``.  Runs to a fixed point (capped at n iterations —
    non-negative weights converge in at most n − 1), so the result equals
    d_{G∪H} = d_G regardless of β; the hopset only shortens the run.
    """
    n = graph.n
    num_landmarks = len(landmarks)
    dist = np.full((num_landmarks, n), np.inf, dtype=np.float64)
    if num_landmarks:
        dist[np.arange(num_landmarks), landmarks] = 0.0
    src, dst, weight = union_edge_arrays(graph, hopset_edges)
    iterations = 0
    if src.size and num_landmarks:
        # Group candidate relaxations by destination once, then each
        # iteration is two vectorised passes: gather + segmented min.
        order = np.argsort(dst, kind="stable")
        src, dst, weight = src[order], dst[order], weight[order]
        targets, starts = np.unique(dst, return_index=True)
        for iterations in range(1, n + 1):
            candidates = dist[:, src] + weight
            relaxed = np.minimum.reduceat(candidates, starts, axis=1)
            current = dist[:, targets]
            if not (relaxed < current).any():
                break
            dist[:, targets] = np.minimum(current, relaxed)
    return np.ascontiguousarray(dist.T), iterations


def build_hopset_landmark_arrays(builder, graph: Graph):
    """``hopset-landmark`` build fn: ``(arrays, rounds, detail, phases)``."""
    n = graph.n
    k = default_ball_size(builder, n)
    clique = Clique(n)
    phases: Dict[str, float] = {}

    with clique.phase("hopset-oracle-build"):
        tick = time.perf_counter()
        hopset = build_hopset(graph, epsilon=builder.epsilon, clique=clique,
                              k=k, label="oracle-hopset")
        clique.charge_broadcast(label="landmark-announce")
        phases["hopset"] = time.perf_counter() - tick

    landmarks = np.asarray(sorted(hopset.hitting_set), dtype=np.int64)

    tick = time.perf_counter()
    table, iterations = landmark_table(graph, hopset.edges, landmarks)
    phases["landmark-table"] = time.perf_counter() - tick

    # Balls are the hopset's bunches: k-nearest members strictly closer
    # than the pivot, plus the pivot itself (exact distances throughout).
    tick = time.perf_counter()
    knn = hopset.k_nearest_result
    pivots = hopset.pivots
    pivot_dist = hopset.pivot_distances
    bunches: List[Dict[int, float]] = []
    for v in range(n):
        bunch = {int(u): float(d)
                 for u, (d, _hops) in knn.neighbors[v].items()
                 if d < pivot_dist[v]}
        bunch[int(pivots[v])] = float(pivot_dist[v])
        bunch[v] = 0.0
        bunches.append(bunch)
    width = max(len(bunch) for bunch in bunches) if bunches else 1
    ball_idx = np.full((n, width), -1, dtype=np.int64)
    ball_dist = np.full((n, width), np.inf, dtype=np.float64)
    for v, bunch in enumerate(bunches):
        for slot, (u, d) in enumerate(
                sorted(bunch.items(), key=lambda kv: (kv[1], kv[0]))):
            ball_idx[v, slot] = u
            ball_dist[v, slot] = d
    phases["pack-balls"] = time.perf_counter() - tick

    arrays = {
        "landmarks": landmarks,
        "landmark_dist": table,
        "ball_idx": ball_idx,
        "ball_dist": ball_dist,
    }
    detail = {
        "k": k,
        "ball_width": width,
        "num_landmarks": int(len(landmarks)),
        "beta": hopset.beta,
        "hopset_edges": len(hopset.edges),
        "bf_iterations": iterations,
    }
    return arrays, clique.rounds, detail, phases
