"""``spanner-greedy``: a first-class oracle strategy over a greedy spanner.

The paper's Section 1.1 (and Parter–Yogev, the PAPERS.md blueprint) trade
stretch for size: a (2k − 1)-spanner keeps O(n^{1+1/k}) edges.  This
module turns that trade into a servable artifact **without a dense
table**:

1. build the classic greedy (2k − 1)-spanner (Althöfer et al.; promoted
   here from ``repro.baselines.apsp_spanner``, which now delegates);
2. compute every node's ``ceil(sqrt(n))``-nearest ball *in the spanner
   metric* by truncated Dijkstra;
3. pick a greedy hitting set of those balls as landmarks and store each
   landmark's **exact** spanner distances to all nodes (one sparse
   Dijkstra per landmark).

The greedy pass asks one question per edge — does the spanner so far join
the endpoints within (2k − 1)·w? — and ``_within`` answers it by Dijkstra
from both ends at once, each pruned at the limit.  No distance is needed,
so the first relaxation that joins the two searches inside the limit
settles it (any join is a real path), and once the two heap tops sum past
the limit no path still unseen can come in under it.

The payload is the spanner CSR (common arrays, whole in shard 0) plus the
Õ(n^{3/2}) landmark table and ball rows (row-sharded) — asymptotically
the landmark-mssp footprint, never n².

Stretch is known a priori from ``k`` alone, which is what lets the
planner select this strategy before building: ball hits return exact
spanner distances (≤ (2k − 1)·d); for ``v`` outside ``u``'s ball the
hitting-set pivot satisfies d_S(u, p(u)) ≤ d_S(u, v), so the landmark
route is ≤ 3·d_S(u, v) ≤ 3(2k − 1)·d(u, v).  The query engine's
``spanner`` kernels additionally short-circuit pairs joined by a direct
spanner edge (the CSR is right there), which only tightens answers.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cclique.accounting import Clique
from repro.distance.hitting_set import greedy_hitting_set
from repro.graphs.graph import Graph, INF
from repro.graphs.reference import dijkstra


def build_greedy_spanner(graph: Graph, k: int) -> Graph:
    """The greedy (2k − 1)-spanner of ``graph``.

    Edges are scanned in non-decreasing weight order and added whenever the
    current spanner distance between the endpoints exceeds (2k − 1) times
    the edge weight; the result has at most ``n^{1+1/k}`` edges (girth
    argument) and stretch at most ``2k − 1``.
    """
    if graph.directed:
        raise ValueError("greedy spanner requires an undirected graph")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = graph.n
    spanner = Graph(n, directed=False)
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    # Tentative distances per end, reused by every query: an entry is live
    # only while its stamp is the current query's number.
    dist, stamp = ([0.0] * n, [0.0] * n), ([0] * n, [0] * n)
    queries = itertools.count(1)

    def _within(source: int, target: int, limit: float) -> bool:
        if source == target:
            return True
        query = next(queries)
        dist[0][source] = dist[1][target] = 0.0
        stamp[0][source] = stamp[1][target] = query
        heaps = ([(0.0, source)], [(0.0, target)])
        while heaps[0] and heaps[1]:
            tops = heaps[0][0][0], heaps[1][0][0]
            if tops[0] + tops[1] > limit:
                return False
            side = 0 if tops[0] <= tops[1] else 1
            d, u = heapq.heappop(heaps[side])
            mine, mine_stamp = dist[side], stamp[side]
            theirs, theirs_stamp = dist[1 - side], stamp[1 - side]
            if d > mine[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if theirs_stamp[v] == query and nd + theirs[v] <= limit:
                    return True
                if nd <= limit and (mine_stamp[v] != query or nd < mine[v]):
                    mine[v], mine_stamp[v] = nd, query
                    heapq.heappush(heaps[side], (nd, v))
        return False

    stretch = 2 * k - 1
    edges = sorted(graph.edges(), key=lambda e: (e[2], e[0], e[1]))
    for u, v, w in edges:
        if not _within(u, v, stretch * w):
            spanner.add_edge(u, v, w)
            adj[u].append((v, w))
            adj[v].append((u, w))
    return spanner


def spanner_csr(spanner: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack the spanner adjacency as ``(indptr, indices, weights)`` CSR.

    Both directions of every undirected edge appear; neighbour columns are
    sorted, so the layout is a pure function of the edge set.
    """
    n = spanner.n
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices: List[int] = []
    weights: List[float] = []
    for u in range(n):
        neighbours = sorted(spanner.neighbors(u).items())
        indptr[u + 1] = indptr[u] + len(neighbours)
        for v, w in neighbours:
            indices.append(v)
            weights.append(float(w))
    return (indptr,
            np.asarray(indices, dtype=np.int64),
            np.asarray(weights, dtype=np.float64))


def nearest_in_spanner(spanner: Graph, source: int, count: int) -> Dict[int, float]:
    """The ``count`` nearest nodes to ``source`` in the spanner metric.

    Truncated Dijkstra: settles nodes in ``(distance, node id)`` order and
    stops after ``count`` of them, so the ball (which includes ``source``
    itself at distance 0) is deterministic under ties.
    """
    ball: Dict[int, float] = {}
    dist = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap and len(ball) < count:
        d, u = heapq.heappop(heap)
        if u in ball or d > dist.get(u, INF):
            continue
        ball[u] = d
        for v, w in spanner.neighbors(u).items():
            nd = d + w
            if v not in ball and nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return ball


def build_spanner_arrays(builder, graph: Graph):
    """``spanner-greedy`` build fn: ``(arrays, rounds, detail, phases)``.

    ``builder.k`` is the spanner parameter (default 2 → a 3-spanner with
    overall stretch 3(2k − 1) = 9); ball width is the usual
    ``ceil(sqrt(n))``.
    """
    n = graph.n
    stretch_k = 2 if builder.k is None else int(builder.k)
    if stretch_k < 1:
        raise ValueError(
            f"spanner parameter k={stretch_k} must be at least 1")
    ball_width = max(2, min(n, math.ceil(math.sqrt(n))))
    clique = Clique(n)
    phases: Dict[str, float] = {}

    with clique.phase("spanner-oracle-build"):
        tick = time.perf_counter()
        spanner = build_greedy_spanner(graph, stretch_k)
        spanner_edges = spanner.num_edges()
        # Round accounting mirrors the apsp_spanner baseline: a polylog
        # construction (Parter-Yogev) plus broadcasting all m' spanner
        # edges so every node can answer locally.
        clique.charge_rounds_formula(
            math.ceil(math.log2(max(2, n))), label="spanner-construction")
        clique.charge_routing(
            max(1, math.ceil(spanner_edges / max(1, n))) * n,
            max(1, math.ceil(spanner_edges / max(1, n))) * n,
            words_per_message=3,
            total_messages=spanner_edges * n,
            label="spanner-broadcast",
        )
        phases["spanner"] = time.perf_counter() - tick

        # Balls in the *spanner* metric — local computation once every
        # node holds the spanner, so only the hitting set costs rounds.
        tick = time.perf_counter()
        balls = [nearest_in_spanner(spanner, v, ball_width) for v in range(n)]
        phases["balls"] = time.perf_counter() - tick

        tick = time.perf_counter()
        ball_sets = [set(ball) for ball in balls]
        landmarks = greedy_hitting_set(ball_sets, n, clique=clique,
                                       label="hitting-set")
        clique.charge_broadcast(label="landmark-announce")
        phases["hitting-set"] = time.perf_counter() - tick

    # Exact spanner distances from every landmark (sparse Dijkstras) —
    # exactness here is what caps far-pair stretch at 3(2k-1).
    tick = time.perf_counter()
    landmark_ids = np.asarray(sorted(landmarks), dtype=np.int64)
    landmark_dist = np.empty((n, len(landmark_ids)), dtype=np.float64)
    for column, landmark in enumerate(landmark_ids.tolist()):
        landmark_dist[:, column] = dijkstra(spanner, landmark)
    phases["landmark-dist"] = time.perf_counter() - tick

    tick = time.perf_counter()
    ball_idx = np.full((n, ball_width), -1, dtype=np.int64)
    ball_dist = np.full((n, ball_width), np.inf, dtype=np.float64)
    for v in range(n):
        entries = sorted(balls[v].items(), key=lambda kv: (kv[1], kv[0]))
        for slot, (u, d) in enumerate(entries):
            ball_idx[v, slot] = u
            ball_dist[v, slot] = d
    indptr, indices, weights = spanner_csr(spanner)
    phases["pack"] = time.perf_counter() - tick

    arrays = {
        "spanner_indptr": indptr,
        "spanner_indices": indices,
        "spanner_weights": weights,
        "landmarks": landmark_ids,
        "landmark_dist": landmark_dist,
        "ball_idx": ball_idx,
        "ball_dist": ball_dist,
    }
    detail = {
        "k": stretch_k,
        "ball_width": ball_width,
        "num_landmarks": int(len(landmark_ids)),
        "spanner_edges": spanner_edges,
    }
    return arrays, clique.rounds, detail, phases
