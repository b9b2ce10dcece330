"""Synthetic graph generators used by tests, examples, and benchmarks.

All generators are deterministic given a ``seed`` so that every table
``benchmarks/run_experiments.py`` prints is exactly regenerable.  Weights are non-negative
integers, matching the paper's assumption that weights are integers bounded
by a polynomial in ``n`` (Section 1.5).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.graphs.graph import Graph


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def _apply_weights(
    graph: Graph, rng: random.Random, max_weight: int
) -> Graph:
    """Re-weight every edge of ``graph`` uniformly in ``1 .. max_weight``."""
    if max_weight <= 1:
        return graph
    weighted = Graph(graph.n, directed=graph.directed)
    for u, v, _ in graph.edges():
        weighted.add_edge(u, v, rng.randint(1, max_weight))
    return weighted


def erdos_renyi(
    n: int,
    p: float,
    seed: Optional[int] = None,
    max_weight: int = 1,
    ensure_connected: bool = True,
) -> Graph:
    """Erdős–Rényi ``G(n, p)`` graph, optionally weighted and connected.

    Parameters
    ----------
    n:
        Number of nodes.
    p:
        Edge probability.
    seed:
        Random seed; the same seed always yields the same graph.
    max_weight:
        If > 1, edge weights are uniform integers in ``1 .. max_weight``.
    ensure_connected:
        If ``True`` a random spanning path is added first so that distances
        are finite everywhere (convenient for approximation-ratio studies).
    """
    rng = _rng(seed)
    graph = Graph(n)
    if ensure_connected:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            graph.add_edge(a, b, 1 if max_weight <= 1 else rng.randint(1, max_weight))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
                graph.add_edge(u, v, w)
    return graph


def random_weighted_graph(
    n: int,
    average_degree: float = 8.0,
    max_weight: int = 32,
    seed: Optional[int] = None,
) -> Graph:
    """Connected weighted graph with the given expected average degree."""
    p = min(1.0, average_degree / max(n - 1, 1))
    return erdos_renyi(n, p, seed=seed, max_weight=max_weight, ensure_connected=True)


def path_graph(n: int, max_weight: int = 1, seed: Optional[int] = None) -> Graph:
    """Path ``0 - 1 - ... - (n-1)``; the extreme-diameter workload."""
    rng = _rng(seed)
    graph = Graph(n)
    for u in range(n - 1):
        w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
        graph.add_edge(u, u + 1, w)
    return graph


def cycle_graph(n: int, max_weight: int = 1, seed: Optional[int] = None) -> Graph:
    """Cycle on ``n`` nodes."""
    graph = path_graph(n, max_weight=max_weight, seed=seed)
    if n > 2:
        rng = _rng(None if seed is None else seed + 1)
        w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
        graph.add_edge(n - 1, 0, w)
    return graph


def grid_graph(
    rows: int, cols: int, max_weight: int = 1, seed: Optional[int] = None
) -> Graph:
    """``rows x cols`` grid; a road-network-like workload with large diameter."""
    rng = _rng(seed)
    graph = Graph(rows * cols)

    def node(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
                graph.add_edge(node(r, c), node(r, c + 1), w)
            if r + 1 < rows:
                w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
                graph.add_edge(node(r, c), node(r + 1, c), w)
    return graph


def star_graph(n: int, max_weight: int = 1, seed: Optional[int] = None) -> Graph:
    """Star with center 0.

    This is the paper's Section 1.3 motivating example: the adjacency matrix
    is very sparse but its square is dense, which is why naive iterated
    squaring of sparse matrices is not output-sensitive.
    """
    rng = _rng(seed)
    graph = Graph(n)
    for leaf in range(1, n):
        w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
        graph.add_edge(0, leaf, w)
    return graph


def complete_graph(n: int, max_weight: int = 1, seed: Optional[int] = None) -> Graph:
    """Complete graph; the densest workload."""
    rng = _rng(seed)
    graph = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
            graph.add_edge(u, v, w)
    return graph


def barbell_graph(clique_size: int, path_length: int, max_weight: int = 1) -> Graph:
    """Two cliques joined by a path; exercises diameter estimation."""
    n = 2 * clique_size + path_length
    graph = Graph(n)
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            graph.add_edge(u, v, 1)
    offset = clique_size + path_length
    for u in range(clique_size):
        for v in range(u + 1, clique_size):
            graph.add_edge(offset + u, offset + v, 1)
    chain = [clique_size - 1] + list(range(clique_size, clique_size + path_length)) + [offset]
    for a, b in zip(chain, chain[1:]):
        graph.add_edge(a, b, max_weight if max_weight > 1 else 1)
    return graph


def caterpillar_graph(spine: int, legs_per_node: int) -> Graph:
    """Caterpillar tree: a spine path with pendant leaves.

    Mixes high-degree and low-degree nodes, which exercises the two phases of
    the unweighted APSP algorithm (Section 6.3).
    """
    n = spine + spine * legs_per_node
    graph = Graph(n)
    for u in range(spine - 1):
        graph.add_edge(u, u + 1, 1)
    leaf = spine
    for u in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(u, leaf, 1)
            leaf += 1
    return graph


def power_law_graph(
    n: int,
    attachment: int = 2,
    seed: Optional[int] = None,
    max_weight: int = 1,
) -> Graph:
    """Barabási–Albert-style preferential attachment graph.

    Produces the skewed degree distributions typical of social/overlay
    networks — the setting that motivates landmark (multi-source) distance
    estimation in the introduction.
    """
    rng = _rng(seed)
    attachment = max(1, min(attachment, n - 1))
    graph = Graph(n)
    targets: List[int] = list(range(attachment))
    repeated: List[int] = []
    for u in range(attachment, n):
        chosen = set()
        pool = repeated if repeated else list(range(u))
        while len(chosen) < min(attachment, u):
            chosen.add(rng.choice(pool))
        for v in chosen:
            w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
            graph.add_edge(u, v, w)
            repeated.append(v)
            repeated.append(u)
    # Connect the initial seed nodes so the graph is connected.
    for a, b in zip(targets, targets[1:]):
        graph.add_edge(a, b, 1)
    return graph


def random_tree(n: int, seed: Optional[int] = None, max_weight: int = 1) -> Graph:
    """Uniform-ish random tree (random attachment)."""
    rng = _rng(seed)
    graph = Graph(n)
    for u in range(1, n):
        parent = rng.randrange(u)
        w = 1 if max_weight <= 1 else rng.randint(1, max_weight)
        graph.add_edge(u, parent, w)
    return graph


def disjoint_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Several disconnected cliques; exercises INF handling everywhere."""
    n = num_cliques * clique_size
    graph = Graph(n)
    for c in range(num_cliques):
        base = c * clique_size
        for u in range(clique_size):
            for v in range(u + 1, clique_size):
                graph.add_edge(base + u, base + v, 1)
    return graph
