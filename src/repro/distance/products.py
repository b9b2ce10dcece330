"""Distance products and the augmented weight matrix (Section 3.1).

The augmented weight matrix ``W`` of a graph has ``W[u, u] = (0, 0)``,
``W[u, v] = (w(u, v), 1)`` for edges, and ``(∞, ∞)`` otherwise, over the
augmented min-plus semiring.  Its ``d``-th distance-product power gives, for
every pair, the weight of the shortest path using at most ``d`` hops
*together with* that path's hop count — the consistency property (Lemma 17)
that the k-nearest and source-detection tools rely on.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph, INF
from repro.matmul.matrix import CSRMatrix, SemiringMatrix, from_csr, min_per_position
from repro.semiring.augmented import (
    AugmentedMinPlusSemiring,
    augmented_semiring_for,
)
from repro.semiring.base import Semiring
from repro.semiring.minplus import MIN_PLUS

EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def edge_arrays(graph: Graph) -> EdgeArrays:
    """``(src, dst, weight)`` arrays of every adjacency entry of ``graph``.

    An undirected edge appears in both directions, as it is stored.
    """
    degrees = np.fromiter(map(len, graph.adj), dtype=np.int64, count=graph.n)
    total = int(degrees.sum())
    src = np.repeat(np.arange(graph.n, dtype=np.int64), degrees)
    dst = np.fromiter(chain.from_iterable(graph.adj), dtype=np.int64, count=total)
    weight = np.fromiter(chain.from_iterable(map(dict.values, graph.adj)),
                         dtype=np.float64, count=total)
    return src, dst, weight


def both_directions(u: np.ndarray, v: np.ndarray, weight: np.ndarray) -> EdgeArrays:
    """Directed edge arrays ``u → v`` and ``v → u`` of undirected edges."""
    return np.r_[u, v], np.r_[v, u], np.r_[weight, weight]


def symmetric_edge_arrays(edges: Iterable[Tuple[int, int, float]]) -> EdgeArrays:
    """Both directions of undirected ``(u, v, weight)`` edges, as arrays."""
    table = np.array(list(edges), dtype=np.float64).reshape(-1, 3)
    return both_directions(table[:, 0].astype(np.int64),
                           table[:, 1].astype(np.int64), table[:, 2])


def concat_edge_arrays(*parts: EdgeArrays) -> EdgeArrays:
    """One ``(src, dst, weight)`` triple holding the edges of all ``parts``."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def union_edge_arrays(graph: Graph,
                      extra_edges: Iterable[Tuple[int, int, float]]) -> EdgeArrays:
    """Directed edge arrays of ``G ∪ H`` for undirected extra edges ``H``."""
    return concat_edge_arrays(edge_arrays(graph), symmetric_edge_arrays(extra_edges))


def _matrix_from_arrays(n: int, edges: EdgeArrays, data: np.ndarray, one,
                        semiring: Semiring,
                        include_diagonal: bool = True) -> SemiringMatrix:
    """Array-resident matrix of encoded edge values ``data`` (minimum on
    parallel edges), with the encoded ``one`` on the diagonal."""
    src, dst, _ = edges
    if include_diagonal:
        nodes = np.arange(n, dtype=np.int64)
        src, dst = np.r_[nodes, src], np.r_[nodes, dst]
        data = np.r_[np.full(n, one, dtype=data.dtype), data]
    return from_csr(CSRMatrix.from_triples(
        n, *min_per_position(src, dst, data, n), semiring))


def weight_matrix(graph: Graph) -> SemiringMatrix:
    """The plain min-plus weight matrix of ``graph`` (0 diagonal)."""
    edges = edge_arrays(graph)
    return _matrix_from_arrays(graph.n, edges, edges[2], 0.0, MIN_PLUS)


def augmented_matrix_from_arrays(
    n: int,
    edges: EdgeArrays,
    semiring: AugmentedMinPlusSemiring,
    include_diagonal: bool = True,
) -> SemiringMatrix:
    """Augmented matrix of directed ``(src, dst, weight)`` edge arrays:
    ``(weight, 1)`` per edge, the lightest of parallel edges, ``(0, 0)`` on
    the diagonal.  Array-resident — no per-entry Python work."""
    data = semiring.encode_array(edges[2], np.ones(len(edges[2])))
    return _matrix_from_arrays(n, edges, data, 0, semiring, include_diagonal)


def augmented_weight_matrix(
    graph: Graph,
    semiring: Optional[AugmentedMinPlusSemiring] = None,
) -> Tuple[SemiringMatrix, AugmentedMinPlusSemiring]:
    """The augmented weight matrix ``W`` of ``graph`` and its semiring.

    Returns ``(W, semiring)``; the semiring is sized so that every value the
    distance computations can produce (path weights up to ``n · max_weight``
    and hop counts up to ``2 n``) is representable in its integer encoding.
    """
    if semiring is None:
        semiring = augmented_semiring_for(graph.n, max(1.0, graph.max_weight()))
    return augmented_matrix_from_arrays(graph.n, edge_arrays(graph), semiring), semiring


def matrix_from_edges(
    n: int,
    edges: Dict[Tuple[int, int], float],
    semiring: AugmentedMinPlusSemiring,
    include_diagonal: bool = True,
) -> SemiringMatrix:
    """Augmented matrix from an explicit edge-weight dictionary."""
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    weights = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    return augmented_matrix_from_arrays(
        n, (ends[:, 0], ends[:, 1], weights), semiring, include_diagonal
    )


def distances_from_augmented(matrix: SemiringMatrix) -> List[Dict[int, float]]:
    """Strip hop counts: per-row dictionaries of plain distances."""
    out: List[Dict[int, float]] = []
    for i in range(matrix.n):
        row = {}
        for j, entry in matrix.rows[i].items():
            weight = entry[0]
            if weight != math.inf:
                row[j] = weight
        out.append(row)
    return out


def dense_distances_from_augmented(matrix: SemiringMatrix) -> List[List[float]]:
    """Dense ``n x n`` distance list-of-lists (``INF`` for absent entries)."""
    n = matrix.n
    dense = [[INF] * n for _ in range(n)]
    for i in range(n):
        for j, entry in matrix.rows[i].items():
            dense[i][j] = entry[0]
    return dense
