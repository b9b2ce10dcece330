"""Theorem 18: the k-nearest problem.

For every node ``v`` compute the ``k`` nodes closest to ``v`` (ties broken
first by hop count, then by node id) together with their distances, in
``O((k / n^{2/3} + log n) · log k)`` rounds.

The algorithm (Section 3.2) filters the augmented weight matrix to the ``k``
smallest entries per row and squares it ``ceil(log2 k)`` times with the
ρ-filtered multiplication of Theorem 14 (ρ = k).  Consistency of the
augmented semiring ordering (Lemma 17) guarantees that the filtered powers
agree with the true powers on every surviving entry, i.e. each node ends up
with the exact distances to its ``k`` nearest nodes.

The map ``X ↦ filter(X · X)`` is deterministic, so once a squaring returns
its own input every later squaring would too, charging the same rounds.
Each squaring is therefore charged to a clique of its own; after a fixpoint
that clique is merged once per remaining squaring (the rounds are replayed,
not saved) and the product is not computed again.

The result is decoded once, on arrays, and every row's
``(distance, hops, id)`` ranking is computed by one sort.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cclique.accounting import Clique
from repro.distance.products import augmented_weight_matrix
from repro.graphs.graph import Graph
from repro.matmul.filtered import filtered_mm
from repro.matmul.matrix import SemiringMatrix, dict_rows, to_csr
from repro.semiring.augmented import AugmentedMinPlusSemiring


@dataclasses.dataclass
class KNearestResult:
    """Output of the k-nearest computation.

    Attributes
    ----------
    neighbors:
        ``neighbors[v]`` maps each of the (up to) ``k`` nearest nodes ``u``
        to ``(distance, hops)``.  The node itself is included with distance
        0 (it is trivially its own nearest node).
    order:
        ``order[v]`` lists the keys of ``neighbors[v]`` sorted by
        ``(distance, hops, id)``.
    matrix:
        The filtered augmented matrix ``W^k`` (rows are the k-nearest sets).
    rounds:
        Rounds charged for the computation.
    clique:
        The accounting context used.
    """

    neighbors: List[Dict[int, Tuple[float, int]]]
    order: List[List[int]]
    matrix: SemiringMatrix
    rounds: float
    clique: Clique

    def nearest_set(self, v: int) -> List[int]:
        """The k-nearest node ids of ``v`` sorted by (distance, hops, id)."""
        return list(self.order[v])

    def distance(self, v: int, u: int) -> float:
        """Distance from ``v`` to ``u`` if ``u`` is among the k nearest."""
        entry = self.neighbors[v].get(u)
        return entry[0] if entry is not None else math.inf


def k_nearest(
    graph: Graph,
    k: int,
    clique: Optional[Clique] = None,
    execution: str = "fast",
    label: str = "k-nearest",
    kernel: Optional[str] = None,
) -> KNearestResult:
    """Solve the k-nearest problem on ``graph`` (Theorem 18).

    Parameters
    ----------
    graph:
        Input graph (directed or undirected, non-negative integer weights).
    k:
        How many nearest nodes to find per node (including the node itself).
    clique:
        Accounting context; created if omitted.
    execution:
        Passed through to the filtered multiplication ("fast" or
        "faithful").
    kernel:
        Pin the local-product kernel; ``None`` lets the cost model choose.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    clique = clique or Clique(graph.n)
    k = min(k, graph.n)

    W, semiring = augmented_weight_matrix(graph)
    start_rounds = clique.rounds

    with clique.phase(label):
        # Step 1: each node locally keeps the k smallest entries of its row
        # (purely local, no rounds).
        current = W.filter_rows(k)

        # Step 2: ceil(log2 k) filtered squarings; after i squarings the
        # matrix equals the k-filtered version of W^(2^i).
        squarings = max(1, math.ceil(math.log2(k))) if k > 1 else 1
        universe = _weight_universe_size(graph, semiring)
        remaining = squarings
        while remaining > 0:
            step = Clique(clique.n, clique.spec)
            product = filtered_mm(
                current,
                current,
                rho=k,
                weight_universe_size=universe,
                clique=step,
                label="filtered-squaring",
                execution=execution,
                kernel=kernel,
            ).product
            repeats = remaining if product.equals(current) else 1
            for _ in range(repeats):
                clique.merge_from(step)
            current, remaining = product, remaining - repeats

    csr = to_csr(current)
    dists, hops = csr.semiring.decode_array(csr.data)
    bounds = csr.indptr.tolist()
    neighbors = dict_rows(csr.indptr, csr.indices.tolist(),
                          list(zip(dists.tolist(), hops.tolist())))
    # Codes order like (distance, hops), so one sort ranks every row.
    ranked = csr.indices[np.lexsort((csr.indices, csr.data, csr.row_ids()))].tolist()
    order = [ranked[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    return KNearestResult(
        neighbors=neighbors,
        order=order,
        matrix=current,
        rounds=clique.rounds - start_rounds,
        clique=clique,
    )


def _weight_universe_size(graph: Graph, semiring: AugmentedMinPlusSemiring) -> int:
    """Size of the value universe for the filtering binary search.

    Finite augmented values are pairs (path weight, hops) with path weight
    at most ``n · max_weight`` and hops at most ``2 n``, so the universe has
    at most ``(n · max_weight + 1) · (2 n + 2)`` elements — polynomial in
    ``n``, giving the paper's ``O(log n)`` search cost.
    """
    max_weight = max(1.0, graph.max_weight())
    return int((graph.n * max_weight + 1) * (2 * graph.n + 2))
