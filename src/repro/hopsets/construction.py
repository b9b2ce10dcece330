"""The Congested Clique hopset construction (Section 4.2, Theorem 25).

The construction follows Elkin–Neiman (via Thorup–Zwick emulators), with the
paper's two changes: the bunches of the non-A₁ nodes are computed directly
with the k-nearest tool, and the Bellman-Ford explorations of the original
construction are replaced by the (S, d, k)-source-detection tool, which is
what removes the dependence of the running time on the hopset size.

Outline (parameters as in Theorem 25, for a target 0 < ε < 1):

* ``k = Θ(√n log n)``; compute ``N_k(v)`` for every node (Theorem 18).
* ``A₁`` = deterministic hitting set of the ``N_k(v)`` (Lemma 4), of size
  Õ(√n).
* ``p(v)`` = the closest A₁-node in ``N_k(v)``;
  ``B(v) = {u : d(v, u) < d(v, p(v))} ∪ {p(v)}``;
  ``H₀ = {(v, u, d(v, u)) : v ∉ A₁, u ∈ B(v)}``.
* For ``ℓ = 1 .. log n``: run (A₁, 4β, |A₁|)-source detection on
  ``G ∪ H^{ℓ-1}`` and connect every pair of A₁ nodes discovered within 4β
  hops with an edge weighted by the detected distance;
  ``H^ℓ = H₀ ∪ (those A₁-A₁ edges)``.
* ``H = H^{log n}`` is a (β, ε)-hopset with ``β = O(log n / ε)``.

A level reads nothing but its incoming A₁-A₁ edges, so each is charged to
a clique of its own that is merged into the caller's.  Once a level hands
back the edges it was given, every later level is that same computation:
its charges are merged once per remaining level (the rounds are replayed,
not saved) and its products are not run again.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cclique.accounting import Clique
from repro.distance.hitting_set import greedy_hitting_set
from repro.distance.k_nearest import KNearestResult, k_nearest
from repro.distance.products import (
    EdgeArrays,
    augmented_matrix_from_arrays,
    both_directions,
    concat_edge_arrays,
    symmetric_edge_arrays,
    union_edge_arrays,
)
from repro.graphs.graph import Graph
from repro.matmul.matrix import SemiringMatrix, to_csr
from repro.matmul.output_sensitive import output_sensitive_mm
from repro.semiring.augmented import augmented_semiring_for


@dataclasses.dataclass
class HopsetResult:
    """Output of the hopset construction.

    Attributes
    ----------
    edges:
        The hopset edges as ``(u, v, weight)`` (undirected; each pair once).
    beta:
        The hop bound β for which the (β, ε) guarantee holds.
    epsilon:
        The stretch parameter the construction targeted.
    hitting_set:
        The set A₁ of "landmark" nodes.
    pivots:
        ``pivots[v]`` = ``p(v)``, the closest A₁ node of ``v`` (A₁ nodes are
        their own pivot).
    pivot_distances:
        ``pivot_distances[v]`` = exact ``d(v, p(v))``.
    k:
        The k used for the k-nearest bunches.
    rounds:
        Rounds charged for the construction.
    clique:
        Accounting context used.
    levels:
        Number of bounded-hopset levels executed.
    """

    edges: List[Tuple[int, int, float]]
    beta: int
    epsilon: float
    hitting_set: List[int]
    pivots: List[int]
    pivot_distances: List[float]
    k: int
    rounds: float
    clique: Clique
    levels: int
    k_nearest_result: Optional[KNearestResult] = None

    def size(self) -> int:
        """Number of hopset edges."""
        return len(self.edges)


def build_hopset(
    graph: Graph,
    epsilon: float = 0.5,
    clique: Optional[Clique] = None,
    k: Optional[int] = None,
    beta: Optional[int] = None,
    levels: Optional[int] = None,
    execution: str = "fast",
    early_stop: bool = True,
    label: str = "hopset",
) -> HopsetResult:
    """Build a (β, ε)-hopset of ``graph`` (Theorem 25).

    Parameters
    ----------
    graph:
        Undirected weighted graph.
    epsilon:
        Target stretch (0 < ε < 1 in the theorem; larger values are allowed
        and simply yield a smaller β).
    k:
        Bunch size; defaults to the paper's ``ceil(sqrt(n) · log2 n)``.
    beta:
        Hop bound; defaults to the paper's ``ceil(12 · log2 n / ε)``
        (δ = ε_level / 4 with ε_level = ε / log n and β = 3 / δ).
    levels:
        Number of bounded-hopset iterations; defaults to ``ceil(log2 n)``.
    execution:
        Execution mode for the underlying matrix multiplications.
    early_stop:
        Stop a level's source-detection hop iterations once the distance
        table stops changing (detecting stabilisation costs one broadcast
        per hop and never changes the result, only the measured rounds,
        which can only become smaller than the worst-case bound).
    """
    if graph.directed:
        raise ValueError("hopset construction requires an undirected graph")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    n = graph.n
    clique = clique or Clique(n)
    log_n = max(1, math.ceil(math.log2(max(2, n))))
    if k is None:
        k = min(n, max(2, math.ceil(math.sqrt(n) * log_n)))
    if beta is None:
        beta = max(3, math.ceil(12 * log_n / epsilon))
    if levels is None:
        levels = log_n

    start_rounds = clique.rounds
    with clique.phase(label):
        # ------------------------------------------------------------------
        # Step 1: k-nearest balls (exact distances) -- Theorem 18.
        # ------------------------------------------------------------------
        knn = k_nearest(graph, k, clique=clique, execution=execution, label="k-nearest")

        # ------------------------------------------------------------------
        # Step 2: hitting set A1 of the k-nearest balls -- Lemma 4.
        # ------------------------------------------------------------------
        ball_sets = [knn.nearest_set(v) for v in range(n)]
        hitting_set = greedy_hitting_set(ball_sets, n, clique=clique, label="hitting-set")
        hitting = set(hitting_set)
        clique.charge_broadcast(label="hitting-set-announce")

        # ------------------------------------------------------------------
        # Step 3: pivots and bunches; H0 edges.
        # ------------------------------------------------------------------
        pivots, pivot_distances = _compute_pivots(knn, hitting, n)
        hopset_edges: Dict[Tuple[int, int], float] = {}
        for v in range(n):
            if v in hitting:
                continue
            pivot_dist = pivot_distances[v]
            for u, (dist, _hops) in knn.neighbors[v].items():
                if u == v:
                    continue
                if dist < pivot_dist or u == pivots[v]:
                    _add_edge(hopset_edges, v, u, dist)
        # Announcing the bunch edges to both endpoints is one routing step
        # with per-node load at most k.
        clique.charge_routing(k, k, 2, label="bunch-edges")

        # ------------------------------------------------------------------
        # Step 4: levelled construction of the A1-A1 edges.
        # ------------------------------------------------------------------
        semiring = augmented_semiring_for(n, max(1.0, graph.max_weight()) * n)
        # G ∪ H₀ never changes across the levels: its edge arrays are built
        # once and each level appends only its own A₁-A₁ edges.
        base_edges = union_edge_arrays(
            graph, ((u, v, w) for (u, v), w in hopset_edges.items()))
        a1_edges = symmetric_edge_arrays(())
        remaining = levels
        while remaining > 0:
            level = Clique(clique.n, clique.spec)
            W_union = augmented_matrix_from_arrays(
                n, concat_edge_arrays(base_edges, a1_edges), semiring)
            detection = _bounded_source_detection(
                W_union,
                hitting_set,
                4 * beta,
                level,
                execution=execution,
                early_stop=early_stop,
            )
            found = _a1_edges(detection, hitting_set)
            # Each A1 node tells the other endpoint about the edge (1 round).
            level.charge_broadcast(label="level-edge-announce")
            fixed = all(map(np.array_equal, found, a1_edges))
            repeats = remaining if fixed else 1
            for _ in range(repeats):
                clique.merge_from(level)
            a1_edges, remaining = found, remaining - repeats

        for u, v, w in zip(*(part.tolist() for part in a1_edges)):
            _add_edge(hopset_edges, u, v, w)

    edges = [(u, v, w) for (u, v), w in sorted(hopset_edges.items())]
    return HopsetResult(
        edges=edges,
        beta=beta,
        epsilon=epsilon,
        hitting_set=hitting_set,
        pivots=pivots,
        pivot_distances=pivot_distances,
        k=k,
        rounds=clique.rounds - start_rounds,
        clique=clique,
        levels=levels,
        k_nearest_result=knn,
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _compute_pivots(
    knn: KNearestResult, hitting: Set[int], n: int
) -> Tuple[List[int], List[float]]:
    """For every node, the closest hitting-set node in its k-nearest ball."""
    pivots: List[int] = [-1] * n
    pivot_distances: List[float] = [math.inf] * n
    for v in range(n):
        if v in hitting:
            pivots[v] = v
            pivot_distances[v] = 0.0
            continue
        pivot = next((u for u in knn.order[v] if u in hitting), None)
        if pivot is not None:
            pivots[v] = pivot
            pivot_distances[v] = knn.neighbors[v][pivot][0]
    return pivots, pivot_distances


def _add_edge(edges: Dict[Tuple[int, int], float], u: int, v: int, w: float) -> None:
    """Insert an undirected edge keeping the minimum weight."""
    key = (u, v) if u < v else (v, u)
    current = edges.get(key)
    if current is None or w < current:
        edges[key] = w


def _a1_edges(detection: SemiringMatrix, hitting_set: Sequence[int]) -> EdgeArrays:
    """The level's A₁-A₁ edges, both directions: every off-diagonal entry
    of the A₁ rows of the source-detection table (whose columns are A₁
    already), weighted by the detected distance, read off the encoded
    arrays."""
    table = to_csr(detection.restrict_rows(hitting_set))
    src, dst = table.row_ids(), table.indices
    weight, _hops = table.semiring.decode_array(table.data)
    apart = src != dst
    return both_directions(src[apart], dst[apart], weight[apart])


def _bounded_source_detection(
    W_union: SemiringMatrix,
    sources: Sequence[int],
    hop_bound: int,
    clique: Clique,
    execution: str,
    early_stop: bool,
) -> SemiringMatrix:
    """(S, d, |S|)-source detection with optional early stabilisation stop.

    Returns the detection table as a matrix (rows: nodes, columns: sources).
    """
    source_list = sorted(set(sources))
    current = W_union.restrict_columns(source_list)
    for _ in range(hop_bound):
        result = output_sensitive_mm(
            W_union,
            current,
            rho_hat=max(1, len(source_list)),
            clique=clique,
            label="hopset-source-detection",
            execution=execution,
        )
        updated = result.product.restrict_columns(source_list)
        if early_stop:
            clique.charge_broadcast(label="hopset-source-detection/stability-check")
            if updated.equals(current):
                current = updated
                break
        current = updated
    return current
