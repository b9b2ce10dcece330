"""Theorem 3: (1 + ε)-approximate multi-source shortest paths.

Given a source set ``S``, every node learns a (1 + ε)-approximation of its
distance to every source in

    O((|S|^{2/3} / n^{1/3} + log n) · log n / ε)   rounds,

which is polylogarithmic whenever ``|S| = Õ(√n)``.  The algorithm is a
direct composition of the paper's two main tools: build a (β, ε)-hopset
``H`` (Theorem 25), then run (S, β, |S|)-source detection on ``G ∪ H``
(Theorem 19).  β-hop distances in ``G ∪ H`` are within (1 + ε) of the true
distances, and the source-detection step computes them exactly.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.cclique.accounting import Clique
from repro.core.results import MSSPResult
from repro.distance.products import (
    augmented_matrix_from_arrays,
    union_edge_arrays,
)
from repro.distance.source_detection import source_detection
from repro.graphs.graph import Graph
from repro.hopsets.construction import HopsetResult, build_hopset
from repro.semiring.augmented import augmented_semiring_for


def mssp(
    graph: Graph,
    sources: Sequence[int],
    epsilon: float = 0.5,
    clique: Optional[Clique] = None,
    hopset: Optional[HopsetResult] = None,
    execution: str = "fast",
    early_stop: bool = True,
    label: str = "mssp",
    kernel: Optional[str] = None,
) -> MSSPResult:
    """(1 + ε)-approximate distances from every node to every source.

    Parameters
    ----------
    graph:
        Undirected weighted graph.
    sources:
        The source set ``S``; the round bound is polylogarithmic for
        ``|S| = Õ(√n)`` but the algorithm works for any size.
    epsilon:
        Stretch parameter.
    hopset:
        A previously built hopset to reuse (its ε must be at most
        ``epsilon``); if omitted one is built and its rounds are charged.
    early_stop:
        Stop hop iterations once the distance tables stabilise (see
        :func:`repro.distance.source_detection.source_detection`).
    kernel:
        Pin the local-product kernel for the source-detection products;
        ``None`` lets the cost model choose.
    """
    if graph.directed:
        raise ValueError("MSSP requires an undirected graph")
    if not sources:
        raise ValueError("source set must be non-empty")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    n = graph.n
    clique = clique or Clique(n)
    source_list = sorted(set(sources))
    start_rounds = clique.rounds

    with clique.phase(label):
        if hopset is None:
            hopset = build_hopset(
                graph,
                epsilon=epsilon,
                clique=clique,
                execution=execution,
                early_stop=early_stop,
                label="hopset",
            )
        elif hopset.epsilon > epsilon + 1e-12:
            raise ValueError(
                f"supplied hopset has epsilon={hopset.epsilon}, larger than "
                f"the requested {epsilon}"
            )

        # Build the augmented weight matrix of G ∪ H and run source detection
        # with hop bound β.
        semiring = augmented_semiring_for(n, max(1.0, graph.max_weight()) * n)
        W_union = augmented_matrix_from_arrays(
            n, union_edge_arrays(graph, hopset.edges), semiring)

        detection = source_detection(
            W_union,
            sources=source_list,
            d=hopset.beta,
            k=None,
            clique=clique,
            semiring=semiring,
            execution=execution,
            early_stop=early_stop,
            label="source-detection",
            kernel=kernel,
        )

    distances = np.full((n, len(source_list)), np.inf)
    for v in range(n):
        for index, s in enumerate(source_list):
            entry = detection.distances[v].get(s)
            if entry is not None:
                distances[v, index] = entry[0]

    return MSSPResult(
        sources=source_list,
        distances=distances,
        rounds=clique.rounds - start_rounds,
        clique=clique,
        details={
            "epsilon": epsilon,
            "beta": hopset.beta,
            "hopset_edges": hopset.size(),
            "predicted_rounds": (
                len(source_list) ** (2 / 3) / max(1.0, n ** (1 / 3))
                + math.log2(max(2, n))
            )
            * math.log2(max(2, n))
            / epsilon,
        },
    )
