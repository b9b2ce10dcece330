"""Tests for the hopset construction (Section 4, Theorem 25)."""

from __future__ import annotations

import math

import pytest

from repro.cclique import Clique
from repro.distance.products import (
    augmented_matrix_from_arrays,
    concat_edge_arrays,
    symmetric_edge_arrays,
    union_edge_arrays,
)
from repro.graphs import (
    Graph,
    all_pairs_dijkstra,
    grid_graph,
    path_graph,
    random_weighted_graph,
    star_graph,
)
from repro.hopsets import build_hopset, construction, verify_hopset_property
from repro.semiring.augmented import augmented_semiring_for
from repro.hopsets.bounded import hop_bounded_distance_in_union, union_graph


class TestHopsetGuarantee:
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0])
    def test_stretch_bound_random_graph(self, epsilon):
        graph = random_weighted_graph(32, average_degree=5, max_weight=8, seed=51)
        hopset = build_hopset(graph, epsilon=epsilon)
        report = verify_hopset_property(graph, hopset.edges, hopset.beta, epsilon)
        assert report["violations"] == 0
        assert report["max_underestimate"] == pytest.approx(1.0)

    def test_stretch_bound_on_path(self):
        """Paths are the hardest case for hop reduction: without a hopset the
        β-hop distance across the path is infinite."""
        graph = path_graph(28, max_weight=4, seed=52)
        hopset = build_hopset(graph, epsilon=0.5)
        report = verify_hopset_property(graph, hopset.edges, hopset.beta, 0.5)
        assert report["violations"] == 0

    def test_stretch_bound_on_grid(self):
        graph = grid_graph(5, 5, max_weight=3, seed=53)
        hopset = build_hopset(graph, epsilon=0.5)
        report = verify_hopset_property(graph, hopset.edges, hopset.beta, 0.5)
        assert report["violations"] == 0

    def test_hopset_never_underestimates(self):
        graph = random_weighted_graph(24, average_degree=4, max_weight=6, seed=54)
        hopset = build_hopset(graph, epsilon=0.5)
        exact = all_pairs_dijkstra(graph)
        merged = union_graph(graph, hopset.edges)
        union_exact = all_pairs_dijkstra(merged)
        for u in range(graph.n):
            for v in range(graph.n):
                assert union_exact[u][v] >= exact[u][v] - 1e-9

    def test_beta_hops_suffice_from_every_source(self):
        graph = random_weighted_graph(24, average_degree=5, max_weight=5, seed=55)
        epsilon = 0.5
        hopset = build_hopset(graph, epsilon=epsilon)
        exact = all_pairs_dijkstra(graph)
        for source in range(0, graph.n, 6):
            bounded = hop_bounded_distance_in_union(
                graph, hopset.edges, source, hopset.beta
            )
            for v in range(graph.n):
                if exact[source][v] not in (0, math.inf):
                    assert bounded[v] <= (1 + epsilon) * exact[source][v] + 1e-9


class TestHopsetSizeAndStructure:
    def test_size_bound(self):
        """|H| = O(n^{3/2} log n) (Claim 21); check with constant 4."""
        graph = random_weighted_graph(36, average_degree=6, max_weight=5, seed=56)
        hopset = build_hopset(graph, epsilon=0.5)
        n = graph.n
        assert hopset.size() <= 4 * n ** 1.5 * math.log2(n)

    def test_hitting_set_size(self):
        graph = random_weighted_graph(36, average_degree=6, seed=57)
        hopset = build_hopset(graph, epsilon=0.5)
        n = graph.n
        # |A1| = O(n log n / k) with k ~ sqrt(n) log n -> O(sqrt(n))
        assert len(hopset.hitting_set) <= 4 * math.sqrt(n) + math.log2(n)

    def test_pivot_distances_are_exact(self):
        graph = random_weighted_graph(24, average_degree=5, max_weight=7, seed=58)
        hopset = build_hopset(graph, epsilon=0.5)
        exact = all_pairs_dijkstra(graph)
        hitting = set(hopset.hitting_set)
        for v in range(graph.n):
            if v in hitting:
                assert hopset.pivots[v] == v
                assert hopset.pivot_distances[v] == 0
            else:
                p = hopset.pivots[v]
                assert p in hitting
                assert hopset.pivot_distances[v] == pytest.approx(exact[v][p])

    def test_beta_default_follows_theorem(self):
        graph = random_weighted_graph(20, average_degree=4, seed=59)
        tight = build_hopset(graph, epsilon=0.25)
        loose = build_hopset(graph, epsilon=1.0)
        assert tight.beta > loose.beta

    def test_bunch_edges_have_exact_weights(self):
        graph = random_weighted_graph(20, average_degree=4, max_weight=6, seed=60)
        hopset = build_hopset(graph, epsilon=0.5)
        exact = all_pairs_dijkstra(graph)
        hitting = set(hopset.hitting_set)
        for u, v, w in hopset.edges:
            # every hopset edge weight is at least the true distance; bunch
            # edges (non-A1 endpoints) are exactly the true distance
            assert w >= exact[u][v] - 1e-9
            if u not in hitting or v not in hitting:
                assert w == pytest.approx(exact[u][v])


class TestHopsetInterface:
    def test_directed_graph_rejected(self):
        from repro.graphs import Graph

        graph = Graph(5, directed=True)
        graph.add_edge(0, 1, 1)
        with pytest.raises(ValueError):
            build_hopset(graph)

    def test_invalid_epsilon_rejected(self):
        graph = path_graph(5)
        with pytest.raises(ValueError):
            build_hopset(graph, epsilon=0)

    def test_rounds_charged_to_shared_clique(self):
        graph = path_graph(16)
        clique = Clique(16)
        hopset = build_hopset(graph, epsilon=0.5, clique=clique)
        assert clique.rounds == hopset.rounds > 0

    def test_explicit_parameters_override_defaults(self):
        graph = path_graph(16)
        hopset = build_hopset(graph, epsilon=0.5, k=4, beta=6, levels=2)
        assert hopset.k == 4
        assert hopset.beta == 6
        assert hopset.levels == 2

    def test_star_graph_trivial_hopset(self):
        """On a star every node is within 2 hops already, so the hopset adds
        little and the property holds trivially."""
        graph = star_graph(20)
        hopset = build_hopset(graph, epsilon=0.5)
        report = verify_hopset_property(graph, hopset.edges, hopset.beta, 0.5)
        assert report["violations"] == 0


def reference_hopset(graph, clique, levels=None, early_stop=True, **kwargs):
    """Theorem 25 with every level computed on the caller's clique.

    Returns ``(edges, products)``: the hopset edges and how many
    ``output_sensitive_mm`` calls each level made (read off the
    ``counted_products`` fixture's counter, which must be active).
    """
    n = graph.n
    if levels is None:
        levels = max(1, math.ceil(math.log2(max(2, n))))
    start = build_hopset(graph, clique=clique, levels=0, **kwargs)
    semiring = augmented_semiring_for(n, max(1.0, graph.max_weight()) * n)
    base = union_edge_arrays(graph, start.edges)
    a1, products = symmetric_edge_arrays(()), []
    with clique.phase("hopset"):
        for _ in range(levels):
            before = construction.output_sensitive_mm.calls
            W_union = augmented_matrix_from_arrays(
                n, concat_edge_arrays(base, a1), semiring)
            detection = construction._bounded_source_detection(
                W_union, start.hitting_set, 4 * start.beta, clique,
                execution=kwargs.get("execution", "fast"),
                early_stop=early_stop)
            a1 = construction._a1_edges(detection, start.hitting_set)
            clique.charge_broadcast(label="level-edge-announce")
            products.append(construction.output_sensitive_mm.calls - before)
    edges = {(u, v): w for u, v, w in start.edges}
    for u, v, w in zip(*(part.tolist() for part in a1)):
        construction._add_edge(edges, u, v, w)
    return sorted((u, v, w) for (u, v), w in edges.items()), products


@pytest.fixture
def counted_products(monkeypatch):
    """Count the level products (``k_nearest`` binds its own name)."""
    real = construction.output_sensitive_mm

    def counting(*args, **kwargs):
        counting.calls += 1
        return real(*args, **kwargs)

    counting.calls = 0
    monkeypatch.setattr(construction, "output_sensitive_mm", counting)
    return counting


#: name -> (graph, clique size, build_hopset kwargs, levels that multiply)
REPLAY_CASES = {
    "er": (random_weighted_graph(48, average_degree=6, max_weight=9, seed=3),
           48, {"k": 8}, 2),
    # The centre alone hits every ball, as does the one node below.
    "star": (star_graph(20), 20, {}, 1),
    "single-landmark": (random_weighted_graph(12, 4, 9, seed=5), 12,
                        {"k": 12}, 1),
    "disconnected": (Graph.from_edges(20, [(v, v + 1, 1 + v % 3)
                                           for v in range(19) if v != 9]),
                     20, {"k": 3}, 2),
    "no-early-stop": (random_weighted_graph(24, 5, 9, seed=8), 24,
                      {"early_stop": False, "beta": 4, "k": 5}, 2),
    "faithful": (random_weighted_graph(16, 4, 9, seed=4), 16,
                 {"execution": "faithful", "k": 4}, 2),
    # apsp_unweighted's case: the graph is a low-degree part of the clique.
    "clique-larger-than-graph": (random_weighted_graph(20, 4, 9, seed=2), 40,
                                 {"k": 5}, 2),
    # Hop bound 4 on landmarks two apart: the A₁ edges reach 2, then 8,
    # then all 32 landmarks, and only the fourth level repeats the third.
    "hop-bound-binds": (path_graph(64), 64,
                        {"beta": 1, "k": 2, "levels": 6}, 4),
}


class TestRepeatedLevelsAreReplayed:
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_equal_to_every_level_computed(self, case, counted_products):
        graph, clique_n, kwargs, multiplying = REPLAY_CASES[case]
        expected_clique = Clique(clique_n)
        expected_edges, products = reference_hopset(
            graph, expected_clique, **kwargs)
        assert len(products) > multiplying and all(products[:multiplying])

        counted_products.calls = 0
        clique = Clique(clique_n)
        hopset = build_hopset(graph, clique=clique, **kwargs)
        assert hopset.edges == expected_edges
        assert hopset.rounds == clique.rounds == expected_clique.rounds
        assert (clique.breakdown.by_label()
                == expected_clique.breakdown.by_label())
        assert clique.messages_sent == expected_clique.messages_sent
        assert counted_products.calls == sum(products[:multiplying])
