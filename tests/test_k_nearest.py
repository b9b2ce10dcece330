"""Tests for the k-nearest tool (Theorem 18)."""

from __future__ import annotations

import importlib
import math

import pytest

from repro.cclique import Clique
from repro.distance import k_nearest
from repro.distance.products import augmented_weight_matrix
from repro.graphs import (
    all_pairs_dijkstra,
    disjoint_cliques,
    erdos_renyi,
    grid_graph,
    path_graph,
    random_weighted_graph,
    star_graph,
)

# ``repro.distance.k_nearest`` is the function; the module is looked up.
knn_module = importlib.import_module("repro.distance.k_nearest")


def k_smallest_distances(exact_row, k):
    return sorted(exact_row)[:k]


class TestKNearestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_distances_match_dijkstra(self, k):
        graph = random_weighted_graph(28, average_degree=5, max_weight=9, seed=21)
        exact = all_pairs_dijkstra(graph)
        result = k_nearest(graph, k)
        for v in range(graph.n):
            expected = k_smallest_distances(exact[v], k)
            got = sorted(dist for dist, _hops in result.neighbors[v].values())
            assert got == expected, f"node {v}"

    def test_node_is_its_own_nearest(self):
        graph = path_graph(10)
        result = k_nearest(graph, 3)
        for v in range(graph.n):
            assert result.neighbors[v][v][0] == 0

    def test_path_graph_neighbors(self):
        graph = path_graph(12)
        result = k_nearest(graph, 3)
        # interior node: itself plus its two adjacent nodes
        assert set(result.nearest_set(5)) == {4, 5, 6}

    def test_grid_graph_distances(self):
        graph = grid_graph(4, 4)
        exact = all_pairs_dijkstra(graph)
        result = k_nearest(graph, 6)
        for v in range(graph.n):
            got = sorted(dist for dist, _ in result.neighbors[v].values())
            assert got == k_smallest_distances(exact[v], 6)

    def test_star_center_and_leaf(self):
        graph = star_graph(15)
        result = k_nearest(graph, 4)
        # a leaf's nearest nodes are itself, the center, then other leaves
        leaf_set = result.nearest_set(3)
        assert leaf_set[0] == 3
        assert leaf_set[1] == 0

    def test_hops_are_consistent_with_distances(self):
        graph = path_graph(10)
        result = k_nearest(graph, 5)
        for v in range(graph.n):
            for u, (dist, hops) in result.neighbors[v].items():
                assert hops == abs(u - v)
                assert dist == abs(u - v)

    def test_disconnected_components_stay_separate(self):
        graph = disjoint_cliques(2, 5)
        result = k_nearest(graph, 8)
        for v in range(graph.n):
            component = set(range(0, 5)) if v < 5 else set(range(5, 10))
            assert set(result.neighbors[v]) <= component

    def test_k_larger_than_n_returns_all_reachable(self):
        graph = path_graph(6)
        result = k_nearest(graph, 100)
        for v in range(graph.n):
            assert len(result.neighbors[v]) == 6

    def test_weighted_ties_resolved_consistently(self):
        graph = random_weighted_graph(20, average_degree=4, max_weight=3, seed=22)
        exact = all_pairs_dijkstra(graph)
        result = k_nearest(graph, 4)
        for v in range(graph.n):
            got = sorted(dist for dist, _ in result.neighbors[v].values())
            assert got == k_smallest_distances(exact[v], 4)


class TestKNearestInterface:
    def test_invalid_k_rejected(self):
        graph = path_graph(5)
        with pytest.raises(ValueError):
            k_nearest(graph, 0)

    def test_rounds_charged_to_shared_clique(self):
        graph = path_graph(12)
        clique = Clique(12)
        result = k_nearest(graph, 3, clique=clique)
        assert clique.rounds == result.rounds > 0

    def test_faithful_and_fast_agree(self):
        graph = random_weighted_graph(18, average_degree=4, max_weight=6, seed=23)
        fast = k_nearest(graph, 4, execution="fast")
        faithful = k_nearest(graph, 4, execution="faithful")
        assert fast.matrix.equals(faithful.matrix)

    def test_distance_accessor(self):
        graph = path_graph(8)
        result = k_nearest(graph, 3)
        assert result.distance(0, 1) == 1
        assert result.distance(0, 7) == math.inf  # not among the 3 nearest

    def test_rounds_grow_with_k(self):
        graph = random_weighted_graph(32, average_degree=5, seed=24)
        small = k_nearest(graph, 2)
        large = k_nearest(graph, 16)
        assert large.rounds >= small.rounds


class TestNearestSetRanking:
    @pytest.mark.parametrize("graph", [
        grid_graph(6, 7),
        erdos_renyi(40, 0.1, seed=5),
        star_graph(25),
    ], ids=["grid", "erdos-renyi", "star"])
    @pytest.mark.parametrize("k", [3, 11, 40])
    def test_equals_sort_by_distance_hops_id(self, graph, k):
        result = k_nearest(graph, k)
        for v in range(graph.n):
            expected = sorted(result.neighbors[v],
                              key=lambda u: (*result.neighbors[v][u], u))
            assert result.nearest_set(v) == expected


def reference_k_nearest(graph, k, clique):
    """Theorem 18 with all ceil(log2 k) squarings computed on ``clique``.

    Returns the final matrix and, per squaring, whether its product
    differed from its input.
    """
    W, semiring = augmented_weight_matrix(graph)
    universe = knn_module._weight_universe_size(graph, semiring)
    current, changed = W.filter_rows(k), []
    with clique.phase("k-nearest"):
        for _ in range(max(1, math.ceil(math.log2(k)))):
            product = knn_module.filtered_mm(
                current, current, rho=k, weight_universe_size=universe,
                clique=clique, label="filtered-squaring", execution="fast")
            changed.append(not product.product.equals(current))
            current = product.product
    return current, changed


@pytest.fixture
def counted_squarings(monkeypatch):
    """Count the ``filtered_mm`` calls ``k_nearest`` makes."""
    real = knn_module.filtered_mm

    def counting(*args, **kwargs):
        counting.calls += 1
        return real(*args, **kwargs)

    counting.calls = 0
    monkeypatch.setattr(knn_module, "filtered_mm", counting)
    return counting


#: name -> (graph, k, squarings that multiply, squarings in all)
SQUARING_CASES = {
    # The fourth of seven squarings returns its own input.
    "er": (random_weighted_graph(96, 8, 32, 2024), 69, 4, 7),
    # Each squaring doubles the hop reach along the path.
    "path": (path_graph(64), 64, 6, 6),
}


class TestSquaringsAreReplayed:
    @pytest.mark.parametrize("case", sorted(SQUARING_CASES))
    def test_equal_to_every_squaring_computed(self, case, counted_squarings):
        graph, k, multiplying, squarings = SQUARING_CASES[case]
        expected_clique = Clique(graph.n)
        expected, changed = reference_k_nearest(graph, k, expected_clique)
        assert len(changed) == squarings
        # Up to and including the first squaring that returns its input.
        first_fixed = changed.index(False) + 1 if False in changed else squarings
        assert first_fixed == multiplying

        counted_squarings.calls = 0
        clique = Clique(graph.n)
        result = k_nearest(graph, k, clique=clique)
        assert result.matrix.equals(expected)
        assert result.neighbors == [
            {u: (w, int(h)) for u, (w, h) in row.items()}
            for row in expected.rows]
        assert result.rounds == clique.rounds == expected_clique.rounds
        assert (clique.breakdown.by_label()
                == expected_clique.breakdown.by_label())
        assert clique.messages_sent == expected_clique.messages_sent
        assert counted_squarings.calls == multiplying
