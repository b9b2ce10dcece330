"""The internals of ``spanner-greedy`` and ``hopset-landmark``: the greedy
spanner's two-ended search against the one-ended one it replaced, the
spanner CSR and the hopset's landmark table.  Guarantees, round trips
and answer parity across layouts and doors are
``test_engine_reference.py``'s, for every registered strategy.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_families
from repro.graphs import Graph, all_pairs_dijkstra, random_weighted_graph
from repro.oracle import OracleBuilder
from repro.oracle.spanner import build_greedy_spanner, spanner_csr
from repro.oracle.hopset_landmark import landmark_table


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(40, average_degree=6, max_weight=9, seed=7)


@pytest.fixture(scope="module")
def exact(graph):
    return all_pairs_dijkstra(graph)


def one_ended_distance(graph, source, target, limit):
    """Dijkstra from ``source`` pruned at ``limit``, run to the exact
    distance: the search the greedy spanner used before ``_within``."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == target:
            return d
        if d > limit:
            return math.inf
        for v, w in graph.neighbors(u).items():
            nd = d + w
            if nd <= limit and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(target, math.inf)


def reference_greedy_spanner(graph, k):
    spanner = Graph(graph.n)
    for u, v, w in sorted(graph.edges(), key=lambda e: (e[2], e[0], e[1])):
        limit = (2 * k - 1) * w
        if one_ended_distance(spanner, u, v, limit) > limit:
            spanner.add_edge(u, v, w)
    return spanner


def assert_stretch(graph, spanner, k):
    exact, kept = all_pairs_dijkstra(graph), all_pairs_dijkstra(spanner)
    for u in range(graph.n):
        for v in range(graph.n):
            if exact[u][v] == math.inf:
                assert kept[u][v] == math.inf
            else:
                assert kept[u][v] <= (2 * k - 1) * exact[u][v] + 1e-9


@st.composite
def edge_lists(draw, weights):
    """``(n, edges)``: few enough edges that parts stay disconnected and
    nodes isolated, weights from a small pool so ties and zeros are
    common.  ``Graph`` drops the self-loops drawn here, so the search's
    ``source == target`` answer is not reached through it."""
    n = draw(st.integers(1, 16))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node, weights), max_size=3 * n))


#: ``bench/inputs.build_graph``'s five families, at half its size.
BUILD_FAMILIES = build_families(96, 11)


class TestTwoEndedSearch:
    """``_within`` keeps exactly the edges the one-ended search kept."""

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(st.integers(0, 4)), st.sampled_from([1, 2, 3]))
    def test_same_edges_on_integer_weights(self, drawn, k):
        graph = Graph.from_edges(*drawn)
        assert (list(build_greedy_spanner(graph, k).edges())
                == list(reference_greedy_spanner(graph, k).edges()))

    @pytest.mark.parametrize("family", sorted(BUILD_FAMILIES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_same_edges_on_build_families(self, family, k):
        graph = BUILD_FAMILIES[family]
        assert (list(build_greedy_spanner(graph, k).edges())
                == list(reference_greedy_spanner(graph, k).edges()))

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(st.integers(0, 40).map(lambda tenths: tenths / 10)),
           st.sampled_from([1, 2, 3]))
    def test_stretch_on_weights_in_tenths(self, drawn, k):
        # The two searches sum a path from different ends, so on inexact
        # weights an edge at the limit may go either way; the bound holds.
        graph = Graph.from_edges(*drawn)
        assert_stretch(graph, build_greedy_spanner(graph, k), k)

    def test_directed_graph_is_rejected(self):
        with pytest.raises(ValueError, match="undirected"):
            build_greedy_spanner(Graph(4, directed=True), 2)


class TestSpannerInternals:
    def test_greedy_spanner_stretch_bound(self, graph):
        k = 2
        spanner = build_greedy_spanner(graph, k)
        assert spanner.num_edges() <= graph.num_edges()
        assert_stretch(graph, spanner, k)

    def test_csr_is_symmetric_and_sorted(self, graph):
        spanner = build_greedy_spanner(graph, 2)
        indptr, indices, weights = spanner_csr(spanner)
        assert indptr.shape == (graph.n + 1,)
        assert indptr[-1] == indices.shape[0] == weights.shape[0]
        edges = set()
        for u in range(graph.n):
            row = indices[indptr[u]:indptr[u + 1]]
            assert list(row) == sorted(row)
            for v in row.tolist():
                edges.add((u, v))
        assert all((v, u) in edges for u, v in edges)

    def test_spanner_k_affects_metadata_guarantee(self, graph):
        loose = OracleBuilder(strategy="spanner-greedy", k=3).build(graph)
        assert loose.stretch.multiplicative == pytest.approx(15.0)
        assert loose.metadata["build"]["k"] == 3


class TestHopsetInternals:
    def test_landmark_table_is_exact(self, graph, exact):
        landmarks = np.asarray([0, 7, 23], dtype=np.int64)
        table, iterations = landmark_table(graph, [], landmarks)
        assert table.shape == (graph.n, 3)
        assert 1 <= iterations <= graph.n
        for column, landmark in enumerate(landmarks.tolist()):
            for v in range(graph.n):
                assert table[v, column] == pytest.approx(exact[landmark][v])

    def test_hopset_edges_cut_iterations(self, graph):
        landmarks = np.asarray([0], dtype=np.int64)
        truth = all_pairs_dijkstra(graph)
        shortcuts = [(0, v, truth[0][v]) for v in range(1, graph.n)
                     if truth[0][v] < math.inf]
        _plain, plain_iters = landmark_table(graph, [], landmarks)
        table, fast_iters = landmark_table(graph, shortcuts, landmarks)
        assert fast_iters <= plain_iters
        for v in range(graph.n):
            assert table[v, 0] == pytest.approx(truth[0][v])

