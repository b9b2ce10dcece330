"""End-to-end tests for the PR 10 oracle family additions.

``spanner-greedy`` and ``hopset-landmark`` must behave exactly like the
original strategies across the whole artifact lifecycle: guarantee held
against brute-force distances, ``--jobs`` builds bit-identical to serial
ones, router admission by the declared guarantee, and (for the spanner)
an artifact decisively smaller than the dense table.  Round trips and
answer parity across layouts are ``test_engine_reference.py``'s, for
every registered strategy.
"""

from __future__ import annotations

import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import Graph, all_pairs_dijkstra, random_weighted_graph
from repro.graphs.generators import (
    disjoint_cliques,
    grid_graph,
    power_law_graph,
)
from repro.oracle import OracleBuilder, QueryEngine, build_oracle
from repro.oracle.spanner import build_greedy_spanner, spanner_csr
from repro.oracle.hopset_landmark import landmark_table

NEW_STRATEGIES = ("spanner-greedy", "hopset-landmark")


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(40, average_degree=6, max_weight=9, seed=7)


@pytest.fixture(scope="module")
def exact(graph):
    return all_pairs_dijkstra(graph)


@pytest.fixture(scope="module", params=NEW_STRATEGIES)
def built(request, graph):
    return build_oracle(graph, strategy=request.param, epsilon=0.5)


class TestGuarantees:
    def test_all_pairs_within_declared_stretch(self, graph, exact, built):
        engine = QueryEngine(built)
        guarantee = built.stretch
        pairs = [(u, v) for u in range(graph.n) for v in range(graph.n)]
        estimates = engine.batch(pairs)
        for (u, v), est in zip(pairs, estimates.tolist()):
            true = exact[u][v]
            if true == math.inf:
                assert est == math.inf
            else:
                assert true - 1e-9 <= est <= guarantee.upper_bound(true) + 1e-9

    def test_disconnected_pairs_stay_infinite(self, exact):
        pieces = disjoint_cliques(3, 5)
        truth = all_pairs_dijkstra(pieces)
        for name in NEW_STRATEGIES:
            engine = QueryEngine(build_oracle(pieces, strategy=name,
                                              epsilon=0.5))
            for u in range(pieces.n):
                for v in range(pieces.n):
                    if truth[u][v] == math.inf:
                        assert engine.dist(u, v) == math.inf

    def test_grid_graph_within_stretch(self):
        grid = grid_graph(5, 5, max_weight=6, seed=2)
        truth = all_pairs_dijkstra(grid)
        for name in NEW_STRATEGIES:
            artifact = build_oracle(grid, strategy=name, epsilon=0.5)
            engine = QueryEngine(artifact)
            for u in range(grid.n):
                for v in range(grid.n):
                    est = engine.dist(u, v)
                    assert truth[u][v] - 1e-9 <= est
                    assert est <= artifact.stretch.upper_bound(truth[u][v]) + 1e-9

    def test_metadata_declares_query_kind(self, built):
        assert built.metadata["query_kind"] in ("landmark", "spanner")
        assert built.query_kind == built.metadata["query_kind"]


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
BUILD_FAMILIES = {
    "er-deg8": lambda: random_weighted_graph(96, 8, 32, 11),
    "power-law": lambda: power_law_graph(96, 3, seed=11, max_weight=32),
    "grid": lambda: grid_graph(12, 8, max_weight=8, seed=11),
    "er-deg4": lambda: random_weighted_graph(96, 4, 32, 11),
    "er-deg16": lambda: random_weighted_graph(96, 16, 32, 11),
}


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
        graph = BUILD_FAMILIES[family]()
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


class TestParallelParity:
    @pytest.mark.parametrize("strategy", NEW_STRATEGIES)
    def test_jobs_builds_are_bit_identical(self, graph, strategy, tmp_path):
        serial = build_oracle(graph, strategy=strategy, epsilon=0.5)
        _, serial_shards = serial.save_sharded(tmp_path / "serial", 3)
        digests = {}
        for jobs in (1, 2):
            builder = OracleBuilder(strategy=strategy, epsilon=0.5, jobs=jobs)
            _, _, shards = builder.build_sharded(
                graph, tmp_path / f"jobs{jobs}", 3)
            digests[jobs] = [hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in shards]
        serial_digest = [hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in serial_shards]
        assert digests[1] == digests[2] == serial_digest

    @pytest.mark.parametrize("strategy", NEW_STRATEGIES)
    def test_parallel_metadata_keeps_rounds_and_guarantee(self, graph,
                                                          strategy):
        parallel = OracleBuilder(strategy=strategy, epsilon=0.5,
                                 jobs=2).build(graph)
        classic = build_oracle(graph, strategy=strategy, epsilon=0.5)
        assert parallel.stretch == classic.stretch
        assert parallel.build_rounds == classic.build_rounds
        # No slab build ran: the metadata says the classic path did.
        assert parallel.metadata["build"]["mode"] == "simulated-clique"
        assert parallel.metadata["build"]["jobs"] == 1


class TestServingIntegration:
    def test_router_admits_by_declared_guarantee(self, graph, tmp_path):
        from repro.serve import ArtifactRegistry, RoutingError, StretchRouter

        registry = ArtifactRegistry()
        for name in NEW_STRATEGIES:
            manifest, _ = build_oracle(
                graph, strategy=name, epsilon=0.5).save_sharded(tmp_path / name)
            registry.register(manifest, name=name)
        router = StretchRouter(registry)
        assert router.route(multiplicative=3.0).name == "hopset-landmark"
        decision = router.route(multiplicative=9.0)
        assert decision.name in NEW_STRATEGIES
        with pytest.raises(RoutingError):
            router.route(multiplicative=1.5)

    def test_spanner_artifact_smaller_than_dense(self, tmp_path):
        big = random_weighted_graph(96, average_degree=6, max_weight=9,
                                    seed=11)
        sizes = {}
        for name in ("dense-apsp", "spanner-greedy"):
            _, shard_paths = build_oracle(big, strategy=name,
                                          epsilon=0.5).save_sharded(
                tmp_path / name, 4)
            sizes[name] = sum(p.stat().st_size for p in shard_paths)
        assert sizes["spanner-greedy"] < sizes["dense-apsp"]
