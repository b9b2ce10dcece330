"""Tests for the query engine: point/batch/k-nearest answers, the answer
cache, and the latency statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graphs import all_pairs_dijkstra, random_weighted_graph
from repro.obs.metrics import LatencyRecorder
from repro.oracle import AnswerCache, QueryEngine, build_oracle


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(40, average_degree=7, max_weight=12, seed=31)


@pytest.fixture(scope="module")
def exact(graph):
    return all_pairs_dijkstra(graph)


@pytest.fixture(scope="module")
def engine(graph):
    return QueryEngine(build_oracle(graph, strategy="landmark-mssp", epsilon=0.5))


class TestPointQueries:
    def test_self_distance_is_zero(self, engine, graph):
        for v in range(graph.n):
            assert engine.dist(v, v) == 0.0

    def test_symmetry(self, engine, graph):
        for u in range(0, graph.n, 3):
            for v in range(0, graph.n, 5):
                assert engine.dist(u, v) == engine.dist(v, u)

    def test_out_of_range_rejected(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.dist(0, 10_000)

    def test_estimates_upper_bound_exact(self, engine, graph, exact):
        for u in range(graph.n):
            for v in range(graph.n):
                if exact[u][v] == math.inf:
                    continue
                assert engine.dist(u, v) >= exact[u][v] - 1e-9


class TestBatchQueries:
    def test_batch_matches_point_queries(self, engine, graph):
        pairs = [(u, v) for u in range(0, graph.n, 4) for v in range(0, graph.n, 3)]
        batch = engine.batch(pairs)
        assert batch.shape == (len(pairs),)
        for (u, v), value in zip(pairs, batch):
            assert value == engine.dist(u, v)

    def test_empty_batch(self, engine):
        assert engine.batch([]).shape == (0,)


class TestKNearest:
    def test_matches_reference_on_exact_strategy(self, graph, exact):
        engine = QueryEngine(build_oracle(graph, strategy="exact-fallback"))
        for u in (0, 7, 23):
            result = engine.k_nearest(u, 5)
            expected = sorted(
                ((v, exact[u][v]) for v in range(graph.n)
                 if v != u and exact[u][v] != math.inf),
                key=lambda item: (item[1], item[0]),
            )[:5]
            assert result == [(v, pytest.approx(d)) for v, d in expected]

    def test_sorted_and_excludes_self(self, engine, graph):
        result = engine.k_nearest(0, 10)
        assert all(node != 0 for node, _ in result)
        distances = [d for _, d in result]
        assert distances == sorted(distances)

    def test_k_larger_than_graph_is_capped(self, engine, graph):
        result = engine.k_nearest(0, graph.n * 10)
        assert len(result) <= graph.n - 1

    def test_non_positive_k_rejected(self, engine):
        with pytest.raises(ValueError, match="k must be positive"):
            engine.k_nearest(0, 0)


class TestCacheAndStats:
    def test_repeat_queries_hit_the_cache(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="dense-apsp"))
        for _ in range(3):
            engine.dist(1, 2)
        stats = engine.stats()
        assert stats["cache_hits"] == 2
        assert stats["cache_misses"] == 1

    def test_cache_keys_are_symmetric(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="dense-apsp"))
        engine.dist(3, 4)
        engine.dist(4, 3)
        assert engine.stats()["cache_hits"] == 1

    def test_cache_can_be_disabled(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="dense-apsp"),
                             cache_size=0)
        engine.dist(1, 2)
        engine.dist(1, 2)
        assert engine.stats()["cache_hits"] == 0
        assert len(engine.cache) == 0

    def test_stats_shape(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="dense-apsp"))
        engine.batch([(0, 1), (1, 2), (0, 1)])
        stats = engine.stats()
        assert stats["queries"] == 3
        assert set(stats) == {"queries", "cache_hits", "cache_misses",
                              "shard_faults", "mapped_bytes",
                              "resident_bytes"}
        assert 0.0 <= engine.cache.hit_rate <= 1.0
        latency = engine.latency.snapshot()
        assert latency["count"] == 3
        assert latency["p50_us"] <= latency["p95_us"] <= latency["p99_us"]

    def test_clear_cache(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="dense-apsp"))
        engine.dist(0, 1)
        engine.clear_cache()
        assert len(engine.cache) == 0
        engine.dist(0, 1)
        assert engine.stats()["cache_misses"] == 2

    def test_queries_total_is_monotonic(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="dense-apsp"))
        assert engine.stats()["queries"] == 0
        engine.dist(0, 1)
        engine.batch([(0, 1), (1, 2), (2, 3)])
        engine.k_nearest(0, 2)
        assert engine.stats()["queries"] == 5
        engine.clear_cache()
        assert engine.stats()["queries"] == 5  # survives cache clears


class TestBatchDeduplication:
    def test_duplicate_pairs_resolved_once(self, graph):
        engine = QueryEngine(build_oracle(graph, strategy="landmark-mssp",
                                          epsilon=0.5))
        gathered = []
        inner = engine._point_batch

        def counting(us, vs):
            gathered.append(len(us))
            return inner(us, vs)

        engine._point_batch = counting
        pairs = [(0, 5), (5, 0), (0, 5), (3, 7), (0, 5)]
        values = engine.batch(pairs)
        # One gather, two distinct keys, despite five requested pairs.
        assert gathered == [2]
        assert values[0] == values[1] == values[2] == values[4]
        engine._point_batch = inner
        assert list(values) == [engine.dist(u, v) for u, v in pairs]

    def test_batch_core_matches_batch(self, graph):
        import numpy as np

        engine = QueryEngine(build_oracle(graph, strategy="landmark-mssp",
                                          epsilon=0.5))
        pairs = [(2, 9), (9, 2), (0, 0), (4, 11)]
        lo = np.array([min(u, v) for u, v in pairs], dtype=np.int64)
        hi = np.array([max(u, v) for u, v in pairs], dtype=np.int64)
        core = engine.batch_core(lo, hi)
        assert list(core) == [engine.dist(u, v) for u, v in pairs]


class TestEngineLifetime:
    def test_dropped_engine_is_freed_without_the_cyclic_collector(self, graph):
        """An engine (its answer table, its maps) must go when the last
        reference goes — the registry evicts engines to bound residency."""
        import gc
        import weakref

        artifact = build_oracle(graph, strategy="landmark-mssp", epsilon=0.5)
        gc.collect()
        gc.disable()
        try:
            engine = QueryEngine(artifact)
            engine.batch([(0, 5), (3, 9)])
            engine.dist(2, 7)
            engine.k_nearest(0, 3)
            alive = weakref.ref(engine)
            del engine
            assert alive() is None
        finally:
            gc.enable()


class TestAnswerCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = AnswerCache(capacity=2)  # one set of two ways
        cache.put(1, 1.0)
        cache.put(2, 2.0)
        assert cache.get(1) == 1.0  # refresh 1
        cache.put(3, 3.0)  # evicts 2
        assert cache.get(2) is None
        assert cache.get(1) == 1.0
        assert cache.get(3) == 3.0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=-1)

    def test_hit_rate(self):
        cache = AnswerCache(capacity=4)
        cache.put(7, 1.0)
        cache.get(7)
        cache.get(8)
        assert cache.hit_rate == pytest.approx(0.5)


class TestLatencyRecorder:
    def test_percentiles_over_known_samples(self):
        recorder = LatencyRecorder(window=1000)
        for value in range(1, 101):  # 1..100 us in ns
            recorder.record(value * 1000)
        assert recorder.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert recorder.percentile(99) == pytest.approx(99.0, abs=1.0)

    def test_window_bounds_memory(self):
        recorder = LatencyRecorder(window=8)
        for value in range(100):
            recorder.record(value)
        assert recorder.count == 100
        assert recorder.snapshot()["count"] == 100
        # Only the 8 most recent samples back the percentiles.
        assert recorder.percentile(0) >= 92 / 1000.0

    def test_empty_snapshot(self):
        recorder = LatencyRecorder()
        assert recorder.snapshot()["p50_us"] is None
        assert recorder.percentile(50) is None

    def test_record_many_matches_loop_of_records(self):
        bulk = LatencyRecorder(window=8)
        loop = LatencyRecorder(window=8)
        # Mixed singles and bulks, crossing the window boundary twice.
        for value, count in ((5, 3), (7, 1), (9, 10), (2, 4), (11, 6)):
            bulk.record_many(value, count)
            for _ in range(count):
                loop.record(value)
        assert bulk.count == loop.count == 24
        assert sorted(bulk._ring) == sorted(loop._ring)
        assert bulk.snapshot() == loop.snapshot()

    def test_record_many_zero_is_noop(self):
        recorder = LatencyRecorder(window=4)
        recorder.record_many(5, 0)
        assert recorder.count == 0
        assert recorder.snapshot()["p50_us"] is None
