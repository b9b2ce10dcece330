"""Tests for the query engine's front end: refused queries, the answer
cache, batch deduplication, lifetime and the latency statistics.  Its
answers through every door are ``test_engine_reference.py``'s."""

from __future__ import annotations

import pytest

from repro.graphs import random_weighted_graph
from repro.obs.metrics import LatencyRecorder
from repro.oracle import AnswerCache, QueryEngine, build_oracle


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(40, average_degree=7, max_weight=12, seed=31)


@pytest.fixture(scope="module")
def engine(graph):
    return QueryEngine(build_oracle(graph, strategy="landmark-mssp", epsilon=0.5))


class TestRefusedQueries:
    def test_out_of_range_rejected(self, engine):
        with pytest.raises(ValueError, match="out of range"):
            engine.dist(0, 10_000)

    def test_empty_batch(self, engine):
        assert engine.batch([]).shape == (0,)

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
