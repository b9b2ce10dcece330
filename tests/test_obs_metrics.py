"""Metrics-registry tests: thread-safe increments, snapshot merge
associativity, Prometheus rendering, the weakref callback lifecycle
behind every tier's series, and the drift guard: each surviving
``stats()`` is a flat read of exactly the series its tier publishes."""

from __future__ import annotations

import asyncio
import gc
import threading

import pytest

from repro.graphs import random_weighted_graph
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import (
    LatencyRecorder,
    MetricsRegistry,
    get_registry,
    merge_snapshots,
    publish,
    read_series,
)
from repro.oracle import QueryEngine, build_oracle, load_artifact
from repro.serve import DistanceServer, ServerConfig, ServerOverloaded


class TestConcurrency:
    def test_concurrent_counter_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        per_thread, threads = 10_000, 8

        def worker():
            for _ in range(per_thread):
                counter.inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert counter.value == per_thread * threads

class TestSnapshotsAndMerging:
    def make_registry(self, scale: int) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("requests", labels={"role": "worker"}).inc(10 * scale)
        registry.gauge("depth").set_function(lambda: 3 * scale)
        window = LatencyRecorder(64)
        window.record_many(1000, scale)
        registry.recorder("rec").attach(window)
        # The windows must outlive the snapshot: the handle holds them weakly.
        self.windows.append(window)
        return registry

    def test_merge_is_associative(self):
        self.windows = []
        a, b, c = (self.make_registry(s).snapshot() for s in (1, 2, 3))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right
        total = left["counters"]["requests"]["values"]['role="worker"']
        assert total == 10 * (1 + 2 + 3)
        assert left["gauges"]["depth"]["values"][""] == 3 * (1 + 2 + 3)
        assert left["recorders"]["rec"]["values"][""]["count"] == 6
        assert set(left) == {"counters", "gauges", "recorders"}

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_label_children_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("k", labels={"kernel": "csr"}).inc(2)
        registry.counter("k", labels={"kernel": "blocked"}).inc(5)
        values = registry.snapshot()["counters"]["k"]["values"]
        assert values == {'kernel="csr"': 2.0, 'kernel="blocked"': 5.0}


class TestPrometheusRendering:
    def test_counters_gauges_and_summaries_render(self):
        registry = MetricsRegistry()
        registry.counter("reqs", "Total requests",
                         labels={"role": "worker"}).inc(7)
        registry.gauge("depth", "Queue depth").set_function(lambda: 4)
        window = LatencyRecorder(64)
        for sample in (1000, 2000, 3000):
            window.record(sample)
        registry.recorder("rtt", "Round trips").attach(window)
        text = to_prometheus_text(registry.snapshot())
        assert '# TYPE reqs counter' in text
        assert 'reqs{role="worker"} 7' in text
        assert '# TYPE depth gauge' in text
        assert 'depth 4' in text
        assert '# TYPE rtt summary' in text
        assert 'rtt{quantile="0.5"} 2' in text
        assert 'rtt_count 3' in text


class TestCallbacks:
    def test_callback_reads_live_owner_attribute(self):
        class Tier:
            def __init__(self):
                self.hits = 0

        registry = MetricsRegistry()
        tier = Tier()
        registry.counter("hits").set_function(lambda t: t.hits, tier)
        tier.hits = 42
        assert registry.snapshot()["counters"]["hits"]["values"][""] == 42.0

    def test_dead_owner_contribution_disappears(self):
        class Tier:
            def __init__(self):
                self.hits = 7

        registry = MetricsRegistry()
        tier = Tier()
        registry.counter("hits").set_function(lambda t: t.hits, tier)
        assert registry.snapshot()["counters"]["hits"]["values"][""] == 7.0
        del tier
        gc.collect()
        assert registry.snapshot()["counters"]["hits"]["values"][""] == 0.0

    def test_callbacks_sum_across_owners_plus_imperative(self):
        class Tier:
            def __init__(self, hits):
                self.hits = hits

        registry = MetricsRegistry()
        counter = registry.counter("hits")
        a, b = Tier(1), Tier(2)
        counter.set_function(lambda t: t.hits, a)
        counter.set_function(lambda t: t.hits, b)
        counter.inc(10)
        assert counter.value == 13.0


class TestLatencyRecorder:
    def test_merge_absorbs_other_window_without_double_count(self):
        a = LatencyRecorder(16)
        b = LatencyRecorder(16)
        for sample in (1000, 2000):
            a.record(sample)
        for sample in (3000, 4000):
            b.record(sample)
        a.merge(b)
        assert a.count == 4
        assert sorted(a.samples()) == [1000, 2000, 3000, 4000]

    def test_merged_percentiles_are_union_percentiles(self):
        a = LatencyRecorder(1024)
        b = LatencyRecorder(1024)
        for i in range(100):
            (a if i % 2 else b).record(i * 1000)
        a.merge(b)
        assert a.percentile(50.0) == pytest.approx(50.0, abs=2.0)

    def test_attach_surfaces_foreign_samples_in_registry(self):
        registry = MetricsRegistry()
        owned = LatencyRecorder(64)
        for sample in (1000, 2000, 3000):
            owned.record(sample)
        registry.recorder("lat").attach(owned)
        cell = registry.snapshot()["recorders"]["lat"]["values"][""]
        assert cell["count"] == 3
        assert sorted(cell["samples_us"]) == [1.0, 2.0, 3.0]

    def test_attached_recorder_not_pinned_alive(self):
        registry = MetricsRegistry()
        handle = registry.recorder("lat")
        owned = LatencyRecorder(64)
        owned.record(5000)
        handle.attach(owned)
        del owned
        gc.collect()
        cell = registry.snapshot()["recorders"]["lat"]["values"][""]
        assert cell["count"] == 0


def assert_flat_view(owner, label=""):
    """Every ``stats()`` key of ``owner`` is the registry snapshot value of
    its series, and every series of its table has its key."""
    snapshot = get_registry().snapshot()
    stats = owner.stats()
    for name, kind, _help, _read in type(owner).SERIES:
        short = name.split("_", 2)[2].removesuffix("_total")
        assert stats.pop(short) == snapshot[kind + "s"][name]["values"][label], \
            name
    assert not stats, f"stats() keys with no series: {sorted(stats)}"


class TestFlatStatsViews:
    """The three ``stats()`` that remain (engine, server, frontend) are
    ``read_series`` over the table ``publish`` registers; the frontend's is
    guarded over a live fleet in ``test_net_frontend.py``."""

    def test_read_series_drops_tier_prefix_and_total_suffix(self):
        class Tier:
            keys, parked = 5, 2

        table = (
            ("repro_serve_coalesced_keys_total", "counter", "",
             lambda t: t.keys),
            ("repro_serve_pending_keys", "gauge", "", lambda t: t.parked),
        )
        assert read_series(Tier(), table) == {"coalesced_keys": 5,
                                              "pending_keys": 2}

    def test_publish_reads_its_owner_weakly(self):
        class Tier:
            hits = 0

        name = "repro_test_published_hits_total"
        table = ((name, "counter", "Hits", lambda t: t.hits),)

        def published():
            return get_registry().snapshot()["counters"][name]["values"][""]

        tier = Tier()
        publish(tier, table)
        tier.hits = 4
        assert published() == 4
        del tier
        gc.collect()
        assert published() == 0

    def test_engine_stats_are_flat_reads_of_its_series(self, tmp_path):
        graph = random_weighted_graph(24, average_degree=5, max_weight=9,
                                      seed=3)
        oracle = build_oracle(graph, strategy="dense-apsp", epsilon=0.5)
        oracle.save_sharded(tmp_path / "mapped", num_shards=3)
        get_registry().reset()  # series sum every live engine: keep one
        engine = QueryEngine(load_artifact(tmp_path / "mapped"))
        engine.dist(0, 5)
        engine.dist(0, 5)
        engine.batch([(1, 2), (3, 20), (1, 2)])
        engine.k_nearest(4, 3)
        stats = engine.stats()
        assert stats["cache_hits"] >= 1 and stats["shard_faults"] >= 1
        assert_flat_view(engine, f'strategy="{engine.strategy}"')

    def test_server_stats_are_flat_reads_of_its_series(self, tmp_path):
        graph = random_weighted_graph(24, average_degree=5, max_weight=9,
                                      seed=3)
        engine = QueryEngine(build_oracle(graph, strategy="exact-fallback"))
        config = ServerConfig(coalesce_window=0.05, queue_capacity=3,
                              overload_policy="shed")
        get_registry().reset()  # series sum every live server: keep one

        async def drive():
            async with DistanceServer(engine, config) as server:
                results = await asyncio.gather(
                    *(server.dist(0, v) for v in range(1, 9)),
                    return_exceptions=True)
                with pytest.raises(ValueError):
                    await server.dist(0, 10_000)
                await server.gather([1, 2], [3, 4])
                return results, server

        results, server = asyncio.run(drive())
        shed = sum(isinstance(r, ServerOverloaded) for r in results)
        stats = server.stats()
        assert (stats["shed"], stats["errors"], stats["served"]) == (
            shed, 1, 8 - shed + 2)
        assert shed > 0
        assert_flat_view(server)
