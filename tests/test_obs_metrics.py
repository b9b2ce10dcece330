"""Metrics-registry tests: bucket edge semantics, thread-safe increments,
snapshot merge associativity, Prometheus rendering, the disabled no-op
path, and the weakref callback lifecycle behind the zero-cost migration
of existing tier stats."""

from __future__ import annotations

import gc
import threading

import pytest

from repro.obs.export import to_prometheus_text
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    LatencyRecorder,
    MetricsRegistry,
    merge_snapshots,
)


class TestHistogramBuckets:
    def test_le_semantics_value_on_edge_lands_in_that_bucket(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("h", buckets=(10.0, 100.0, 1000.0))
        hist.observe(10.0)   # == first edge -> first bucket (le is <=)
        hist.observe(10.1)   # just past it -> second bucket
        hist.observe(1000.0)  # == last edge -> last finite bucket
        hist.observe(1000.1)  # beyond -> +Inf overflow slot
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4

    def test_non_increasing_buckets_rejected(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(10.0, 10.0, 20.0))
        with pytest.raises(ValueError):
            registry.histogram("bad2", buckets=(20.0, 10.0))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())

    def test_observe_many_batches_one_lock_acquisition(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("h", buckets=(10.0,))
        hist.observe_many(5.0, 1000)
        assert hist.counts == [1000, 0]
        assert hist.sum == pytest.approx(5000.0)

    def test_default_buckets_are_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS_US) == sorted(
            set(DEFAULT_LATENCY_BUCKETS_US))


class TestConcurrency:
    def test_concurrent_counter_increments_lose_nothing(self):
        registry = MetricsRegistry(enabled=True)
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

    def test_concurrent_histogram_observations_lose_nothing(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("h", buckets=(100.0,))
        per_thread, threads = 5_000, 8

        def worker():
            for _ in range(per_thread):
                hist.observe(50.0)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert hist.count == per_thread * threads
        assert hist.counts[0] == per_thread * threads


class TestSnapshotsAndMerging:
    def make_registry(self, scale: int) -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("requests", labels={"role": "worker"}).inc(10 * scale)
        registry.gauge("depth").set(3 * scale)
        hist = registry.histogram("lat", buckets=(10.0, 100.0))
        hist.observe_many(5.0, scale)
        hist.observe_many(50.0, 2 * scale)
        registry.recorder("rec").record_many(1000, scale)
        return registry

    def test_merge_is_associative(self):
        a, b, c = (self.make_registry(s).snapshot() for s in (1, 2, 3))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right
        total = left["counters"]["requests"]["values"]['role="worker"']
        assert total == 10 * (1 + 2 + 3)
        cell = left["histograms"]["lat"]["values"][""]
        assert cell["counts"] == [6, 12, 0]
        assert left["recorders"]["rec"]["values"][""]["count"] == 6

    def test_merge_rejects_mismatched_histogram_buckets(self):
        a = MetricsRegistry(enabled=True)
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        b = MetricsRegistry(enabled=True)
        b.histogram("h", buckets=(1.0, 3.0)).observe(1.0)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_label_children_are_distinct_series(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("k", labels={"kernel": "csr"}).inc(2)
        registry.counter("k", labels={"kernel": "blocked"}).inc(5)
        values = registry.snapshot()["counters"]["k"]["values"]
        assert values == {'kernel="csr"': 2.0, 'kernel="blocked"': 5.0}


class TestPrometheusRendering:
    def test_counters_histograms_and_summaries_render(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("reqs", "Total requests",
                         labels={"role": "worker"}).inc(7)
        hist = registry.histogram("lat", "Latency", buckets=(10.0, 100.0))
        hist.observe(5.0)
        hist.observe(50.0)
        hist.observe(500.0)
        rec = registry.recorder("rtt", "Round trips")
        for sample in (1000, 2000, 3000):
            rec.record(sample)
        text = to_prometheus_text(registry.snapshot())
        assert '# TYPE reqs counter' in text
        assert 'reqs{role="worker"} 7' in text
        # Cumulative le buckets + the +Inf catch-all.
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="100"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert 'lat_count 3' in text
        assert '# TYPE rtt summary' in text
        assert 'rtt{quantile="0.5"} 2' in text
        assert 'rtt_count 3' in text


class TestDisabledRegistry:
    def test_mutations_are_no_ops_when_disabled(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(100)
        gauge = registry.gauge("g")
        gauge.set(5)
        hist = registry.histogram("h", buckets=(10.0,))
        hist.observe(1.0)
        rec = registry.recorder("r")
        rec.record(1000)
        assert counter.value == 0
        assert gauge.value == 0
        assert hist.count == 0
        assert rec.recorder.count == 0

    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        assert MetricsRegistry().enabled is False
        monkeypatch.setenv("REPRO_METRICS", "on")
        assert MetricsRegistry().enabled is True


class TestCallbacks:
    def test_callback_reads_live_owner_attribute(self):
        class Tier:
            def __init__(self):
                self.hits = 0

        registry = MetricsRegistry(enabled=True)
        tier = Tier()
        registry.counter("hits").set_function(lambda t: t.hits, tier)
        tier.hits = 42
        assert registry.snapshot()["counters"]["hits"]["values"][""] == 42.0

    def test_dead_owner_contribution_disappears(self):
        class Tier:
            def __init__(self):
                self.hits = 7

        registry = MetricsRegistry(enabled=True)
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

        registry = MetricsRegistry(enabled=True)
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
        registry = MetricsRegistry(enabled=True)
        owned = LatencyRecorder(64)
        for sample in (1000, 2000, 3000):
            owned.record(sample)
        handle = registry.recorder("lat")
        handle.attach(owned)
        cell = registry.snapshot()["recorders"]["lat"]["values"][""]
        assert cell["count"] == 3
        assert sorted(cell["samples_us"]) == [1.0, 2.0, 3.0]

    def test_attached_recorder_not_pinned_alive(self):
        registry = MetricsRegistry(enabled=True)
        handle = registry.recorder("lat")
        owned = LatencyRecorder(64)
        owned.record(5000)
        handle.attach(owned)
        del owned
        gc.collect()
        cell = registry.snapshot()["recorders"]["lat"]["values"][""]
        assert cell["count"] == 0
