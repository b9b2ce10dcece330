"""Tests for the PR-9 hardening mechanisms in isolation.

The chaos benchmark proves the fleet survives combined fault storms;
these tests pin each mechanism's contract on its own: the circuit
breaker's three-state machine (consecutive and rate trips, half-open
probing, geometric cooldown), server-side deadline enforcement, shard
quarantine/condemnation semantics, the screened gather that never lets
a wrong answer escape, and the cluster supervisor's respawn loop.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro.chaos.disk import corrupt_shard_file, restore_shard_file
from repro.graphs import random_weighted_graph
from repro.net.bench import synthetic_sharded_artifact
from repro.net.frontend import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.oracle import QueryEngine, build_oracle
from repro.oracle.sharding import (
    ShardIntegrityError,
    load_artifact,
    shard_manifest_path,
)
from repro.serve import DeadlineExceeded, DistanceServer, ServerConfig


class TestCircuitBreaker:
    def test_starts_closed_and_allows_traffic(self):
        breaker = CircuitBreaker()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()
        assert breaker.opens == 0

    def test_consecutive_failures_open_the_circuit(self):
        breaker = CircuitBreaker(consecutive_after=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.allow()
        assert breaker.record_failure()  # third strike
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(consecutive_after=3)
        for _ in range(4):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_failure_rate_opens_without_a_streak(self):
        # consecutive_after is out of reach, so only the windowed rate
        # can trip; failures are interleaved with successes to prove no
        # streak forms.
        breaker = CircuitBreaker(consecutive_after=100, rate_threshold=0.5,
                                 window=20, rate_min_samples=10)
        for _ in range(5):
            breaker.record_success()
            assert not breaker.record_failure()
        # 5/10 = 0.5 is not *above* the threshold; one more failure is.
        assert breaker.record_failure()
        assert breaker.state == BREAKER_OPEN

    def test_rate_needs_minimum_samples(self):
        breaker = CircuitBreaker(consecutive_after=100, rate_threshold=0.5,
                                 rate_min_samples=10)
        for _ in range(9):  # 100% failures, but below the sample floor
            assert not breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_rate_counts_only_the_last_window_outcomes(self):
        # Three early failures (below the sample floor) slide out of a
        # window of four: over the whole history 5/9 failed and would
        # trip, over the window 2/4 does not.
        breaker = CircuitBreaker(consecutive_after=100, rate_threshold=0.5,
                                 window=4, rate_min_samples=4)
        for _ in range(3):
            assert not breaker.record_failure()
        for _ in range(4):
            breaker.record_success()
        assert not breaker.record_failure()  # 1/4
        assert not breaker.record_failure()  # 2/4, not above
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record_failure()  # 3/4
        assert breaker.state == BREAKER_OPEN

    def test_probe_cycle_success_recloses(self):
        breaker = CircuitBreaker(consecutive_after=1, cooldown=0.05)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.ready_to_probe()  # cooldown not yet elapsed
        time.sleep(0.06)
        assert breaker.ready_to_probe()
        breaker.begin_probe()
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # half-open admits only the probe
        assert not breaker.ready_to_probe()  # single-probe slot is taken
        assert breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_failed_probe_doubles_cooldown_up_to_cap(self):
        breaker = CircuitBreaker(consecutive_after=1, cooldown=0.05,
                                 max_cooldown=0.15)
        breaker.record_failure()
        for expected in (0.10, 0.15, 0.15):  # doubles, then caps
            time.sleep(breaker._next_cooldown + 0.02)
            assert breaker.ready_to_probe()
            breaker.begin_probe()
            breaker.record_failure()
            assert breaker.state == BREAKER_OPEN
            assert breaker._next_cooldown == pytest.approx(expected)
        # A later success resets the backoff to the base cooldown.
        breaker.force_close()
        assert breaker._next_cooldown == pytest.approx(0.05)

    def test_force_open_and_close(self):
        breaker = CircuitBreaker()
        breaker.force_open()
        assert not breaker.allow()
        assert breaker.opens == 1
        breaker.force_close()
        assert breaker.allow()


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(30, average_degree=6, max_weight=10, seed=13)


@pytest.fixture(scope="module")
def engine(graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("robust-mono")
    build_oracle(graph, strategy="exact-fallback").save_sharded(root / "exact")
    return QueryEngine(load_artifact(root / "exact"))


class TestServerDeadlines:
    def test_expired_deadline_rejected_at_admission(self, engine):
        async def drive():
            async with DistanceServer(engine, ServerConfig()) as server:
                with pytest.raises(DeadlineExceeded, match="at admission"):
                    await server.gather([1, 2], [3, 4],
                                        deadline=time.monotonic() - 0.001)
                # The server is unharmed: the next undeadlined gather works.
                values = await server.gather([1], [2])
                return server.stats(), values

        stats, values = asyncio.run(drive())
        assert stats["deadline_rejections"] == 1
        assert values.shape == (1,)

    def test_generous_deadline_is_a_noop(self, engine):
        async def drive():
            async with DistanceServer(engine, ServerConfig()) as server:
                values = await server.gather(
                    [1, 2, 3], [4, 5, 6], deadline=time.monotonic() + 60.0)
                return server.stats(), values

        stats, values = asyncio.run(drive())
        assert stats["deadline_rejections"] == 0
        assert values.shape == (3,)
        assert np.all(values >= 0)


@pytest.fixture
def sharded(tmp_path):
    """A fresh sharded artifact per test — these tests rot its bytes."""
    manifest = synthetic_sharded_artifact(tmp_path, n=64, num_shards=4,
                                          seed=21)
    return shard_manifest_path(manifest)


class TestQuarantine:
    def test_quarantine_reverifies_and_remaps_a_sound_file(self, sharded):
        artifact = load_artifact(sharded, verify="none")
        before = artifact.open_shard(1)
        artifact.quarantine(1)
        assert artifact.quarantines == 1
        after = artifact.open_shard(1)  # checksum re-streamed, fresh mmap
        assert after is not before
        for name in before:
            assert np.array_equal(before[name], after[name])

    def test_corrupt_shard_is_condemned_with_typed_error(self, sharded):
        artifact = load_artifact(sharded, verify="none")
        shard_path = artifact.shard_file(1)
        try:
            corrupt_shard_file(shard_path, seed=1, flips=64)
            artifact.quarantine(1)
            with pytest.raises(ShardIntegrityError, match="checksum"):
                artifact.open_shard(1)
            # Condemned: repeat opens fail fast inside the recheck window,
            # even after the file itself has been repaired.
            restore_shard_file(shard_path)
            with pytest.raises(ShardIntegrityError, match="condemned"):
                artifact.open_shard(1)
            # Once the recheck window lapses the repaired file recovers.
            artifact.condemned_recheck = 0.0
            assert artifact.open_shard(1)
        finally:
            restore_shard_file(shard_path)

    def test_screened_gather_heals_transient_rot(self, engine, monkeypatch):
        """One implausible gather triggers quarantine + retry; the retry's
        clean answers are served, no error escapes, and the frame counts
        its pairs once in ``repro_engine_queries_total`` whichever attempt
        answered it."""
        real = engine.regather
        calls = {"n": 0}

        def rotten_once(lo, hi):
            calls["n"] += 1
            values = real(lo, hi)
            if calls["n"] == 1:
                values = values.copy()
                values[0] = np.nan
            return values

        monkeypatch.setattr(engine, "regather", rotten_once)
        monkeypatch.setattr(engine, "quarantine_rows", lambda rows: [0])
        counted = engine.stats()["queries"]

        async def drive():
            async with DistanceServer(engine, ServerConfig()) as server:
                values = await server.gather([1, 2], [3, 4])
                return server.stats(), values

        stats, values = asyncio.run(drive())
        assert calls["n"] == 2  # the screened retry
        assert stats["quarantines"] == 1
        assert np.all(values >= 0)
        assert engine.stats()["queries"] == counted + 2
        assert stats["coalesced_keys"] == 2

    def test_screened_gather_condemns_persistent_rot(self, tmp_path):
        """Bytes rot under a live mmap: the screen catches the NaNs, the
        forced re-verify fails against the rotten file, and the request
        dies with a typed error — never a wrong answer."""
        manifest = synthetic_sharded_artifact(tmp_path, n=128, num_shards=4,
                                              seed=23)
        artifact = load_artifact(shard_manifest_path(manifest),
                                 verify="none")
        engine = QueryEngine(artifact)
        start, stop = artifact.row_ranges[1]
        # Disjoint pairs: the warmup gather maps the shard, the post-rot
        # gather must miss the answer cache and read the rotten map.
        warm_lo = [start, start + 1]
        warm_hi = [artifact.n - 1] * len(warm_lo)
        lo = list(range(start + 2, stop))
        hi = [artifact.n - 1] * len(lo)
        shard_path = artifact.shard_file(1)
        # Flip every byte between the zip guard regions so the gather is
        # guaranteed to read rotten float64s regardless of row layout.
        flips = shard_path.stat().st_size - 2 * 4096 - 1
        assert flips > 0

        async def drive():
            async with DistanceServer(engine, ServerConfig()) as server:
                first = await server.gather(warm_lo, warm_hi)  # maps shard 1
                assert np.all(first >= 0)
                corrupt_shard_file(shard_path, seed=3, flips=flips)
                with pytest.raises(ShardIntegrityError):
                    await server.gather(lo, hi)
                return server.stats()

        try:
            stats = asyncio.run(drive())
        finally:
            restore_shard_file(shard_path)
        assert stats["quarantines"] == 1

    @pytest.mark.parametrize("window", [0.001, 0])
    def test_screened_dist_heals_transient_rot(self, engine, monkeypatch,
                                               window):
        """The point-query door goes through the same screen as gather():
        a NaN from the engine is quarantined and re-gathered, coalesced
        or not, and the caller gets the healed answer."""
        real = engine.regather
        calls = {"n": 0}

        def rotten_once(lo, hi):
            calls["n"] += 1
            values = real(lo, hi)
            if calls["n"] == 1:
                values = values.copy()
                values[0] = np.nan
            return values

        expected = engine.dist(1, 3)
        monkeypatch.setattr(engine, "regather", rotten_once)
        monkeypatch.setattr(engine, "quarantine_rows", lambda rows: [0])

        async def drive():
            config = ServerConfig(coalesce_window=window)
            async with DistanceServer(engine, config) as server:
                return await server.dist(1, 3), server.stats()

        value, stats = asyncio.run(drive())
        assert value == expected
        assert calls["n"] == 2  # the screened retry
        assert stats["quarantines"] == 1
        assert stats["engine_batches"] == 1

    @pytest.mark.parametrize("window", [0.001, 0])
    def test_screened_dist_condemns_persistent_rot(self, engine, monkeypatch,
                                                   window):
        """Rot that survives the re-gather: every coalesced caller of the
        frame gets the typed error, none a NaN."""
        monkeypatch.setattr(
            engine, "regather",
            lambda lo, hi: np.full(len(lo), np.nan))
        monkeypatch.setattr(engine, "quarantine_rows", lambda rows: [0])

        async def drive():
            config = ServerConfig(coalesce_window=window)
            async with DistanceServer(engine, config) as server:
                results = await asyncio.gather(
                    *(server.dist(1, v) for v in (3, 4, 5, 3)),
                    return_exceptions=True)
                return results, server.stats()

        results, stats = asyncio.run(drive())
        assert all(isinstance(result, ShardIntegrityError)
                   for result in results), results
        assert stats["errors"] == 4 and stats["served"] == 0
        assert stats["quarantines"] >= 1


class _FakeProcess:
    """Stands in for a spawned worker: alive until killed."""

    pid = 4242
    exitcode = None

    def __init__(self):
        self.alive = True

    def start(self):
        pass

    def is_alive(self):
        return self.alive

    def kill(self):
        self.alive = False

    terminate = kill

    def join(self, timeout=None):
        pass


class _FakeContext:
    def __init__(self):
        self.spawned = []

    def Process(self, **_kwargs):
        self.spawned.append(_FakeProcess())
        return self.spawned[-1]


class _SteppedCluster:
    """A one-worker :class:`Cluster` on a fake clock, probe and processes,
    so the supervisor's decisions can be stepped one probe at a time."""

    def __init__(self, **kwargs):
        from repro.net.cluster import Cluster

        self.now = 1000.0
        self.status = None          # what /healthz answers (None = refused)
        self.context = _FakeContext()
        self.cluster = Cluster(["unused.npz"], num_workers=1, **kwargs)
        self.cluster._context = self.context
        self.cluster._clock = lambda: self.now
        self.cluster._probe = lambda host, port, path: self.status

    def probe(self, times=1, step=0.25):
        for _ in range(times):
            self.now += step
            self.cluster._check_worker(0)


class TestSupervisor:
    def test_starting_worker_is_not_counted_as_stuck(self):
        fleet = _SteppedCluster(stuck_after=3, start_timeout=60.0,
                                respawn_backoff=0.1)
        cluster = fleet.cluster
        cluster._spawn(0)
        # Still importing numpy: refuses /healthz for far more probes
        # than stuck_after, but has not answered a first 200 yet.
        fleet.probe(times=50)
        assert cluster.stuck_kills == 0 and cluster.respawns == 0
        assert fleet.context.spawned[0].is_alive()

        fleet.status = 200          # first 200 since spawn ends the grace
        fleet.probe()
        fleet.status = None         # ... so silence now means stuck
        fleet.probe(times=2)
        assert cluster.stuck_kills == 0
        fleet.probe()
        assert cluster.stuck_kills == 1 and cluster.respawns == 1
        assert not fleet.context.spawned[0].is_alive()

        # The replacement gets a grace of its own.
        assert len(fleet.context.spawned) == 2
        fleet.probe(times=50)
        assert cluster.stuck_kills == 1 and cluster.respawns == 1
        assert fleet.context.spawned[1].is_alive()

    def test_startup_grace_is_bounded_by_start_timeout(self):
        fleet = _SteppedCluster(stuck_after=3, start_timeout=5.0,
                                respawn_backoff=0.1)
        cluster = fleet.cluster
        cluster._spawn(0)
        fleet.probe(times=19)       # 4.75 s of silence: inside the grace
        assert cluster.stuck_kills == 0
        fleet.probe(times=2)        # past start_timeout: failures count
        assert cluster.stuck_kills == 0
        fleet.probe()
        assert cluster.stuck_kills == 1 and cluster.respawns == 1

    def test_wait_healthy_waits_through_a_respawn(self):
        from repro.net.cluster import NetError

        fleet = _SteppedCluster(start_timeout=30.0)
        cluster = fleet.cluster
        naps = []

        def sleep(seconds):
            # While wait_healthy naps the supervisor respawns the slot
            # and, three naps later, the replacement comes up.
            naps.append(seconds)
            fleet.now += seconds
            if len(naps) == 2:
                cluster._spawn(0)
            if len(naps) == 5:
                fleet.status = 200

        cluster._sleep = sleep
        cluster._supervising = lambda: True
        assert cluster._processes[0] is None    # killed, not yet respawned
        cluster.wait_healthy(timeout=10.0)
        assert len(naps) == 5
        assert cluster.worker_status()[0]["last_healthz"] == 200

        # Without a supervisor nobody will refill the slot: fail at once.
        cluster._supervising = lambda: False
        cluster._processes[0] = None
        with pytest.raises(NetError, match="exited during startup"):
            cluster.wait_healthy(timeout=10.0)

        # With one, the wait is still bounded by its timeout.
        cluster._supervising = lambda: True
        with pytest.raises(NetError, match="not healthy within"):
            cluster.wait_healthy(timeout=1.0)

    def test_supervisor_respawns_a_killed_worker(self, tmp_path):
        from repro.net.cluster import Cluster

        manifest = synthetic_sharded_artifact(tmp_path, n=48, num_shards=3,
                                              seed=17)
        cluster = Cluster([str(manifest)], num_workers=2, supervise=True,
                          supervise_interval=0.1, respawn_backoff=0.1)
        try:
            cluster.start()
            cluster.wait_healthy(timeout=60.0)
            victim = cluster.worker_status()[1]
            os.kill(victim["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if cluster.respawns >= 1 and cluster.alive()[1]:
                    break
                time.sleep(0.1)
            assert cluster.respawns >= 1
            assert cluster.alive()[1]
            cluster.wait_healthy(timeout=60.0)  # replacement serves /healthz
            status = cluster.worker_status()[1]
            assert status["pid"] != victim["pid"]
            assert cluster.describe()["respawns"] >= 1
        finally:
            cluster.stop()
