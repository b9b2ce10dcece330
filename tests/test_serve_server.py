"""Tests for the async distance server: coalescing correctness under
concurrency, load shedding at queue capacity, budget routing through the
server, the flat stats view and one latency window, and graceful
shutdown."""

from __future__ import annotations

import asyncio
import dataclasses
import math

import pytest

from repro.graphs import random_weighted_graph
from repro.obs.metrics import get_registry
from repro.oracle import QueryEngine, build_oracle, load_artifact
from repro.serve import (
    ArtifactRegistry,
    DistanceServer,
    RoutingError,
    ServerClosed,
    ServerConfig,
    ServerOverloaded,
    StretchRouter,
)


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(30, average_degree=6, max_weight=10, seed=9)


@pytest.fixture(scope="module")
def artifact_dir(graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("served")
    build_oracle(graph, strategy="landmark-mssp",
                 epsilon=0.5).save_sharded(root / "cheap")
    build_oracle(graph, strategy="exact-fallback").save_sharded(root / "exact")
    return root


@pytest.fixture
def engine(artifact_dir):
    return QueryEngine(load_artifact(artifact_dir / "cheap"))


@pytest.fixture
def reference(artifact_dir):
    """A second, independent engine for expected answers."""
    return QueryEngine(load_artifact(artifact_dir / "cheap"))


def distinct_pairs(n: int, count: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert len(pairs) >= count
    return pairs[:count]


class TestCoalescing:
    def test_concurrent_queries_coalesce_and_match_serial(self, graph, engine,
                                                          reference):
        """N concurrent dist() calls produce at most ceil(N/max_batch)
        engine batches and exactly the serial answers."""
        pairs = distinct_pairs(graph.n, 40)
        config = ServerConfig(coalesce_window=0.05, max_batch=8)

        async def drive():
            async with DistanceServer(engine, config) as server:
                values = await asyncio.gather(
                    *(server.dist(u, v) for u, v in pairs))
                return values, server.stats()

        values, stats = asyncio.run(drive())
        expected = [reference.dist(u, v) for u, v in pairs]
        assert values == expected
        assert 1 <= stats["engine_batches"] <= math.ceil(len(pairs) / 8)
        assert stats["served"] == len(pairs)
        assert stats["shed"] == 0

    def test_duplicate_concurrent_queries_share_one_lookup(self, graph, engine):
        async def drive():
            async with DistanceServer(
                    engine, ServerConfig(coalesce_window=0.05)) as server:
                values = await asyncio.gather(
                    *(server.dist(3, 17) for _ in range(50)))
                return values, server.stats()

        values, stats = asyncio.run(drive())
        assert len(set(values)) == 1
        assert stats["engine_batches"] == 1
        assert stats["coalesced_keys"] == 1  # 50 requests, one key
        assert engine.stats()["queries"] == 1

    def test_window_zero_disables_coalescing(self, graph, engine, reference):
        pairs = distinct_pairs(graph.n, 10)

        async def drive():
            async with DistanceServer(
                    engine, ServerConfig(coalesce_window=0.0)) as server:
                values = await asyncio.gather(
                    *(server.dist(u, v) for u, v in pairs))
                return values, server.stats()

        values, stats = asyncio.run(drive())
        assert values == [reference.dist(u, v) for u, v in pairs]
        assert stats["engine_batches"] == len(pairs)

    def test_self_pairs_answer_without_engine_work(self, engine):
        async def drive():
            async with DistanceServer(engine) as server:
                value = await server.dist(7, 7)
                return value, server.stats()

        value, stats = asyncio.run(drive())
        assert value == 0.0
        assert stats["engine_batches"] == 0

    def test_out_of_range_rejected_before_enqueue(self, engine):
        async def drive():
            async with DistanceServer(engine) as server:
                with pytest.raises(ValueError, match="out of range"):
                    await server.dist(0, 10_000)
                return server.stats()

        stats = asyncio.run(drive())
        assert stats["errors"] == 1
        assert stats["pending_keys"] == 0


class TestBackpressure:
    def test_load_shed_at_queue_capacity(self, graph, engine):
        pairs = distinct_pairs(graph.n, 10)
        config = ServerConfig(coalesce_window=0.05, queue_capacity=4,
                              overload_policy="shed")

        async def drive():
            async with DistanceServer(engine, config) as server:
                results = await asyncio.gather(
                    *(server.dist(u, v) for u, v in pairs),
                    return_exceptions=True)
                return results, server.stats()

        results, stats = asyncio.run(drive())
        shed = [r for r in results if isinstance(r, ServerOverloaded)]
        served = [r for r in results if isinstance(r, float)]
        # All 10 requests arrive within one coalescing window: exactly
        # queue_capacity are admitted, the rest shed immediately.
        assert len(served) == 4
        assert len(shed) == 6
        assert stats["shed"] == 6
        assert stats["served"] == 4

    def test_wait_policy_parks_instead_of_shedding(self, graph, engine,
                                                   reference):
        pairs = distinct_pairs(graph.n, 10)
        config = ServerConfig(coalesce_window=0.005, queue_capacity=3,
                              overload_policy="wait")

        async def drive():
            async with DistanceServer(engine, config) as server:
                values = await asyncio.gather(
                    *(server.dist(u, v) for u, v in pairs))
                return values, server.stats()

        values, stats = asyncio.run(drive())
        assert values == [reference.dist(u, v) for u, v in pairs]
        assert stats["shed"] == 0
        assert stats["served"] == len(pairs)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            ServerConfig(max_batch=0)
        with pytest.raises(ValueError, match="overload_policy"):
            ServerConfig(overload_policy="panic")
        with pytest.raises(ValueError, match="coalesce_window"):
            ServerConfig(coalesce_window=-1)
        with pytest.raises(ValueError, match="queue_capacity"):
            ServerConfig(queue_capacity=0)


class TestRoutingThroughServer:
    def test_budgeted_queries_hit_the_right_artifact(self, artifact_dir,
                                                     graph):
        registry = ArtifactRegistry()
        registry.discover(artifact_dir)
        router = StretchRouter(registry)
        exact = QueryEngine(load_artifact(artifact_dir / "exact"))
        pairs = distinct_pairs(graph.n, 12)

        async def drive():
            async with DistanceServer(router) as server:
                loose = await asyncio.gather(*(server.dist(u, v) for u, v in pairs))
                tight = await asyncio.gather(
                    *(server.dist(u, v, multiplicative=1.0) for u, v in pairs))
                return loose, tight

        loose, tight = asyncio.run(drive())
        assert tight == [exact.dist(u, v) for u, v in pairs]
        assert all(t <= approx + 1e-9 for approx, t in zip(loose, tight))
        assert router.routes == {"cheap": len(pairs), "exact": len(pairs)}

    def test_unsatisfiable_budget_raises(self, engine):
        async def drive():
            async with DistanceServer(engine) as server:
                with pytest.raises(RoutingError):
                    await server.dist(0, 1, multiplicative=1.0)
                return server.stats()

        stats = asyncio.run(drive())
        assert stats["errors"] == 1


class TestLatencyAndShutdown:
    def test_one_latency_window_counts_every_answered_pair(self, graph,
                                                           engine):
        async def drive():
            async with DistanceServer(engine) as server:
                await asyncio.gather(*(server.dist(u, v) for u, v
                                       in distinct_pairs(graph.n, 6)))
                await server.gather([0, 1, 2], [3, 4, 5])
                return server

        server = asyncio.run(drive())
        assert server.stats()["requests"] == server.stats()["served"] == 9
        assert server.latency.count == 9

    def test_latency_window_is_the_published_recorder(self, graph, engine):
        """``repro_serve_latency_us`` is the server's one window, attached:
        /metricsz sees every sample ``server.latency`` holds."""
        get_registry().reset()  # recorders merge every live server: keep one

        async def drive():
            async with DistanceServer(engine) as server:
                await asyncio.gather(*(server.dist(u, v) for u, v
                                       in distinct_pairs(graph.n, 5)))
                await server.gather([0, 1], [2, 3])
                return server

        server = asyncio.run(drive())
        cell = get_registry().snapshot()["recorders"][
            "repro_serve_latency_us"]["values"][""]
        assert cell["count"] == server.latency.count == 7
        assert sorted(cell["samples_us"]) == sorted(
            round(sample / 1000.0, 3) for sample in server.latency.samples())

    def test_graceful_shutdown_drains_pending(self, graph, engine, reference):
        pairs = distinct_pairs(graph.n, 8)

        async def drive():
            server = DistanceServer(
                engine, ServerConfig(coalesce_window=5.0))
            await server.start()
            # A batch just left, so the next one is five seconds away.
            await server.dist(0, graph.n - 1)
            tasks = [asyncio.ensure_future(server.dist(u, v))
                     for u, v in pairs]
            await asyncio.sleep(0)  # let every request enqueue
            await server.stop()  # must flush, not wait out the window
            return [await task for task in tasks], server

        values, server = asyncio.run(drive())
        assert values == [reference.dist(u, v) for u, v in pairs]
        assert server.closed

    def test_requests_after_stop_are_rejected(self, engine):
        async def drive():
            server = await DistanceServer(engine).start()
            await server.stop()
            with pytest.raises(ServerClosed):
                await server.dist(0, 1)

        asyncio.run(drive())

    def test_stop_is_idempotent(self, engine):
        async def drive():
            async with DistanceServer(engine) as server:
                await server.dist(0, 1)
            await server.stop()

        asyncio.run(drive())


async def turns(count=10):
    """Let every task that can run, run: ``count`` turns of the loop."""
    for _ in range(count):
        await asyncio.sleep(0)


class TestCoalescingWindow:
    """The window is a fixed number of seconds (0 = off) and the minimum
    spacing between two engine batches, not a delay every query pays.
    Loop turns, never a stopwatch: the
    five-second window here must not be waited out."""

    def test_lone_query_is_not_held_for_the_window(self, engine, reference):
        async def scenario():
            config = ServerConfig(coalesce_window=5.0)
            async with DistanceServer(engine, config) as server:
                lone = asyncio.ensure_future(server.dist(0, 1))
                await turns()
                assert lone.done()
                return lone.result(), server.stats()

        value, stats = asyncio.run(scenario())
        assert value == reference.dist(0, 1)
        assert stats["engine_batches"] == 1

    def test_concurrent_queries_are_still_one_batch_and_a_trickle_one_per_window(
            self, graph, engine, reference):
        pairs = distinct_pairs(graph.n, 40)

        async def scenario():
            config = ServerConfig(coalesce_window=5.0)
            async with DistanceServer(engine, config) as server:
                burst = [asyncio.ensure_future(server.dist(u, v))
                         for u, v in pairs]
                await turns()
                assert all(task.done() for task in burst)
                assert server.stats()["engine_batches"] == 1
                # Inside the window of that batch, queries wait for it to
                # pass (here: for stop() to flush) and leave together.
                trickle = []
                for u, v in pairs[:3]:
                    trickle.append(asyncio.ensure_future(server.dist(u, v)))
                    await turns()
                assert not any(task.done() for task in trickle)
                assert server.stats()["engine_batches"] == 1
            return ([task.result() for task in burst + trickle],
                    server.stats())

        values, stats = asyncio.run(scenario())
        assert values == [reference.dist(u, v) for u, v in pairs + pairs[:3]]
        assert stats["engine_batches"] == 2

    def test_fixed_window_unchanged_by_default(self, graph, engine):
        """A default server coalesces over ServerConfig's window, and
        traffic does not move it: nothing adapts the window."""
        async def scenario():
            async with DistanceServer(engine) as server:
                await asyncio.gather(*(server.dist(u, v) for u, v
                                       in distinct_pairs(graph.n, 20)))
                return server

        server = asyncio.run(scenario())
        assert server.config.coalesce_window == ServerConfig().coalesce_window
        assert server._coalescer.window == ServerConfig().coalesce_window > 0

    def test_auto_config_validation(self):
        """``"auto"`` is no longer a window, and its knobs are no fields."""
        with pytest.raises(TypeError):
            ServerConfig(coalesce_window="auto")
        with pytest.raises(TypeError, match="window_min"):
            ServerConfig(window_min=0.01)
        assert [field.name for field in dataclasses.fields(ServerConfig)] == [
            "coalesce_window", "max_batch", "queue_capacity",
            "overload_policy"]

