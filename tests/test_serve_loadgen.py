"""Tests for the load generator: Zipf sampling, closed- and open-loop
reports, shed accounting, and answer verification."""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.graphs import random_weighted_graph
from repro.oracle import QueryEngine, build_oracle, load_artifact
from repro.serve import (
    DistanceServer,
    ServerConfig,
    count_mismatches,
    run_closed_loop,
    run_open_loop,
    zipf_pairs,
)


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(30, average_degree=6, max_weight=10, seed=9)


@pytest.fixture(scope="module")
def artifact_path(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("loadgen") / "oracle.npz"
    build_oracle(graph, strategy="landmark-mssp",
                 epsilon=0.5).save_sharded(path)
    return path


@pytest.fixture
def engine(artifact_path):
    return QueryEngine(load_artifact(artifact_path))


@pytest.fixture
def reference(artifact_path):
    return QueryEngine(load_artifact(artifact_path))


class TestZipfPairs:
    def test_deterministic_and_in_range(self):
        first = zipf_pairs(50, 200, skew=1.0, seed=3)
        second = zipf_pairs(50, 200, skew=1.0, seed=3)
        assert first == second
        assert len(first) == 200
        assert all(0 <= u < 50 and 0 <= v < 50 for u, v in first)
        assert zipf_pairs(50, 200, seed=4) != first

    def test_skew_concentrates_traffic(self):
        pairs = zipf_pairs(50, 4000, skew=1.5, seed=0)
        endpoints = Counter(u for u, _ in pairs) + Counter(v for _, v in pairs)
        hottest = endpoints.most_common(1)[0][1]
        # Uniform sampling would give ~160 per node; Zipf(1.5) gives the
        # hottest node a large multiple of that.
        assert hottest > 3 * (2 * 4000) / 50

    def test_validation(self):
        with pytest.raises(ValueError, match="node"):
            zipf_pairs(0, 10)
        with pytest.raises(ValueError, match="count"):
            zipf_pairs(10, -1)
        with pytest.raises(ValueError, match="skew"):
            zipf_pairs(10, 5, skew=-0.5)


class TestClosedLoop:
    def test_report_and_answers(self, graph, engine, reference):
        pairs = zipf_pairs(graph.n, 300, skew=1.0, seed=7)

        async def drive():
            async with DistanceServer(
                    engine, ServerConfig(coalesce_window=0.002)) as server:
                return await run_closed_loop(server, pairs, concurrency=32)

        report = asyncio.run(drive())
        assert report.mode == "closed"
        assert report.requested == 300
        assert report.completed == 300
        assert report.shed == 0 and report.errors == 0
        assert report.success_rate == 1.0
        assert report.achieved_qps > 0
        assert report.latency["count"] == 300
        assert all(answer is not None for answer in report.answers)
        assert count_mismatches(pairs, report.answers, reference) == 0
        as_dict = report.as_dict()
        assert as_dict["success_rate"] == 1.0
        assert "answers" not in as_dict
        assert "achieved qps" in report.summary()

    def test_shed_requests_are_counted_not_answered(self, graph, engine):
        pairs = zipf_pairs(graph.n, 60, skew=0.0, seed=2)
        config = ServerConfig(coalesce_window=0.02, queue_capacity=2,
                              overload_policy="shed")

        async def drive():
            async with DistanceServer(engine, config) as server:
                return await run_closed_loop(server, pairs, concurrency=16)

        report = asyncio.run(drive())
        assert report.shed > 0
        assert report.completed + report.shed + report.errors == 60
        assert report.answers.count(None) == report.shed + report.errors
        assert report.success_rate < 1.0

    def test_concurrency_validation(self, engine):
        async def drive():
            async with DistanceServer(engine) as server:
                with pytest.raises(ValueError, match="concurrency"):
                    await run_closed_loop(server, [(0, 1)], concurrency=0)

        asyncio.run(drive())


class TestOpenLoop:
    def test_target_qps_paces_arrivals(self, graph, engine, reference):
        pairs = zipf_pairs(graph.n, 120, skew=1.0, seed=5)

        async def drive():
            async with DistanceServer(
                    engine, ServerConfig(coalesce_window=0.002)) as server:
                return await run_open_loop(server, pairs, qps=4000.0)

        report = asyncio.run(drive())
        assert report.mode == "open"
        assert report.offered_qps == 4000.0
        assert report.completed == 120
        # 120 arrivals at 4k qps take at least ~30ms by construction.
        assert report.duration_s >= 119 / 4000.0
        assert count_mismatches(pairs, report.answers, reference) == 0

    def test_qps_validation(self, engine):
        async def drive():
            async with DistanceServer(engine) as server:
                with pytest.raises(ValueError, match="qps"):
                    await run_open_loop(server, [(0, 1)], qps=0)

        asyncio.run(drive())


class TestVerification:
    def test_count_mismatches_flags_corruption(self, graph, engine, reference):
        pairs = zipf_pairs(graph.n, 50, seed=11)

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_closed_loop(server, pairs, concurrency=8)

        report = asyncio.run(drive())
        assert count_mismatches(pairs, report.answers, reference) == 0
        corrupted = list(report.answers)
        corrupted[7] += 1.0
        assert count_mismatches(pairs, corrupted, reference) == 1

    def test_none_answers_are_skipped(self, reference):
        assert count_mismatches([(0, 1), (2, 3)], [None, None], reference) == 0


class TestRawSamples:
    def test_closed_loop_collects_per_request_samples(self, graph, engine):
        pairs = zipf_pairs(graph.n, 120, seed=3)

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_closed_loop(server, pairs, concurrency=8,
                                             client="lg",
                                             collect_samples=True)

        report = asyncio.run(drive())
        assert len(report.samples) == 120
        sample = report.samples[0]
        assert set(sample) == {"t", "client", "latency_us", "status"}
        assert sample["status"] == "ok"
        assert sample["latency_us"] > 0
        assert sample["client"].startswith("lg/")  # per-worker client ids
        # More than one closed-loop worker contributed.
        assert len({s["client"] for s in report.samples}) > 1

    def test_samples_off_by_default(self, graph, engine):
        pairs = zipf_pairs(graph.n, 20, seed=3)

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_closed_loop(server, pairs, concurrency=4)

        assert asyncio.run(drive()).samples == []

    def test_error_and_shed_statuses_recorded(self, graph, engine):
        pairs = [(0, 1), (0, graph.n + 99), (2, 3)]

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_closed_loop(server, pairs, concurrency=1,
                                             collect_samples=True)

        report = asyncio.run(drive())
        statuses = sorted(s["status"] for s in report.samples)
        assert statuses == ["error", "ok", "ok"]
        assert report.errors == 1

    def test_custom_error_types_widen_the_net(self, graph, engine):
        class Flaky:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            async def dist(self, u, v, **kwargs):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise ConnectionError("flaky wire")
                return await self.inner.dist(u, v, **kwargs)

        pairs = zipf_pairs(graph.n, 30, seed=5)

        async def drive():
            async with DistanceServer(engine) as server:
                flaky = Flaky(server)
                with pytest.raises(ConnectionError):
                    await run_closed_loop(flaky, pairs, concurrency=1)
                flaky.calls = 0
                return await run_closed_loop(
                    flaky, pairs, concurrency=1,
                    error_types=(ConnectionError,))

        report = asyncio.run(drive())
        assert report.errors == 10
        assert report.completed == 20


class TestPerRequestBudgets:
    """``budgets=`` threads one stretch budget per request (--stretch-mix)."""

    def test_mixed_budgets_split_into_answers_and_errors(self, graph, engine):
        # The fixture engine is landmark-mssp (4.5x): an infinite budget
        # is served, a 1x budget must be refused per-request.
        pairs = zipf_pairs(graph.n, 6, seed=13)
        inf = float("inf")
        budgets = [(inf, inf), (1.0, 0.0), (inf, inf),
                   (1.0, 0.0), (inf, inf), (1.0, 0.0)]

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_closed_loop(server, pairs, concurrency=2,
                                             budgets=budgets,
                                             collect_samples=True)

        report = asyncio.run(drive())
        assert report.completed == 3
        assert report.errors == 3
        for (mult, _), answer in zip(budgets, report.answers):
            assert (answer is None) == (mult == 1.0)
        assert report.error_taxonomy.get("RoutingError") == 3

    def test_open_loop_honours_budgets_too(self, graph, engine):
        pairs = zipf_pairs(graph.n, 4, seed=13)
        budgets = [(float("inf"), float("inf")), (1.0, 0.0),
                   (float("inf"), float("inf")), (1.0, 0.0)]

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_open_loop(server, pairs, qps=2000.0,
                                           budgets=budgets)

        report = asyncio.run(drive())
        assert report.completed == 2
        assert report.errors == 2
        assert report.answers[1] is None and report.answers[3] is None

    def test_budget_length_mismatch_rejected(self, engine):
        async def drive_closed():
            async with DistanceServer(engine) as server:
                await run_closed_loop(server, [(0, 1), (1, 2)], concurrency=1,
                                      budgets=[(3.0, 0.0)])

        async def drive_open():
            async with DistanceServer(engine) as server:
                await run_open_loop(server, [(0, 1)], qps=100.0,
                                    budgets=[(3.0, 0.0), (4.5, 0.0)])

        with pytest.raises(ValueError, match="align with pairs"):
            asyncio.run(drive_closed())
        with pytest.raises(ValueError, match="align with pairs"):
            asyncio.run(drive_open())

    def test_fixed_budget_still_applies_without_budgets(self, graph, engine):
        pairs = zipf_pairs(graph.n, 5, seed=13)

        async def drive():
            async with DistanceServer(engine) as server:
                return await run_closed_loop(server, pairs, concurrency=2,
                                             multiplicative=4.5, additive=0.0)

        report = asyncio.run(drive())
        assert report.completed == 5
        assert report.errors == 0


class TestJsonlRoundtrip:
    def test_write_then_merge_reconstructs_counts(self, graph, engine,
                                                  tmp_path):
        from repro.serve.loadgen import LoadReport

        pairs_a = zipf_pairs(graph.n, 80, seed=1)
        pairs_b = zipf_pairs(graph.n, 40, seed=2)

        async def drive():
            async with DistanceServer(engine) as server:
                first = await run_closed_loop(server, pairs_a, concurrency=8,
                                              client="a",
                                              collect_samples=True)
                second = await run_open_loop(server, pairs_b, qps=4000.0,
                                             client="b",
                                             collect_samples=True)
                return first, second

        first, second = asyncio.run(drive())
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        assert first.write_samples_jsonl(str(path_a)) == 80
        assert second.write_samples_jsonl(str(path_b)) == 40

        merged = LoadReport.from_jsonl([str(path_a), str(path_b)])
        assert merged.mode == "merged"
        assert merged.requested == 120
        assert merged.completed == first.completed + second.completed
        assert merged.latency["count"] == merged.completed
        assert merged.duration_s > 0
        assert merged.achieved_qps > 0
        assert len(merged.samples) == 120

    def test_append_semantics_accumulate(self, graph, engine, tmp_path):
        from repro.serve.loadgen import LoadReport

        pairs = zipf_pairs(graph.n, 25, seed=9)
        path = tmp_path / "all.jsonl"

        async def drive():
            async with DistanceServer(engine) as server:
                for _ in range(3):
                    report = await run_closed_loop(server, pairs,
                                                   concurrency=4,
                                                   collect_samples=True)
                    report.write_samples_jsonl(str(path))

        asyncio.run(drive())
        merged = LoadReport.from_jsonl(str(path))
        assert merged.requested == 75

    def test_garbage_lines_count_as_errors(self, tmp_path):
        from repro.serve.loadgen import LoadReport

        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1.0, "client": "c", "latency_us": 5.0, '
                        '"status": "ok"}\n'
                        "this is not json\n"
                        '{"latency_us": "nope"}\n')
        merged = LoadReport.from_jsonl(str(path))
        assert merged.completed == 1
        assert merged.errors == 2
