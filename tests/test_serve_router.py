"""Tests for stretch-budget routing over a 3-artifact registry.

The acceptance property: every request is served from the **cheapest**
artifact whose advertised stretch guarantee satisfies the request's
budget, or refused; a pinned artifact is held to the same budget.
"""

from __future__ import annotations

import math

import pytest

from repro.graphs import random_weighted_graph
from repro.obs.metrics import get_registry
from repro.oracle import build_oracle
from repro.serve import (
    ArtifactRegistry,
    RoutingError,
    StretchBudget,
    StretchRouter,
)


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(28, average_degree=6, max_weight=12, seed=5)


@pytest.fixture(scope="module")
def artifact_dir(graph, tmp_path_factory):
    """cheap = 3(1+eps) landmark oracle, mid = (2+eps, (1+eps)W) dense,
    exact = 1x matrix — three stretch levels of one graph."""
    root = tmp_path_factory.mktemp("routed")
    build_oracle(graph, strategy="landmark-mssp",
                 epsilon=0.5).save_sharded(root / "cheap")
    build_oracle(graph, strategy="dense-apsp",
                 epsilon=0.25).save_sharded(root / "mid")
    build_oracle(graph, strategy="exact-fallback").save_sharded(root / "exact")
    return root


@pytest.fixture
def registry(artifact_dir):
    registry = ArtifactRegistry(capacity=4)
    registry.discover(artifact_dir)
    return registry


@pytest.fixture
def router(registry):
    return StretchRouter(registry)


class TestBudgetSelection:
    def test_unbounded_budget_picks_cheapest(self, router):
        # The landmark oracle holds ~n^{3/2} floats vs n^2 for the dense
        # strategies: with no budget it is the cheapest admissible artifact.
        assert router.route().name == "cheap"

    def test_exact_budget_picks_exact(self, router):
        assert router.route(multiplicative=1.0).name == "exact"

    def test_additive_budget_excludes_dense(self, router, registry):
        # dense-apsp carries a (1+eps)W additive term; a zero additive
        # budget with a loose multiplicative one must skip it.
        mid = registry.get("mid")
        assert mid.stretch.additive > 0
        decision = router.route(multiplicative=mid.stretch.multiplicative,
                                additive=0.0)
        assert decision.name == "exact"

    def test_mid_budget_excludes_landmark(self, router, registry):
        decision = router.route(multiplicative=2.5)
        admissible = {"mid", "exact"}
        assert decision.name in admissible
        expected = min((registry.get(name) for name in admissible),
                       key=lambda entry: entry.cost)
        assert decision.name == expected.name

    def test_every_budget_gets_the_cheapest_admissible(self, router, registry):
        """The acceptance property, over a grid of budgets."""
        for multiplicative in (1.0, 1.5, 2.25, 2.5, 3.0, 4.5, 10.0, math.inf):
            for additive in (0.0, 5.0, 50.0, math.inf):
                budget = StretchBudget(multiplicative, additive)
                admissible = [entry for entry in registry.entries()
                              if budget.admits(entry.stretch)]
                if not admissible:
                    with pytest.raises(RoutingError):
                        router.route(multiplicative=multiplicative,
                                     additive=additive)
                    continue
                decision = router.route(multiplicative=multiplicative,
                                        additive=additive)
                cheapest = min(admissible, key=lambda entry: entry.cost)
                assert decision.name == cheapest.name, (multiplicative, additive)
                assert budget.admits(decision.stretch)

    def test_impossible_budget_raises_with_guarantees(self, router):
        with pytest.raises(RoutingError, match="cheap=4.5x"):
            router.route(multiplicative=0.5)

    def test_route_counts_accumulate(self, router):
        router.route()
        router.route()
        router.route(multiplicative=1.0)
        assert router.routes == {"cheap": 2, "exact": 1}
        assert router.rejected == 0

    def test_routes_and_rejections_are_published(self, registry):
        """Where requests went is readable off the obs registry alone: an
        artifact's routes child appears on its first route, and the
        memoized repeat routes still count."""
        get_registry().reset()  # series sum every live router: keep one
        router = StretchRouter(registry)

        def counters():
            return get_registry().snapshot()["counters"]

        assert "repro_router_routes_total" not in counters()
        for _ in range(3):
            router.route()
        with pytest.raises(RoutingError):
            router.route(multiplicative=0.5)
        router.route(multiplicative=1.0)
        published = counters()
        assert published["repro_router_routes_total"]["values"] == {
            'artifact="cheap"': 3, 'artifact="exact"': 1}
        assert published["repro_router_rejected_total"]["values"] == {"": 1}


class TestOneOrder:
    def test_a_loaded_engine_does_not_enter_the_choice(self, router, registry):
        """A 1x request opens ``exact``; looser budgets after it still get
        the smallest admissible artifact, not the one that happens to be
        open (an open is an mmap, not a decompression worth avoiding)."""
        assert router.route(multiplicative=1.0).name == "exact"
        registry.engine("exact")
        assert router.route().name == "cheap"
        assert router.route(multiplicative=2.5).name in ("mid", "exact")

    def test_order_is_payload_floats_then_query_cost_then_guarantee_then_name(
            self, router, registry, artifact_dir):
        ordered = [entry.name for entry in router.admissible(StretchBudget())]
        assert ordered == ["cheap", "exact", "mid"]  # n^{3/2}, then n^2
        assert [registry.get(name).cost for name in ordered] == sorted(
            entry.cost for entry in registry.entries())
        # Two equal-cost dense tables: the tighter guarantee comes first,
        # whatever the names say.
        registry.register(artifact_dir / "mid", name="a-mid")
        assert [entry.name for entry in router.admissible(StretchBudget())] \
            == ["cheap", "exact", "a-mid", "mid"]
        assert router.route(multiplicative=2.5, additive=math.inf).name \
            == "exact"

    def test_only_catalogue_changes_flush_the_route_memo(
            self, router, registry, artifact_dir, monkeypatch):
        """Opening and evicting engines leaves the registry epoch, and with
        it the router's per-budget memo, alone; a registration flushes it."""
        calls = []
        admissible = router.admissible
        monkeypatch.setattr(router, "admissible",
                            lambda budget: calls.append(budget)
                            or admissible(budget))
        epoch = registry.epoch
        assert router.route().name == "cheap"
        registry.engine("cheap")
        registry.evict("cheap")
        registry.engine("exact")
        registry.evict()
        assert router.route().name == "cheap"
        assert registry.epoch == epoch
        assert len(calls) == 1
        registry.register(artifact_dir / "cheap", name="again")
        assert registry.epoch == epoch + 1
        router.route()
        assert len(calls) == 2


class TestResolve:
    """``resolve``: the entry a request is answered from, pinned or routed
    — the one check the server's ``gather`` and the frontend share."""

    def test_no_pin_routes_by_budget(self, router):
        assert router.resolve().name == "cheap"
        assert router.resolve(1.0, math.inf, None).name == "exact"
        assert router.resolve(1.0, math.inf, "").name == "exact"  # wire form
        assert router.routes == {"cheap": 1, "exact": 2}

    def test_pin_within_budget_skips_routing(self, router, registry):
        assert router.resolve(artifact="mid") is registry.get("mid")
        assert router.routes == {}

    def test_pin_over_budget_is_refused(self, router):
        with pytest.raises(RoutingError, match="pinned artifact 'cheap'"):
            router.resolve(1.0, math.inf, "cheap")
        mid = router.entry("mid")
        with pytest.raises(RoutingError, match="exceeding the stretch budget"):
            router.resolve(mid.stretch.multiplicative, 0.0, "mid")

    def test_unknown_pin_is_a_registry_error(self, router):
        from repro.serve import RegistryError

        with pytest.raises(RegistryError):
            router.resolve(artifact="nope")

    def test_single_engine_server_answers_resolve_too(self, artifact_dir):
        """Through the public door: ``gather`` with a pinned artifact on a
        server wrapped around one bare engine."""
        import asyncio

        from repro.oracle import QueryEngine, load_artifact
        from repro.serve import DistanceServer

        engine = QueryEngine(load_artifact(artifact_dir / "cheap"))

        async def drive():
            async with DistanceServer(engine) as server:
                pinned = await server.gather([0], [5], artifact="default")
                routed = await server.gather([0], [5])
                assert pinned.tolist() == routed.tolist()
                with pytest.raises(RoutingError,
                                   match="pinned artifact 'default'"):
                    await server.gather([0], [5], artifact="default",
                                        multiplicative=1.0)
                with pytest.raises(RoutingError, match="unknown artifact"):
                    await server.gather([0], [5], artifact="other")

        asyncio.run(drive())
