"""Tests for the stretch-budget fleet planner.

Selection logic against the registry's declarative estimates, error
paths, end-to-end execution into a manifest the ordinary serving stack
boots, and a hypothesis property closing the loop: whatever the planner
picks for a budget, the built artifact's answers stay inside that budget
against brute-force Dijkstra distances.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphs import all_pairs_dijkstra, grid_graph, random_weighted_graph
from repro.oracle import (
    PlanError,
    execute_plan,
    parse_budget,
    plan_fleet,
)
from repro.oracle.planner import DEFAULT_SHARD_TARGET_BYTES
from repro.oracle.strategies import REGISTRY
from repro.serve import StretchRouter, build_registry
from repro.serve.router import StretchBudget


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(36, average_degree=6, max_weight=9, seed=5)


class TestPlanFleet:
    def test_exact_budget_selects_exact_strategy(self, graph):
        plan = plan_fleet(graph, budgets=[StretchBudget(1.0, 0.0)])
        assert plan.choices[0].strategy == "exact-fallback"

    def test_three_x_budget_prefers_compact_admissible(self, graph):
        plan = plan_fleet(graph, budgets=[StretchBudget(3.0, 0.0)])
        # hopset-landmark (3x) is the only compact strategy admissible at
        # 3x; dense-apsp is excluded by its additive term.
        assert plan.choices[0].strategy == "hopset-landmark"

    def test_loose_budget_prefers_smallest_artifact(self, graph):
        plan = plan_fleet(graph, budgets=[StretchBudget(math.inf, math.inf)])
        choice = plan.choices[0]
        smallest = min(
            (spec.estimate(plan.n, plan.m, plan.epsilon).payload_floats,
             spec.name) for spec in REGISTRY.specs())
        assert choice.estimate.payload_floats == smallest[0]

    def test_shape_only_planning_needs_no_graph(self):
        plan = plan_fleet(n=4096, m=32768, max_weight=10.0,
                          budgets=[StretchBudget(4.5, 0.0)])
        assert plan.n == 4096
        assert plan.choices[0].strategy in ("landmark-mssp", "hopset-landmark")
        with pytest.raises(PlanError, match="needs either a graph"):
            plan_fleet(n=4096, budgets=[StretchBudget(4.5, 0.0)])

    def test_sharding_kicks_in_above_target(self):
        plan = plan_fleet(n=4096, m=32768, max_weight=10.0,
                          budgets=[StretchBudget(1.0, 0.0)],
                          shard_target_bytes=1 << 20)
        choice = plan.choices[0]
        expected = math.ceil(choice.estimate.payload_bytes / (1 << 20))
        assert choice.num_shards == min(4096, expected) > 1
        small = plan_fleet(n=64, m=256, max_weight=10.0,
                           budgets=[StretchBudget(1.0, 0.0)],
                           shard_target_bytes=DEFAULT_SHARD_TARGET_BYTES)
        assert small.choices[0].num_shards == 1

    def test_query_cost_budget_can_force_dense(self):
        plan = plan_fleet(n=1024, m=8192, max_weight=10.0,
                          budgets=[StretchBudget(math.inf, math.inf)],
                          max_query_cost=1.0)
        assert plan.choices[0].estimate.query_cost <= 1.0
        assert plan.choices[0].strategy in ("dense-apsp", "exact-fallback")

    def test_resident_budget_counts_what_the_process_holds(self):
        """The common arrays, at any shard count: the payload is mapped."""
        shape = dict(n=4096, m=32768, max_weight=10.0,
                     budgets=[parse_budget("1")], max_resident_floats=1e6)
        for target in (math.inf, DEFAULT_SHARD_TARGET_BYTES):
            choice = plan_fleet(**shape, shard_target_bytes=target).choices[0]
            assert choice.strategy == "exact-fallback"  # 16.8M mapped floats
            assert (choice.num_shards > 1) == (target < math.inf)
        # A landmark oracle keeps its landmark id vector resident: a budget
        # below it pushes a 3x request back onto a dense table.
        loose = dict(n=4096, m=32768, max_weight=10.0,
                     budgets=[parse_budget("3")])
        assert plan_fleet(**loose).choices[0].strategy == "hopset-landmark"
        assert plan_fleet(**loose, max_resident_floats=10).choices[0] \
            .strategy == "exact-fallback"

    def test_unsatisfiable_budget_raises_with_reasons(self):
        with pytest.raises(PlanError, match="no registered strategy"):
            plan_fleet(n=1024, m=8192, max_weight=10.0,
                       budgets=[StretchBudget(1.0, 0.0)],
                       max_query_cost=0.5)
        with pytest.raises(PlanError, match="at least one"):
            plan_fleet(n=1024, m=8192, max_weight=10.0, budgets=[])

    def test_builds_deduplicate_shared_strategies(self, graph):
        plan = plan_fleet(graph, budgets=[StretchBudget(4.5, 0.0),
                                          StretchBudget(6.0, 0.0),
                                          StretchBudget(1.0, 0.0)])
        strategies = [choice.strategy for choice in plan.choices]
        assert strategies[0] == strategies[1]  # both land on the same pick
        assert len(plan.builds()) == 2
        assert "exact-fallback" in plan.summary()


class TestExecutePlan:
    def test_manifest_boots_through_serving_stack(self, graph, tmp_path):
        budgets = [StretchBudget(1.0, 0.0), StretchBudget(3.0, 0.0)]
        plan = plan_fleet(graph, budgets=budgets, shard_target_bytes=4096)
        execution = execute_plan(plan, graph, tmp_path)
        assert execution.manifest_path.exists()

        registry = build_registry([execution.manifest_path])
        router = StretchRouter(registry)
        exact = all_pairs_dijkstra(graph)
        for budget in budgets:
            decision = router.route(multiplicative=budget.multiplicative,
                                    additive=budget.additive)
            engine = registry.engine(decision.name)
            for u, v in ((0, 1), (3, 17), (35, 2)):
                est = engine.dist(u, v)
                true = exact[u][v]
                assert true - 1e-9 <= est
                assert est <= (budget.multiplicative * true
                               + min(budget.additive, 1e18) + 1e-9)

    def test_wrong_graph_size_rejected(self, graph, tmp_path):
        plan = plan_fleet(n=99, m=300, max_weight=9.0,
                          budgets=[StretchBudget(1.0, 0.0)])
        with pytest.raises(PlanError, match="n=99"):
            execute_plan(plan, graph, tmp_path)

    @pytest.mark.parametrize("shape", ["random", "grid"])
    def test_router_serves_every_planned_artifact(self, graph, shape,
                                                  tmp_path):
        """Planner and router rank by one order: each budget routes to the
        artifact built for it, and every built artifact is served.  No
        ``max_query_cost``/``max_resident_floats`` here — those limits
        exist only at planning time."""
        if shape == "grid":
            graph = grid_graph(6, 7, max_weight=5, seed=3)
        budgets = [parse_budget(text) for text in ("1", "3", "4.5", "9", "inf")]
        plan = plan_fleet(graph, budgets=budgets)
        execution = execute_plan(plan, graph, tmp_path)
        router = StretchRouter(build_registry([execution.manifest_path]))
        routed = set()
        for choice in plan.choices:
            decision = router.route(choice.budget.multiplicative,
                                    choice.budget.additive)
            assert decision.name == execution.artifact_for(choice), choice
            routed.add(decision.name)
        assert len(plan.builds()) == len(routed)

    def test_artifact_names_map_choices(self, graph, tmp_path):
        plan = plan_fleet(graph, budgets=[StretchBudget(3.0, 0.0)])
        execution = execute_plan(plan, graph, tmp_path / "fleet")
        name = execution.artifact_for(plan.choices[0])
        assert name == plan.choices[0].strategy


@given(
    n=st.integers(min_value=10, max_value=26),
    degree=st.integers(min_value=3, max_value=6),
    max_weight=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
    budget_mult=st.sampled_from([1.0, 3.0, 4.5, 9.0, math.inf]),
)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_planner_choice_always_satisfies_budget(tmp_path_factory, n, degree,
                                                max_weight, seed, budget_mult):
    """Whatever the planner picks, the built artifact honours the budget."""
    graph = random_weighted_graph(n, average_degree=degree,
                                  max_weight=max_weight, seed=seed)
    budget = (StretchBudget(budget_mult, math.inf) if math.isinf(budget_mult)
              else StretchBudget(budget_mult, 0.0))
    plan = plan_fleet(graph, budgets=[budget])
    out = tmp_path_factory.mktemp("planner-prop")
    execution = execute_plan(plan, graph, out)
    registry = build_registry([execution.manifest_path])
    router = StretchRouter(registry)
    decision = router.route(multiplicative=budget.multiplicative,
                            additive=budget.additive)
    engine = registry.engine(decision.name)
    exact = all_pairs_dijkstra(graph)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for (u, v), est in zip(pairs, engine.batch(pairs).tolist()):
        true = exact[u][v]
        if true == math.inf:
            assert est == math.inf
        elif math.isinf(budget_mult):
            assert est >= true - 1e-9
        else:
            assert true - 1e-9 <= est <= budget_mult * true + 1e-9


def test_parse_budget_roundtrip_through_planner():
    budgets = [parse_budget(text) for text in ("1", "3", "4.5+2")]
    plan = plan_fleet(n=128, m=512, max_weight=8.0, budgets=budgets)
    assert len(plan.choices) == 3
    for choice, budget in zip(plan.choices, budgets):
        assert choice.budget == budget
        assert budget.admits(choice.guarantee)
