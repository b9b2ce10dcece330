"""Tests for the pluggable strategy registry (PR 10).

Covers registration/replacement/unregistration semantics, the
nearest-name suggestions in lookup errors, the live ``STRATEGY_NAMES``
view, and the declarative spec behaviours (guarantee / the one cost
function / build-fn resolution) the planner and serving registry
dispatch on.
"""

from __future__ import annotations

import pytest

from repro.oracle.strategies import (
    QUERY_KINDS,
    REGISTRY,
    STRATEGY_NAMES,
    CostEstimate,
    StrategyRegistry,
    StrategySpec,
    StretchGuarantee,
    get_strategy,
    register_strategy,
)


def _spec(name: str, **overrides) -> StrategySpec:
    fields = dict(
        name=name,
        required_arrays=("dist",),
        summary="test strategy",
        query_kind="dense",
        guarantee_fn=lambda eps, w, k: StretchGuarantee(1.0, 0.0),
        cost_fn=lambda n, m, eps, build: CostEstimate(float(n) * n, 0.0, 1.0),
    )
    fields.update(overrides)
    return StrategySpec(**fields)


class TestRegistry:
    def test_register_get_unregister_roundtrip(self):
        registry = StrategyRegistry()
        spec = registry.register(_spec("alpha"))
        assert registry.get("alpha") is spec
        assert "alpha" in registry
        assert registry.names() == ("alpha",)
        assert registry.unregister("alpha") is spec
        assert "alpha" not in registry
        assert len(registry) == 0

    def test_duplicate_registration_raises_unless_replace(self):
        registry = StrategyRegistry()
        registry.register(_spec("alpha"))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_spec("alpha"))
        replacement = registry.register(_spec("alpha", summary="v2"),
                                        replace=True)
        assert registry.get("alpha") is replacement
        assert len(registry) == 1

    def test_registration_order_is_preserved(self):
        registry = StrategyRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(_spec(name))
        assert registry.names() == ("zeta", "alpha", "mid")
        assert tuple(spec.name for spec in registry.specs()) == (
            "zeta", "alpha", "mid")

    def test_unknown_query_kind_rejected(self):
        registry = StrategyRegistry()
        with pytest.raises(ValueError, match="query_kind"):
            registry.register(_spec("bad", query_kind="holographic"))

    def test_unknown_name_error_lists_catalogue(self):
        registry = StrategyRegistry()
        registry.register(_spec("alpha"))
        with pytest.raises(ValueError, match="unknown oracle strategy") as exc:
            registry.get("nope")
        assert "alpha" in str(exc.value)

    def test_unknown_name_error_suggests_near_miss(self):
        with pytest.raises(ValueError, match="did you mean") as exc:
            get_strategy("landmark-msp")
        assert "landmark-mssp" in str(exc.value)

    def test_unregister_unknown_raises(self):
        registry = StrategyRegistry()
        with pytest.raises(ValueError, match="unknown oracle strategy"):
            registry.unregister("ghost")


class TestLiveStrategyNames:
    def test_reflects_global_registry(self):
        assert tuple(STRATEGY_NAMES) == REGISTRY.names()
        assert len(STRATEGY_NAMES) == len(REGISTRY)
        assert STRATEGY_NAMES[0] == REGISTRY.names()[0]
        for name in ("dense-apsp", "landmark-mssp", "exact-fallback",
                     "spanner-greedy", "hopset-landmark"):
            assert name in STRATEGY_NAMES

    def test_new_registration_appears_without_reimport(self):
        name = "test-live-view"
        register_strategy(_spec(name))
        try:
            assert name in STRATEGY_NAMES
            assert name in tuple(STRATEGY_NAMES)
            assert STRATEGY_NAMES[-1] == name
        finally:
            REGISTRY.unregister(name)
        assert name not in STRATEGY_NAMES

    def test_error_text_includes_late_registrations(self):
        name = "test-error-view"
        register_strategy(_spec(name))
        try:
            with pytest.raises(ValueError, match=name):
                get_strategy("definitely-not-registered")
        finally:
            REGISTRY.unregister(name)


class TestSpecBehaviours:
    def test_query_kinds_constant(self):
        assert QUERY_KINDS == ("dense", "landmark", "spanner")
        for name in STRATEGY_NAMES:
            assert get_strategy(name).query_kind in QUERY_KINDS

    def test_builtin_guarantees(self):
        eps, w = 0.5, 10.0
        assert get_strategy("dense-apsp").guarantee(eps, w) == (
            StretchGuarantee(2.5, 15.0))
        assert get_strategy("landmark-mssp").guarantee(eps, w) == (
            StretchGuarantee(4.5, 0.0))
        assert get_strategy("exact-fallback").guarantee(eps, w) == (
            StretchGuarantee(1.0, 0.0))
        assert get_strategy("hopset-landmark").guarantee(eps, w) == (
            StretchGuarantee(3.0, 0.0))

    def test_spanner_guarantee_scales_with_k(self):
        spec = get_strategy("spanner-greedy")
        assert spec.guarantee(0.5, 10.0) == StretchGuarantee(9.0, 0.0)
        assert spec.guarantee(0.5, 10.0, k=1) == StretchGuarantee(3.0, 0.0)
        assert spec.guarantee(0.5, 10.0, k=3) == StretchGuarantee(15.0, 0.0)

    def test_resolve_build_dotted_path(self):
        from repro.oracle.build import build_dense_arrays

        assert get_strategy("dense-apsp").resolve_build() is build_dense_arrays

    def test_resolve_build_direct_callable(self):
        marker = lambda builder, graph: None  # noqa: E731
        spec = _spec("callable-build", build_fn=marker)
        assert spec.resolve_build() is marker

    def test_resolve_build_malformed_path(self):
        spec = _spec("bad-path", build_fn="not-a-dotted-path")
        with pytest.raises(ValueError, match="malformed build_fn"):
            spec.resolve_build()

    def test_missing_behaviours_raise_by_name(self):
        bare = StrategySpec(name="bare", required_arrays=("dist",),
                            summary="no behaviours")
        with pytest.raises(ValueError, match="guarantee_fn"):
            bare.guarantee(0.5, 10.0)
        with pytest.raises(ValueError, match="build_fn"):
            bare.resolve_build()
        with pytest.raises(ValueError, match="cost_fn"):
            bare.estimate(10, 20, 0.5)

    def test_one_cost_fn_a_priori_and_on_build_metadata(self):
        """``estimate`` without build metadata is the planner's a-priori
        number; the metadata a build records overrides each default."""
        n, m = 4096, 32768
        k = landmarks = 64  # ceil(sqrt(4096))
        dense = get_strategy("dense-apsp").estimate(n, m, 0.5)
        assert dense == CostEstimate(float(n) * n, 0.0, 1.0)
        for name in ("landmark-mssp", "hopset-landmark"):
            landmark = get_strategy(name).estimate(n, m, 0.5)
            # The landmark id vector is resident; the rows are mapped.
            assert landmark == CostEstimate(
                2.0 * n * k + n * landmarks, landmarks, landmarks)
        spanner = get_strategy("spanner-greedy")
        csr = lambda edges: 4.0 * edges + n + 1  # noqa: E731
        rows = 2.0 * n * k + n * landmarks
        assert spanner.estimate(n, m, 0.5).payload_floats \
            == rows + csr(min(m, n ** 1.5))
        assert spanner.estimate(n, 10 ** 9, 0.5).payload_floats \
            == rows + csr(n ** 1.5)

        built = get_strategy("landmark-mssp").estimate(
            n, m, 0.5, {"k": 16, "num_landmarks": 50})
        assert built == CostEstimate(2.0 * n * 16 + n * 50, 50.0, 50.0)
        hopset = get_strategy("hopset-landmark").estimate(
            n, m, 0.5, {"k": 64, "ball_width": 8, "num_landmarks": 50})
        assert hopset.payload_floats == 2.0 * n * 8 + n * 50
        small = spanner.estimate(n, m, 0.5, {
            "spanner_edges": 1000, "ball_width": 4, "num_landmarks": 10})
        assert small == CostEstimate(
            2.0 * n * 4 + n * 10 + csr(1000), 10 + csr(1000), 10.0)

    def test_estimates_rank_compact_strategies_smaller(self):
        n, m = 4096, 32768
        dense = get_strategy("dense-apsp").estimate(n, m, 0.5)
        landmark = get_strategy("landmark-mssp").estimate(n, m, 0.5)
        spanner = get_strategy("spanner-greedy").estimate(n, m, 0.5)
        hopset = get_strategy("hopset-landmark").estimate(n, m, 0.5)
        for compact in (landmark, spanner, hopset):
            assert compact.payload_floats < dense.payload_floats / 4
        assert dense.payload_bytes == dense.payload_floats * 8.0
