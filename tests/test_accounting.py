"""Tests for the cost-model spec and the round-accounting Clique."""

from __future__ import annotations

import math

import pytest

from repro.cclique import Clique, DEFAULT_SPEC, ModelSpec
from repro.cclique.accounting import RoundBreakdown


class TestModelSpec:
    def test_routing_zero_load_is_free(self):
        assert DEFAULT_SPEC.routing_rounds(0, 0, 64) == 0.0

    def test_routing_load_n_is_constant(self):
        n = 64
        rounds = DEFAULT_SPEC.routing_rounds(n, n, n)
        assert rounds == DEFAULT_SPEC.routing_constant

    def test_routing_scales_linearly_with_load(self):
        n = 64
        one_unit = DEFAULT_SPEC.routing_rounds(n, n, n)
        four_units = DEFAULT_SPEC.routing_rounds(4 * n, 4 * n, n)
        assert four_units == pytest.approx(4 * one_unit)

    def test_routing_counts_words(self):
        n = 64
        single = DEFAULT_SPEC.routing_rounds(n, n, n, words=1)
        double = DEFAULT_SPEC.routing_rounds(n, n, n, words=2)
        assert double == pytest.approx(2 * single)

    def test_routing_uses_max_of_send_and_receive(self):
        n = 32
        assert DEFAULT_SPEC.routing_rounds(n, 4 * n, n) == DEFAULT_SPEC.routing_rounds(
            4 * n, n, n
        )

    def test_sorting_rounds(self):
        n = 64
        assert DEFAULT_SPEC.sorting_rounds(0, n) == 0.0
        assert DEFAULT_SPEC.sorting_rounds(n, n) == DEFAULT_SPEC.sorting_constant

    def test_broadcast_rounds(self):
        assert DEFAULT_SPEC.broadcast_rounds() == DEFAULT_SPEC.broadcast_constant
        assert DEFAULT_SPEC.broadcast_rounds(3) == 3 * DEFAULT_SPEC.broadcast_constant

    def test_hitting_set_rounds_grow_very_slowly(self):
        small = DEFAULT_SPEC.hitting_set_rounds(16)
        large = DEFAULT_SPEC.hitting_set_rounds(1 << 20)
        assert small >= 1
        assert large <= 100  # (log2 log2 n)^3 = ~81 even at n = 2^20

    def test_custom_spec_changes_constants(self):
        spec = ModelSpec(routing_constant=10.0)
        assert spec.routing_rounds(64, 64, 64) == 10.0


class TestClique:
    def test_requires_positive_size(self):
        with pytest.raises(ValueError):
            Clique(0)

    def test_charge_accumulates(self):
        clique = Clique(16)
        clique.charge(3, "a")
        clique.charge(2, "b")
        assert clique.rounds == 5

    def test_repeated_labels_keep_one_record(self):
        """A result that keeps its clique keeps one record per label, not
        one per charge (thousands, in the hop-iteration loops)."""
        clique = Clique(16)
        with clique.phase("loop"):
            for _ in range(1000):
                clique.charge(2, "a")
                clique.charge(1, "b")
        assert clique.breakdown.entries == [("loop/a", 2000.0), ("loop/b", 1000.0)]
        assert clique.breakdown.by_label() == dict(clique.breakdown.entries)
        assert clique.rounds == 3000

    def test_negative_charge_rejected(self):
        clique = Clique(16)
        with pytest.raises(ValueError):
            clique.charge(-1)

    def test_zero_charge_is_noop(self):
        clique = Clique(16)
        clique.charge(0, "nothing")
        assert clique.rounds == 0
        assert clique.breakdown.entries == []

    def test_broadcast_charge(self):
        clique = Clique(16)
        rounds = clique.charge_broadcast()
        assert rounds == DEFAULT_SPEC.broadcast_constant
        assert clique.messages_sent == 16 * 15

    def test_routing_charge_and_message_count(self):
        clique = Clique(16)
        clique.charge_routing(32, 16, total_messages=100)
        assert clique.rounds == DEFAULT_SPEC.routing_rounds(32, 16, 16)
        assert clique.messages_sent == 100

    def test_sorting_and_hitting_set_charges(self):
        clique = Clique(16)
        clique.charge_sorting(16)
        clique.charge_hitting_set()
        assert clique.rounds == DEFAULT_SPEC.sorting_rounds(16, 16) + DEFAULT_SPEC.hitting_set_rounds(16)

    def test_formula_charge_clamps_negative(self):
        clique = Clique(16)
        assert clique.charge_rounds_formula(-5, "x") == 0.0

    def test_phase_labels_nest(self):
        clique = Clique(16)
        with clique.phase("outer"):
            clique.charge(1, "step")
            with clique.phase("inner"):
                clique.charge(2, "step")
        labels = clique.breakdown.by_label()
        assert labels["outer/step"] == 1
        assert labels["outer/inner/step"] == 2

    def test_unlabelled_charge(self):
        clique = Clique(16)
        clique.charge(2)
        assert clique.breakdown.by_label() == {"unlabelled": 2}

    def test_merge_from(self):
        main = Clique(16)
        sub = Clique(16)
        sub.charge(4, "work")
        main.merge_from(sub, label="sub")
        assert main.rounds == 4
        assert "sub/work" in main.breakdown.by_label()

    def test_report_contains_total(self):
        clique = Clique(16)
        clique.charge(5, "phase-a")
        report = clique.report()
        assert "TOTAL" in report
        assert "phase-a" in report


class TestRoundBreakdown:
    def test_aggregation(self):
        breakdown = RoundBreakdown()
        breakdown.add("x", 1)
        breakdown.add("x", 2)
        breakdown.add("y", 5)
        assert breakdown.by_label() == {"x": 3, "y": 5}
        assert breakdown.total() == 8

    def test_formatted_output(self):
        breakdown = RoundBreakdown()
        breakdown.add("alpha", 2)
        text = breakdown.formatted()
        assert "alpha" in text and "TOTAL" in text
