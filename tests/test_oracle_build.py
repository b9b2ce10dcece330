"""Tests for the oracle builder: build metadata, the advertised guarantee,
and the refused inputs.  That every build honours its guarantee against
exact Dijkstra is ``test_engine_reference.py``'s."""

from __future__ import annotations

import math

import pytest

from repro.graphs import Graph, random_weighted_graph
from repro.oracle import OracleBuilder, build_oracle, get_strategy


class TestBuildMetadata:
    def test_tighter_epsilon_tightens_the_advertised_guarantee(self):
        graph = random_weighted_graph(32, average_degree=6, max_weight=8, seed=9)
        loose = build_oracle(graph, strategy="landmark-mssp", epsilon=1.0)
        tight = build_oracle(graph, strategy="landmark-mssp", epsilon=0.25)
        assert tight.stretch.multiplicative < loose.stretch.multiplicative

    def test_build_records_rounds_and_provenance(self):
        graph = random_weighted_graph(32, average_degree=6, max_weight=8, seed=10)
        builder = OracleBuilder(strategy="landmark-mssp", epsilon=0.5)
        artifact = builder.build(graph)
        assert artifact.build_rounds > 0
        assert artifact.metadata["num_edges"] == graph.num_edges()
        assert artifact.metadata["build"]["num_landmarks"] >= 1
        assert artifact.metadata["build"]["k"] == math.ceil(math.sqrt(graph.n))

    def test_report_summary_mentions_key_facts(self):
        graph = random_weighted_graph(24, average_degree=5, max_weight=8, seed=11)
        builder = OracleBuilder(strategy="dense-apsp", epsilon=0.5)
        artifact = builder.build(graph)
        summary = builder.report(artifact).summary()
        assert "dense-apsp" in summary
        assert "simulated rounds" in summary
        assert "stretch guarantee" in summary

    def test_approximate_artifacts_are_smaller_than_dense(self, tmp_path):
        """The point of the approximate strategies: o(n^2) stored bytes."""
        graph = random_weighted_graph(96, average_degree=6, max_weight=9, seed=11)
        sizes = {}
        for name in ("dense-apsp", "landmark-mssp", "spanner-greedy"):
            _, shards = build_oracle(graph, strategy=name,
                                     epsilon=0.5).save_sharded(tmp_path / name, 4)
            sizes[name] = sum(path.stat().st_size for path in shards)
        assert sizes["landmark-mssp"] < sizes["dense-apsp"]
        assert sizes["spanner-greedy"] < sizes["dense-apsp"]


class TestBuildErrors:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown oracle strategy"):
            OracleBuilder(strategy="teleport")

    def test_strategy_error_lists_known_names(self):
        with pytest.raises(ValueError, match="landmark-mssp"):
            get_strategy("bogus")

    def test_directed_graph_rejected(self):
        graph = Graph(4, directed=True)
        graph.add_edge(0, 1, 1)
        with pytest.raises(ValueError, match="undirected"):
            build_oracle(graph, strategy="dense-apsp")

    def test_non_positive_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            OracleBuilder(strategy="dense-apsp", epsilon=0.0)

    def test_bad_ball_size_rejected(self):
        graph = random_weighted_graph(16, average_degree=4, seed=13)
        with pytest.raises(ValueError, match="ball size"):
            OracleBuilder(strategy="landmark-mssp", k=0).build(graph)
