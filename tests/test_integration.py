"""End-to-end integration tests crossing multiple modules.

These tests follow the same pipelines the examples and benchmarks use:
generate a workload, run a headline algorithm, validate the guarantee
against sequential ground truth, and sanity-check the round accounting.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    Clique,
    apsp_unweighted,
    apsp_weighted,
    approximate_diameter,
    build_hopset,
    exact_sssp,
    mssp,
)
from repro.baselines import apsp_dense_mm, apsp_spanner, sssp_bellman_ford
from repro.graphs import (
    all_pairs_dijkstra,
    dijkstra,
    erdos_renyi,
    exact_diameter,
    power_law_graph,
    random_weighted_graph,
)


class TestFullPipelines:
    def test_landmark_pipeline_on_power_law_graph(self):
        """The 'social network landmarks' scenario: pick sqrt(n) hubs as
        sources and verify (1+eps) estimates for every (node, hub) pair."""
        graph = power_law_graph(40, attachment=2, seed=121)
        hubs = sorted(range(graph.n), key=graph.degree, reverse=True)[:6]
        exact = {s: dijkstra(graph, s) for s in hubs}
        result = mssp(graph, hubs, epsilon=0.5)
        for v in range(graph.n):
            for index, s in enumerate(result.sources):
                true = exact[s][v]
                if true in (0, math.inf):
                    continue
                assert true - 1e-9 <= result.distances[v, index] <= 1.5 * true + 1e-9

    def test_apsp_family_consistency(self):
        """All APSP algorithms (paper + baselines) are upper bounds on the
        true distances, ordered by their guarantees on the same input."""
        graph = erdos_renyi(26, 0.18, seed=122)
        exact = all_pairs_dijkstra(graph)
        exact_mm = apsp_dense_mm(graph)
        approx_2eps = apsp_unweighted(graph, epsilon=0.5)
        approx_spanner = apsp_spanner(graph, k=2)

        assert exact_mm.max_stretch(exact) == pytest.approx(1.0)
        assert approx_2eps.max_stretch(exact) <= 3.0 + 1e-9
        assert approx_spanner.max_stretch(exact) <= 3.0 + 1e-9
        for result in (exact_mm, approx_2eps, approx_spanner):
            for u in range(graph.n):
                for v in range(graph.n):
                    if exact[u][v] != math.inf:
                        assert result.estimates[u, v] >= exact[u][v] - 1e-9

    def test_shared_clique_accumulates_whole_pipeline(self):
        """Running several algorithms against one Clique yields a combined
        round count equal to the sum of the individual runs."""
        graph = random_weighted_graph(20, average_degree=4, max_weight=6, seed=123)
        clique = Clique(graph.n)
        hopset = build_hopset(graph, epsilon=0.5, clique=clique)
        after_hopset = clique.rounds
        result = mssp(graph, [0, 1], epsilon=0.5, clique=clique, hopset=hopset)
        assert clique.rounds == pytest.approx(after_hopset + result.rounds)
        assert hopset.rounds == pytest.approx(after_hopset)

    def test_sssp_vs_both_baselines(self):
        graph = random_weighted_graph(30, average_degree=4, max_weight=8, seed=124)
        expected = np.array(dijkstra(graph, 0))
        paper = exact_sssp(graph, 0)
        baseline = sssp_bellman_ford(graph, 0)
        assert np.allclose(paper.distances, expected)
        assert np.allclose(baseline.distances, expected)

    def test_diameter_against_apsp_estimate(self):
        """The diameter estimate is consistent with the APSP estimates: it
        never exceeds (1+eps) times the maximum exact distance."""
        graph = random_weighted_graph(24, average_degree=5, max_weight=5, seed=125)
        true_diameter = exact_diameter(graph)
        diameter = approximate_diameter(graph, epsilon=0.5)
        apsp = apsp_weighted(graph, epsilon=0.5)
        finite = apsp.estimates[np.isfinite(apsp.estimates)]
        assert diameter.estimate <= 1.5 * true_diameter + 1e-9
        assert finite.max() >= true_diameter - 1e-9

    def test_hopset_reuse_across_algorithms(self):
        """One hopset can serve MSSP from different source sets."""
        graph = random_weighted_graph(24, average_degree=5, max_weight=6, seed=126)
        exact = all_pairs_dijkstra(graph)
        hopset = build_hopset(graph, epsilon=0.5)
        for sources in ([0, 1], [5, 9, 13], [20]):
            result = mssp(graph, sources, epsilon=0.5, hopset=hopset)
            for v in range(graph.n):
                for index, s in enumerate(result.sources):
                    true = exact[s][v]
                    if true in (0, math.inf):
                        continue
                    assert result.distances[v, index] <= 1.5 * true + 1e-9

    def test_round_breakdown_labels_cover_major_phases(self):
        graph = random_weighted_graph(20, average_degree=4, seed=127)
        clique = Clique(graph.n)
        apsp_weighted(graph, epsilon=0.5, clique=clique)
        labels = clique.breakdown.by_label()
        joined = " ".join(labels)
        assert "k-nearest" in joined
        assert "hopset" in joined
        assert "mssp" in joined

    def test_message_counter_is_populated(self):
        graph = random_weighted_graph(18, average_degree=4, seed=128)
        clique = Clique(graph.n)
        apsp_weighted(graph, epsilon=0.5, clique=clique)
        assert clique.messages_sent > 0

    def test_public_api_reexports(self):
        """The package root exposes the documented public API."""
        import repro

        for name in (
            "Graph",
            "Clique",
            "SemiringMatrix",
            "mssp",
            "apsp_weighted",
            "apsp_unweighted",
            "exact_sssp",
            "approximate_diameter",
            "build_hopset",
            "k_nearest",
            "source_detection",
            "distance_through_sets",
            "output_sensitive_mm",
            "filtered_mm",
            "dense_mm",
            "sparse_mm_clt18",
        ):
            assert hasattr(repro, name), name
        assert repro.__version__

    def test_every_exported_name_resolves(self):
        """``__all__`` is served lazily: each name must still import."""
        import repro
        import repro.oracle

        for module in (repro, repro.oracle):
            for name in module.__all__:
                assert getattr(module, name) is not None, name
            with pytest.raises(AttributeError):
                module.no_such_name

    def test_version_is_single_sourced(self):
        import re
        from pathlib import Path

        import repro

        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert 'version = { attr = "repro.__version__" }' in pyproject
        assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_a_worker_imports_only_what_it_serves(self):
        """``import repro.net.worker`` must not load the simulator, the
        kernels or the paper's algorithms (a respawned worker pays for
        every module it imports before it can answer ``/healthz``)."""
        import subprocess
        import sys
        from pathlib import Path

        code = ("import sys, repro.net.worker; "
                "print(' '.join(m for m in sys.modules if m.startswith('repro.')))")
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, text=True,
            capture_output=True,
            env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        ).stdout.split()
        loaded = {name.split(".")[1] for name in out}
        assert loaded == {"net", "serve", "oracle", "obs", "chaos"}
        assert "repro.oracle.build" not in out
        assert "repro.oracle.planner" not in out
