"""Shared experiment harness for the benchmark suite.

Every experiment corresponds to one function here that returns a list of
result rows (plain dictionaries).  The pytest-benchmark
files under ``benchmarks/`` call these functions (so ``pytest benchmarks/
--benchmark-only`` regenerates every experiment), and the standalone
``benchmarks/run_experiments.py`` script prints the same rows as
paper-vs-measured tables (to stdout; no results file is committed).

The paper has no empirical tables of its own — its claims are theorem
statements — so each experiment reports, side by side:

* the measured quantity (simulated rounds, stretch, hopset size, ...),
* the corresponding theoretical expression evaluated at the same
  parameters, and
* the guarantee that must hold (which the test-suite also asserts).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

from repro import (
    apsp_unweighted,
    apsp_weighted,
    approximate_diameter,
    build_hopset,
    dense_mm,
    exact_sssp,
    filtered_mm,
    k_nearest,
    mssp,
    output_sensitive_mm,
    source_detection,
    sparse_mm_clt18,
)
from repro.baselines import apsp_dense_mm, apsp_spanner, sssp_bellman_ford
from repro.distance import distance_through_sets
from repro.graphs import (
    all_pairs_dijkstra,
    dijkstra,
    erdos_renyi,
    exact_diameter,
    grid_graph,
    path_graph,
    power_law_graph,
    random_weighted_graph,
)
from repro.matmul import SemiringMatrix
from repro.semiring import MIN_PLUS

Row = Dict[str, object]


def format_table(title: str, rows: Sequence[Row]) -> str:
    """Render rows as a fixed-width text table.

    Columns are the union over all rows (first-seen order); rows missing a
    column render it blank, so heterogeneous experiments can share a table.
    """
    if not rows:
        return f"{title}\n(no rows)\n"
    columns: List[str] = []
    for row in rows:
        for column in row:
            if column not in columns:
                columns.append(column)
    widths = {
        column: max(
            len(str(column)),
            max(len(_fmt(row.get(column, ""))) for row in rows),
        )
        for column in columns
    }
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines) + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# ----------------------------------------------------------------------
# matrix workloads
# ----------------------------------------------------------------------
def _random_sparse_matrix(n: int, per_row: int, seed: int) -> SemiringMatrix:
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, MIN_PLUS)
    for i in range(n):
        for _ in range(per_row):
            matrix.set(i, rng.randrange(n), float(rng.randint(1, 99)))
    return matrix


def _banded_matrix(n: int, bandwidth: int, seed: int) -> SemiringMatrix:
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, MIN_PLUS)
    for i in range(n):
        matrix.set(i, i, 0.0)
        for offset in range(1, bandwidth + 1):
            if i + offset < n:
                matrix.set(i, i + offset, float(rng.randint(1, 9)))
                matrix.set(i + offset, i, float(rng.randint(1, 9)))
    return matrix


def _star_matrix(n: int) -> SemiringMatrix:
    matrix = SemiringMatrix(n, MIN_PLUS)
    matrix.set(0, 0, 0.0)
    for leaf in range(1, n):
        matrix.set(0, leaf, 1.0)
        matrix.set(leaf, 0, 1.0)
        matrix.set(leaf, leaf, 0.0)
    return matrix


# ----------------------------------------------------------------------
# E-T8: output-sensitive sparse matrix multiplication
# ----------------------------------------------------------------------
def _block_diagonal_matrix(n: int, block: int) -> SemiringMatrix:
    """Block-diagonal min-plus matrix: density `block`, product equally dense.

    This is the workload family where the output-sensitivity of Theorem 8
    shows up at simulatable sizes: the product's density equals the input
    density (= block size), so CLT18's cost grows with the block size while
    Theorem 8's stays lower until the blocks become dense.
    """
    matrix = SemiringMatrix(n, MIN_PLUS)
    for start in range(0, n, block):
        end = min(n, start + block)
        for i in range(start, end):
            for j in range(start, end):
                matrix.set(i, j, float((i * 7 + j * 3) % 50 + 1))
    return matrix


def experiment_t8_sparse_mm(n: int = 256) -> List[Row]:
    """Theorem 8 vs CLT18 vs dense 3D across output-density regimes."""
    workloads = {
        "banded rho~5 (sparse output)": (_banded_matrix(n, 2, 1), _banded_matrix(n, 2, 2)),
        "random rho=8": (_random_sparse_matrix(n, 8, 5), _random_sparse_matrix(n, 8, 6)),
        "block-diagonal rho=n^(1/2)": (
            _block_diagonal_matrix(n, int(round(n ** 0.5))),
            _block_diagonal_matrix(n, int(round(n ** 0.5))),
        ),
        "block-diagonal rho=n^(3/4)": (
            _block_diagonal_matrix(n, int(round(n ** 0.75))),
            _block_diagonal_matrix(n, int(round(n ** 0.75))),
        ),
        "fully dense rho=n": (
            _block_diagonal_matrix(n, n),
            _block_diagonal_matrix(n, n),
        ),
    }
    rows: List[Row] = []
    for name, (S, T) in workloads.items():
        # One pass with a dense output estimate tells us the true output
        # density; the Theorem 8 run then uses that density as its rho_hat
        # (which the paper's applications always know in advance).
        clt = sparse_mm_clt18(S, T)
        rho_p = clt.product.density()
        ours = output_sensitive_mm(S, T, rho_hat=rho_p, execution="fast")
        dense = dense_mm(S, T)
        assert ours.product.equals(clt.product) and ours.product.equals(dense.product)
        rho_s, rho_t = S.density(), T.density()
        rows.append(
            {
                "workload": name,
                "rho_S": rho_s,
                "rho_T": rho_t,
                "rho_P": rho_p,
                "thm8_rounds": ours.rounds,
                "clt18_rounds": clt.rounds,
                "dense_rounds": dense.rounds,
                "thm8_bound": (rho_s * rho_t * rho_p) ** (1 / 3) / n ** (2 / 3) + 1,
                "clt18_bound": (rho_s * rho_t) ** (1 / 3) / n ** (1 / 3) + 1,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-T14: filtered multiplication
# ----------------------------------------------------------------------
def experiment_t14_filtered(n: int = 96) -> List[Row]:
    """Theorem 14: cost depends on the filter ρ, not the true output density."""
    S = _star_matrix(n)
    T = _star_matrix(n)
    true_density = output_sensitive_mm(S, T, execution="fast").product.density()
    rows: List[Row] = []
    for rho in (1, 2, 4, 8, 16, n):
        result = filtered_mm(S, T, rho=rho)
        rows.append(
            {
                "rho_filter": rho,
                "true_rho_P": true_density,
                "rounds": result.rounds,
                "bound": (S.density() * T.density() * rho) ** (1 / 3) / n ** (2 / 3)
                + math.log2(n ** 3),
                "output_nnz": result.product.nnz(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-T18: k-nearest
# ----------------------------------------------------------------------
def experiment_t18_k_nearest(n: int = 96) -> List[Row]:
    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=11)
    exact = all_pairs_dijkstra(graph)
    rows: List[Row] = []
    for k in (2, 4, 8, 16, 32, int(math.ceil(n ** (2 / 3)))):
        k = min(k, n)
        result = k_nearest(graph, k)
        correct = all(
            sorted(d for d, _ in result.neighbors[v].values())
            == sorted(exact[v])[: min(k, n)]
            for v in range(n)
        )
        rows.append(
            {
                "k": k,
                "rounds": result.rounds,
                "bound": (k / n ** (2 / 3) + math.log2(n)) * math.log2(max(2, k)),
                "exact_distances": correct,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-T19: source detection
# ----------------------------------------------------------------------
def experiment_t19_source_detection(n: int = 96) -> List[Row]:
    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=12)
    m = 2 * graph.num_edges()
    rows: List[Row] = []
    for num_sources in (2, 4, 8, 16, 32):
        sources = list(range(0, n, max(1, n // num_sources)))[:num_sources]
        for d in (2, 4, 8):
            result = source_detection(graph, sources, d=d)
            rows.append(
                {
                    "|S|": len(sources),
                    "d": d,
                    "rounds": result.rounds,
                    "bound": ((m / n) ** (1 / 3) * len(sources) ** (2 / 3) / n + 1) * d,
                    "rounds_per_hop": result.rounds / d,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E-T20: distance through sets
# ----------------------------------------------------------------------
def experiment_t20_through_sets(n: int = 96) -> List[Row]:
    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=13)
    rows: List[Row] = []
    for k in (2, 4, 8, 16, 32):
        knn = k_nearest(graph, k)
        node_sets = [
            {u: (d, d) for u, (d, _h) in knn.neighbors[v].items()} for v in range(n)
        ]
        result = distance_through_sets(n, node_sets)
        rho = sum(len(s) for s in node_sets) / n
        rows.append(
            {
                "set_size_k": k,
                "rho": rho,
                "rounds": result.rounds,
                "bound": rho ** (2 / 3) / n ** (1 / 3) + 1,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-T25: hopsets
# ----------------------------------------------------------------------
def experiment_t25_hopsets(n: int = 80) -> List[Row]:
    from repro.hopsets import verify_hopset_property

    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=14)
    rows: List[Row] = []
    for epsilon in (0.25, 0.5, 1.0):
        hopset = build_hopset(graph, epsilon=epsilon)
        report = verify_hopset_property(
            graph, hopset.edges, hopset.beta, epsilon, sources=range(0, n, 8)
        )
        rows.append(
            {
                "epsilon": epsilon,
                "beta": hopset.beta,
                "beta_bound": math.ceil(12 * math.ceil(math.log2(n)) / epsilon),
                "edges": hopset.size(),
                "size_bound": int(n ** 1.5 * math.log2(n)),
                "measured_stretch": report["max_hop_stretch"],
                "stretch_bound": 1 + epsilon,
                "rounds": hopset.rounds,
                "round_bound_log2n^2/eps": math.log2(n) ** 2 / epsilon,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-T3: multi-source shortest paths
# ----------------------------------------------------------------------
def experiment_t3_mssp(n: int = 96) -> List[Row]:
    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=15)
    epsilon = 0.5
    hopset = build_hopset(graph, epsilon=epsilon)
    exact = all_pairs_dijkstra(graph)
    rows: List[Row] = []
    for num_sources in (1, 2, 4, 8, int(math.isqrt(n)), 2 * int(math.isqrt(n)), n // 2, n):
        sources = list(range(0, n, max(1, n // num_sources)))[:num_sources]
        result = mssp(graph, sources, epsilon=epsilon, hopset=hopset)
        stretch = 1.0
        for v in range(n):
            for index, s in enumerate(result.sources):
                true = exact[s][v]
                if true in (0, math.inf):
                    continue
                stretch = max(stretch, result.distances[v, index] / true)
        rows.append(
            {
                "|S|": len(sources),
                "rounds_excl_hopset": result.rounds,
                "rounds_incl_hopset": result.rounds + hopset.rounds,
                "bound": (len(sources) ** (2 / 3) / n ** (1 / 3) + math.log2(n))
                * math.log2(n)
                / epsilon,
                "stretch": stretch,
                "stretch_bound": 1 + epsilon,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-T28: weighted APSP
# ----------------------------------------------------------------------
def experiment_t28_apsp_weighted(n: int = 80) -> List[Row]:
    rows: List[Row] = []
    for name, graph in (
        ("random weighted", random_weighted_graph(n, average_degree=8, max_weight=16, seed=16)),
        ("weighted grid", grid_graph(int(math.isqrt(n)), int(math.isqrt(n)), max_weight=16, seed=17)),
    ):
        exact = all_pairs_dijkstra(graph)
        for variant, guarantee in (("two_plus_eps", "2+eps,(1+eps)W"), ("three_plus_eps", "3+eps")):
            result = apsp_weighted(graph, epsilon=0.5, variant=variant)
            rows.append(
                {
                    "graph": name,
                    "variant": guarantee,
                    "n": graph.n,
                    "rounds": result.rounds,
                    "round_bound_log2n^2/eps": math.log2(graph.n) ** 2 / 0.5,
                    "max_stretch": result.max_stretch(exact),
                    "stretch_bound": 3.5 if variant == "three_plus_eps" else 2.5,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E-T2: unweighted APSP
# ----------------------------------------------------------------------
def experiment_t2_apsp_unweighted(n: int = 80) -> List[Row]:
    rows: List[Row] = []
    for name, graph in (
        ("ER p=8/n", erdos_renyi(n, 8 / n, seed=18)),
        ("power-law", power_law_graph(n, attachment=2, seed=19)),
        ("grid", grid_graph(int(math.isqrt(n)), int(math.isqrt(n)))),
    ):
        exact = all_pairs_dijkstra(graph)
        for epsilon in (0.5, 1.0):
            result = apsp_unweighted(graph, epsilon=epsilon)
            rows.append(
                {
                    "graph": name,
                    "n": graph.n,
                    "epsilon": epsilon,
                    "rounds": result.rounds,
                    "round_bound_log2n^2/eps": math.log2(graph.n) ** 2 / epsilon,
                    "max_stretch": result.max_stretch(exact),
                    "stretch_bound": 2 + 2 * epsilon,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E-T33: exact SSSP
# ----------------------------------------------------------------------
def experiment_t33_sssp(sizes: Sequence[int] = (36, 64, 100, 144, 196)) -> List[Row]:
    rows: List[Row] = []
    for n in sizes:
        side = int(math.isqrt(n))
        graph = grid_graph(side, side, max_weight=16, seed=20)
        expected = dijkstra(graph, 0)
        ours = exact_sssp(graph, 0)
        baseline = sssp_bellman_ford(graph, 0)
        assert list(ours.distances) == pytest_approx_list(expected)
        rows.append(
            {
                "n": graph.n,
                "thm33_rounds": ours.rounds,
                "thm33_bf_iterations": ours.details["bellman_ford_iterations"],
                "bellman_ford_rounds": baseline.rounds,
                "n^(1/6)": graph.n ** (1 / 6),
                "n^(1/3)_mm_bound": graph.n ** (1 / 3) * math.log2(graph.n),
                "exact": True,
            }
        )
    return rows


def pytest_approx_list(values):
    return [v for v in values]


# ----------------------------------------------------------------------
# E-C35: diameter
# ----------------------------------------------------------------------
def experiment_c35_diameter() -> List[Row]:
    topologies = {
        "path(60)": path_graph(60),
        "grid(8x8)": grid_graph(8, 8),
        "ER(64)": erdos_renyi(64, 0.08, seed=21),
        "weighted ER(64)": random_weighted_graph(64, average_degree=6, max_weight=8, seed=22),
    }
    rows: List[Row] = []
    for name, graph in topologies.items():
        true_diameter = exact_diameter(graph)
        result = approximate_diameter(graph, epsilon=0.5)
        w_max = graph.max_weight()
        rows.append(
            {
                "topology": name,
                "true_D": true_diameter,
                "estimate": result.estimate,
                "lower_bound": 2 * true_diameter / 3 - (w_max if w_max > 1 else 0),
                "upper_bound": 1.5 * true_diameter,
                "rounds": result.rounds,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-BASE: APSP family head-to-head
# ----------------------------------------------------------------------
def experiment_baseline_comparison(sizes: Sequence[int] = (32, 64, 96, 128)) -> List[Row]:
    rows: List[Row] = []
    for n in sizes:
        graph = erdos_renyi(n, 8 / n, seed=23)
        exact = all_pairs_dijkstra(graph)
        ours = apsp_unweighted(graph, epsilon=0.5)
        dense = apsp_dense_mm(graph)
        spanner = apsp_spanner(graph, k=2)
        rows.append(
            {
                "n": n,
                "thm2_rounds": ours.rounds,
                "thm2_stretch": ours.max_stretch(exact),
                "denseMM_rounds": dense.rounds,
                "denseMM_stretch": dense.max_stretch(exact),
                "spanner_rounds": spanner.rounds,
                "spanner_stretch": spanner.max_stretch(exact),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E-PRIM: model primitives on the message-level simulator
# ----------------------------------------------------------------------
def experiment_primitives(sizes: Sequence[int] = (8, 12, 16, 24)) -> List[Row]:
    from repro.cclique import SimNetwork
    from repro.cclique.routing import route_messages
    from repro.cclique.sorting import distributed_sort

    rows: List[Row] = []
    for n in sizes:
        rng = random.Random(n)
        net = SimNetwork(n)
        messages = [(src, dst, (src, dst)) for src in range(n) for dst in range(n)]
        _, routing_rounds = route_messages(net, messages)

        net_sort = SimNetwork(n)
        local = [[rng.randint(0, 10_000) for _ in range(n)] for _ in range(n)]
        _, sorting_rounds = distributed_sort(net_sort, local)
        rows.append(
            {
                "n": n,
                "routing_load": "n per node",
                "routing_rounds": routing_rounds,
                "sorting_rounds": sorting_rounds,
                "claim": "O(1) rounds (Lenzen)",
            }
        )
    return rows
