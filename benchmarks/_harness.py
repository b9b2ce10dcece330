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
import time
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
from repro.matmul.dense import HAVE_NUMBA
from repro.matmul.kernels import (
    DISPATCH,
    local_product,
    sparse_dict_product,
    submatrix_product,
)
from repro.matmul.witness import witnessed_product
from repro.oracle import QueryEngine, build_oracle, measure_throughput
from repro.semiring import BOOLEAN, MIN_PLUS, augmented_semiring_for

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
# E-ORACLE: distance-oracle query throughput
# ----------------------------------------------------------------------
def experiment_oracle_queries(
    n: int = 256, queries: int = 20_000, strategies: Sequence[str] = (
        "dense-apsp", "landmark-mssp", "exact-fallback"),
) -> List[Row]:
    """Build each oracle strategy on two graph families, then measure query
    throughput: a cold pass over ``queries`` random pairs, and a cached pass
    over the same pairs.  Latency percentiles come from the engine's own
    ``latency`` window, i.e. the same numbers ``repro oracle bench`` prints.
    """
    side = int(math.isqrt(n))
    families = {
        "random d=8": random_weighted_graph(n, average_degree=8, max_weight=16, seed=41),
        f"grid {side}x{side}": grid_graph(side, side, max_weight=16, seed=42),
    }
    rng = random.Random(43)
    rows: List[Row] = []
    for family, graph in families.items():
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n))
                 for _ in range(queries)]
        for strategy in strategies:
            start = time.perf_counter()
            artifact = build_oracle(graph, strategy=strategy, epsilon=0.5)
            build_seconds = time.perf_counter() - start
            engine = QueryEngine(artifact)
            throughput = measure_throughput(engine, pairs)
            latency = engine.latency.snapshot()
            rows.append(
                {
                    "family": family,
                    "strategy": strategy,
                    "n": graph.n,
                    "build_s": build_seconds,
                    "build_rounds": artifact.build_rounds,
                    "cold_qps": throughput["cold_qps"],
                    "cached_qps": throughput["cached_qps"],
                    "p50_us": latency["p50_us"],
                    "p95_us": latency["p95_us"],
                    "p99_us": latency["p99_us"],
                }
            )
    return rows


# ----------------------------------------------------------------------
# E-KERN: local product kernels (dict vs CSR vs dense) — BENCH_PR2.json
# ----------------------------------------------------------------------
def _random_augmented_matrix(n: int, per_row: int, seed: int, semiring) -> SemiringMatrix:
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, semiring)
    for i in range(n):
        for _ in range(per_row):
            matrix.set(
                i, rng.randrange(n),
                semiring.make(rng.randint(1, 99), rng.randint(1, 3)),
            )
    return matrix


def _random_boolean_matrix(n: int, per_row: int, seed: int) -> SemiringMatrix:
    rng = random.Random(seed)
    matrix = SemiringMatrix(n, BOOLEAN)
    for i in range(n):
        for _ in range(per_row):
            matrix.set(i, rng.randrange(n), True)
    return matrix


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _kernel_row(primitive: str, n: int, per_row: int, dict_fn, kernel_fns,
                auto_kernel: str, check_equal) -> Row:
    """Time the dict reference against pinned kernels for one primitive.

    ``kernel_fns`` maps kernel name -> zero-arg callable; ``check_equal``
    receives (reference_result, kernel_result, kernel_name) and must raise
    on disagreement — equality between kernels is part of the benchmark
    contract, not just the test suite's.
    """
    reference = dict_fn()
    row: Row = {
        "primitive": primitive,
        "n": n,
        "per_row": per_row,
        "kernel_auto": auto_kernel,
        "dict_s": _best_of(dict_fn),
    }
    for name, fn in kernel_fns.items():
        check_equal(reference, fn(), name)
        row[f"{name}_s"] = _best_of(fn)
        row[f"speedup_{name}_vs_dict"] = row["dict_s"] / max(1e-9, row[f"{name}_s"])
    return row


def experiment_kernel_primitives(sizes: Sequence[int] = (64, 256),
                                 per_row: int = 64) -> List[Row]:
    """E-KERN: per-primitive wall-clock of the three product kernels.

    Fixed seeds and sizes so the rows are comparable across PRs; the
    ``--json`` mode of ``bench_primitives.py`` persists them to
    BENCH_PR2.json as the perf-regression baseline.
    """

    def matrices_equal(ref, got, kernel):
        assert got.equals(ref), f"{kernel} kernel disagrees with dict kernel"

    def dicts_equal(ref, got, kernel):
        assert got == ref, f"{kernel} kernel disagrees with dict kernel"

    rows: List[Row] = []
    for n in sizes:
        fill = min(per_row, n)
        S = _random_sparse_matrix(n, fill, seed=11)
        T = _random_sparse_matrix(n, fill, seed=12)
        rows.append(_kernel_row(
            "minplus_product", n, fill,
            lambda: sparse_dict_product(S, T),
            {
                "csr": lambda: local_product(S, T, kernel="csr"),
                "dense": lambda: local_product(S, T, kernel="dense"),
                "dense_blocked":
                    lambda: local_product(S, T, kernel="dense-blocked"),
                **({"jit": lambda: local_product(S, T, kernel="jit")}
                   if HAVE_NUMBA else {}),
            },
            DISPATCH.select(S, T), matrices_equal,
        ))

        rows.append(_kernel_row(
            "filtered_product", n, fill,
            lambda: local_product(S, T, keep=8, kernel="dict"),
            {"csr": lambda: local_product(S, T, keep=8, kernel="csr")},
            DISPATCH.select(S, T), matrices_equal,
        ))

        semiring = augmented_semiring_for(n, 99)
        SA = _random_augmented_matrix(n, max(2, fill // 2), 13, semiring)
        TA = _random_augmented_matrix(n, max(2, fill // 2), 14, semiring)
        rows.append(_kernel_row(
            "augmented_product", n, max(2, fill // 2),
            lambda: sparse_dict_product(SA, TA),
            {
                "csr": lambda: local_product(SA, TA, kernel="csr"),
                "dense": lambda: local_product(SA, TA, kernel="dense"),
                "dense_blocked":
                    lambda: local_product(SA, TA, kernel="dense-blocked"),
                **({"jit": lambda: local_product(SA, TA, kernel="jit")}
                   if HAVE_NUMBA else {}),
            },
            DISPATCH.select(SA, TA), matrices_equal,
        ))

        SB = _random_boolean_matrix(n, fill, 15)
        TB = _random_boolean_matrix(n, fill, 16)
        rows.append(_kernel_row(
            "boolean_product", n, fill,
            lambda: sparse_dict_product(SB, TB),
            {"csr": lambda: local_product(SB, TB, kernel="csr")},
            DISPATCH.select(SB, TB), matrices_equal,
        ))

        half = list(range(n // 2))
        everything = list(range(n))
        rows.append(_kernel_row(
            "submatrix_product", n, fill,
            lambda: submatrix_product(S, T, everything, half, everything,
                                      kernel="dict"),
            {"csr": lambda: submatrix_product(S, T, everything, half,
                                              everything, kernel="csr")},
            DISPATCH.select(S, T, allowed=("dict", "csr")), dicts_equal,
        ))

        def witnessed_equal(ref, got, kernel):
            assert got.product.equals(ref.product), (
                f"{kernel} witnessed kernel disagrees on values")
            assert got.witnesses == ref.witnesses, (
                f"{kernel} witnessed kernel disagrees on witnesses")

        rows.append(_kernel_row(
            "witnessed_product", n, fill,
            lambda: witnessed_product(S, T, kernel="dict"),
            {"csr": lambda: witnessed_product(S, T, kernel="csr")},
            DISPATCH.select(S, T, allowed=("dict", "csr")), witnessed_equal,
        ))
    return rows


def experiment_engine_batch(n: int = 64, queries: int = 20_000) -> List[Row]:
    """E-KERN: vectorised QueryEngine.batch vs the per-pair dist loop.

    Both paths run with caching disabled so the comparison isolates the
    lookup kernel; equality of the answers is asserted.
    """
    import numpy as np

    graph = random_weighted_graph(n, average_degree=8, max_weight=16, seed=44)
    rng = random.Random(45)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(queries)]
    rows: List[Row] = []
    for strategy in ("landmark-mssp", "dense-apsp"):
        artifact = build_oracle(graph, strategy=strategy, epsilon=0.5)
        loop_engine = QueryEngine(artifact, cache_size=0)
        batch_engine = QueryEngine(artifact, cache_size=0)
        loop_values = np.array([loop_engine.dist(u, v) for u, v in pairs])
        assert np.array_equal(loop_values, batch_engine.batch(pairs)), (
            f"batch disagrees with dist loop for {strategy}")
        loop_s = _best_of(
            lambda: [loop_engine.dist(u, v) for u, v in pairs], repeats=2
        )
        batch_s = _best_of(lambda: batch_engine.batch(pairs), repeats=2)
        rows.append({
            "primitive": f"engine_batch_{strategy}",
            "n": n,
            "queries": queries,
            "loop_s": loop_s,
            "batch_s": batch_s,
            "speedup_batch_vs_loop": loop_s / max(1e-9, batch_s),
        })
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
