"""Workload ``paper-algos``: the paper's five headline algorithms.

``core``/``distance``/``hopsets``/``matmul``/``cclique`` accounting do all
the work; ``oracle``/``serve``/``net`` do none.  An op is one case solved:
the five algorithms run on one pair of graphs.  Every estimate they return
is checked against the algorithm's stated guarantee using exact all-pairs
distances computed during set-up.
"""

from __future__ import annotations

import collections
import math
import random
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import core, distance, graphs, hopsets, matmul
from repro.baselines.apsp_dense_mm import apsp_dense_mm
from repro.cclique import SimNetwork
from repro.cclique.routing import route_messages
from repro.cclique.sorting import distributed_sort

from bench import inputs
from bench.harness import (
    Metric,
    RoundLog,
    Slice,
    SpeedProbe,
    Spans,
    call_seconds,
    log_unit,
    run_units,
)

EPSILON = 0.5
TOLERANCE = 1e-6
ALGORITHMS = ("apsp_weighted", "apsp_unweighted", "mssp", "exact_sssp",
              "approximate_diameter")
#: Message-level simulator instance for the routing/sorting probes: full
#: load (n messages per node) at a size the simulator finishes in ms.
SIMULATOR_N = 24


def _sources(n: int) -> List[int]:
    step = max(1, n // math.ceil(math.sqrt(n)))
    return list(range(0, n, step))[:math.ceil(math.sqrt(n))]


class PaperAlgos:
    name = "paper-algos"
    #: A slice is one call of an op's five: different pieces of work.
    slices_alike = False

    def __init__(self, seed: int, spans: Spans, workdir):
        self.seed = seed
        self.spans = spans
        #: Simulated clique rounds charged per algorithm.
        self.rounds: Dict[str, float] = {name: 0.0 for name in ALGORITHMS}
        #: Seconds by span name.
        self.layer_s: Dict[str, float] = collections.defaultdict(float)
        self.digests: List[str] = []
        self._round0 = None

    def prepare(self) -> None:
        """Graphs are generated inside each round's set-up: the generators
        and the Dijkstra references are program code (``repro.graphs``)."""

    # ------------------------------------------------------------------
    def run_round(self, index: int, budget_s: float, log: RoundLog) -> None:
        probe = SpeedProbe()
        started = time.perf_counter()
        mark = len(self.spans.rows)
        cases = [self._case(index, slot)
                 for slot in range(inputs.ALGOS_GRAPHS_PER_ROUND)]
        log.setup = Slice(time.perf_counter() - started, probe.bracket())
        for name, span_s in self.spans.seconds_since(mark).items():
            self.layer_s[name] += span_s
        if index == 0:
            self._round0 = cases[0].weighted
        self.digests.extend(inputs.graph_digest(case.weighted) for case in cases)

        for run in run_units(cases, budget_s, self.spans, probe, log, index):
            # Counts and per-layer seconds come from the round's first case
            # only: it always runs, whatever the machine's speed lets the
            # budget hold after it, so they are sums over the same 25 calls.
            counted = run.unit is cases[0] and run.lap == 0
            verified = []
            for span_name, result, piece, _pairs in run.calls:
                if isinstance(result, Exception):
                    verified.append(False)
                    continue
                name = span_name.removeprefix("core.")
                within, ratios = run.unit.verify(name, result)
                verified.append(within)
                if counted:
                    self.layer_s[span_name] += piece.seconds
                    self.rounds[name] += float(result.rounds)
                    if len(ratios):
                        log.stretch_max = max(log.stretch_max,
                                              float(ratios.max()))
            log_unit(log, run, verified)

    def _case(self, index: int, slot: int) -> "_Case":
        with self.spans.span("graphs.generate"):
            pair = inputs.algos_graphs(self.seed, index, slot)
        with self.spans.span("graphs.all_pairs_dijkstra"):
            exact_w = np.array(graphs.all_pairs_dijkstra(pair["weighted"]))
            exact_u = np.array(graphs.all_pairs_dijkstra(pair["unweighted"]))
        return _Case(pair["weighted"], pair["unweighted"], exact_w, exact_u)

    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, Metric]:
        """Per-layer numbers of a traced run (see README.md for the table)."""
        graph = self._round0
        n = graph.n
        k = math.ceil(math.sqrt(n))
        out: Dict[str, Metric] = {}
        for name in ALGORITHMS:
            out[f"core.{name}.s"] = (self.layer_s[f"core.{name}"], "s")
            out[f"core.{name}.rounds"] = (self.rounds[name], "rounds")
        out["core.clique_rounds"] = (sum(self.rounds.values()), "rounds")
        for name in ("graphs.generate", "graphs.all_pairs_dijkstra"):
            out[f"{name}.s"] = (self.layer_s[name], "s")

        nearest_s, nearest = call_seconds(lambda: distance.k_nearest(graph, k))
        out["distance.k_nearest.s"] = (nearest_s, "s")
        out["distance.source_detection.s"] = (call_seconds(
            lambda: distance.source_detection(graph, _sources(n), d=k, k=k))[0],
            "s")
        node_sets = [{u: (d, d) for u, (d, _hops) in row.items()}
                     for row in nearest.neighbors]
        out["distance.distance_through_sets.s"] = (call_seconds(
            lambda: distance.distance_through_sets(n, node_sets))[0], "s")
        balls = [list(row) for row in nearest.neighbors]
        out["distance.greedy_hitting_set.s"] = (call_seconds(
            lambda: distance.greedy_hitting_set(balls, n))[0], "s")
        hopset_s, hopset = call_seconds(
            lambda: hopsets.build_hopset(graph, EPSILON), min_calls=1)
        out["hopsets.build_hopset.s"] = (hopset_s, "s")
        out["hopsets.build_hopset.edges"] = (float(hopset.size()), "count")
        out["hopsets.build_hopset.beta"] = (float(hopset.beta), "count")

        # W (x) W of the round-0 weight matrix, squared once first so the
        # operands have ~deg^2 entries per row instead of ~deg.
        weights = distance.weight_matrix(graph)
        operand = matmul.local_product(weights, weights, kernel="dict")
        rho = operand.density()
        products = {
            "filtered_mm": lambda: matmul.filtered_mm(operand, operand, rho=rho),
            "output_sensitive_mm":
                lambda: matmul.output_sensitive_mm(operand, operand),
            "sparse_mm_clt18": lambda: matmul.sparse_mm_clt18(operand, operand),
            "dense_mm": lambda: matmul.dense_mm(operand, operand),
        }
        for name, call in products.items():
            seconds, result = call_seconds(call, min_calls=1)
            out[f"matmul.{name}.s"] = (seconds, "s")
            out[f"matmul.{name}.rounds"] = (float(result.rounds), "rounds")
        for kernel in ("dict", "csr", "dense", "dense-blocked"):
            out[f"matmul.local_product.{kernel}.s"] = (call_seconds(
                lambda: matmul.local_product(operand, operand, kernel=kernel))[0],
                "s")

        m = SIMULATOR_N
        messages = [(src, dst, (src, dst)) for src in range(m) for dst in range(m)]
        seconds, (_delivered, rounds) = call_seconds(
            lambda: route_messages(SimNetwork(m), messages))
        out["cclique.routing.s"] = (seconds, "s")
        out["cclique.routing.rounds"] = (float(rounds), "rounds")
        rng = random.Random(self.seed)
        local = [[rng.randint(0, 10_000) for _ in range(m)] for _ in range(m)]
        seconds, (_sorted, rounds) = call_seconds(
            lambda: distributed_sort(SimNetwork(m), local))
        out["cclique.sorting.s"] = (seconds, "s")
        out["cclique.sorting.rounds"] = (float(rounds), "rounds")
        out["baselines.apsp_dense_mm.s"] = (call_seconds(
            lambda: apsp_dense_mm(graph), min_calls=1)[0], "s")
        return out

    def metadata(self) -> Dict[str, object]:
        weights = distance.weight_matrix(self._round0)
        return {
            "n": inputs.ALGOS_N,
            "epsilon": EPSILON,
            "graph_digests": self.digests,
            "kernel_tier": matmul.KernelDispatch().select(weights, weights),
        }


class _Case:
    """One graph pair of a round: inputs, exact references, the five calls."""

    def __init__(self, weighted, unweighted, exact_w: np.ndarray,
                 exact_u: np.ndarray):
        self.weighted = weighted
        self.exact_w = exact_w
        self.exact_u = exact_u
        n = weighted.n
        self.sources = sources = _sources(n)
        self._calls: List[Tuple[str, Callable[[], object], float]] = [
            ("core.apsp_weighted",
             lambda: core.apsp_weighted(weighted, epsilon=EPSILON), n * n),
            ("core.apsp_unweighted",
             lambda: core.apsp_unweighted(unweighted, epsilon=EPSILON), n * n),
            ("core.mssp",
             lambda: core.mssp(weighted, sources, epsilon=EPSILON),
             len(sources) * n),
            ("core.exact_sssp", lambda: core.exact_sssp(weighted, sources[0]), n),
            ("core.approximate_diameter",
             lambda: core.approximate_diameter(weighted, epsilon=EPSILON), n),
        ]

    def calls(self, lap: int) -> List[Tuple[str, Callable[[], object], float]]:
        return self._calls

    def verify(self, name: str, result) -> Tuple[bool, np.ndarray]:
        """``(within the stated guarantee, estimate / true of every pair)``."""
        exact_w, exact_u = self.exact_w, self.exact_u
        w_max = self.weighted.max_weight()
        if name == "apsp_weighted":  # Theorem 28: (2+eps)d + (1+eps)W
            return _check(result.estimates, exact_w,
                          (2 + EPSILON) * exact_w + (1 + EPSILON) * w_max)
        if name == "apsp_unweighted":  # Theorems 2/31
            return _check(result.estimates, exact_u,
                          (2 + 2 * EPSILON) * exact_u)
        if name == "mssp":  # Theorem 3: (1+eps)d
            true = exact_w[:, self.sources]
            return _check(result.distances, true, (1 + EPSILON) * true)
        if name == "exact_sssp":  # Theorem 33: exact
            true = exact_w[self.sources[0]]
            return _check(result.distances, true, true)
        # Claim 35: estimate in [2h + min(z,1) - W, (1+eps)D] for D = 3h + z.
        diameter = float(exact_w[np.isfinite(exact_w)].max())
        h, z = divmod(diameter, 3)
        lower = 2 * h + min(z, 1) - (w_max if w_max > 1 else 0)
        ok = (lower - TOLERANCE <= result.estimate
              <= (1 + EPSILON) * diameter + TOLERANCE)
        return ok, np.empty(0)


def _check(estimates: np.ndarray, true: np.ndarray,
           upper: np.ndarray) -> Tuple[bool, np.ndarray]:
    """``true <= estimate <= upper`` on every reachable pair, and the
    ``estimate / true`` ratios of the pairs at positive distance."""
    estimates = np.asarray(estimates, dtype=np.float64)
    reachable = np.isfinite(true)
    ok = bool(np.all(estimates[reachable] >= true[reachable] - TOLERANCE)
              and np.all(estimates[reachable] <= upper[reachable] + TOLERANCE)
              and np.all(np.isinf(estimates[~reachable])))
    positive = reachable & (true > 0)
    return ok, estimates[positive] / true[positive]
