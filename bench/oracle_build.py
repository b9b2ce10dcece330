"""Workload ``oracle-build``: the operator's build cost on the production path.

Every registered strategy is built with ``OracleBuilder(jobs=1)`` — the
exact row-slab path, which bypasses the simulated-clique code that
``paper-algos`` measures — and written as four row shards.  An op is one
graph served: a ``build_sharded`` call per strategy.  Each artifact is then
loaded with eager checksum verification and queried on 2,000 seeded pairs,
which must satisfy ``true <= estimate <= guarantee(true)``.
"""

from __future__ import annotations

import collections
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro import graphs
from repro.matmul.dense import minplus_blocked
from repro.matmul.parallel import SlabExecutor, minplus_closure
from repro.oracle import (
    STRATEGY_NAMES,
    OracleBuilder,
    QueryEngine,
    get_strategy,
    load_artifact,
    parse_budget,
    plan_fleet,
)
from repro.oracle.parallel_build import weight_matrix

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
NUM_SHARDS = 4
VERIFY_PAIRS = 2000
TOLERANCE = 1e-6
PHASES = ("closure", "spanner", "hopset", "balls", "hitting-set", "shard-write")
#: ``share`` wraps a classic build's own phases in the row-slab executor,
#: so counting it would count those phases twice.
ENCLOSING_PHASES = ("share",)


class OracleBuild:
    name = "oracle-build"
    #: A slice is one call of an op's five: different pieces of work.
    slices_alike = False

    def __init__(self, seed: int, spans: Spans, workdir: Path):
        self.seed = seed
        self.spans = spans
        self.workdir = workdir
        self.strategies = tuple(STRATEGY_NAMES)
        self.bytes: Dict[str, int] = {name: 0 for name in self.strategies}
        self.stretch: Dict[str, float] = {name: 1.0 for name in self.strategies}
        #: Seconds by span name and by build phase; ``phase_coverage`` is
        #: the phases' share of the builds' wall time.
        self.layer_s: Dict[str, float] = collections.defaultdict(float)
        self.phase_s: Dict[str, float] = collections.defaultdict(float)
        self.build_wall_s = 0.0
        self.phase_wall_s = 0.0
        #: Bytes built from the round-0 graph, the one the planner's
        #: estimate in ``layer_metrics`` is made for.
        self.round0_bytes = 0
        self.digests: List[str] = []
        self._round0 = None

    def prepare(self) -> None:
        """Graphs come from ``repro.graphs`` inside each round's set-up."""

    # ------------------------------------------------------------------
    def run_round(self, index: int, budget_s: float, log: RoundLog) -> None:
        probe = SpeedProbe()
        started = time.perf_counter()
        mark = len(self.spans.rows)
        scratch = tempfile.TemporaryDirectory(prefix="build-", dir=self.workdir)
        builders = {name: OracleBuilder(name, epsilon=EPSILON, jobs=1)
                    for name in self.strategies}
        cases = []
        for slot in range(inputs.BUILD_GRAPHS_PER_ROUND):
            with self.spans.span("graphs.generate"):
                graph = inputs.build_graph(self.seed, index, slot)
            with self.spans.span("graphs.all_pairs_dijkstra"):
                exact = np.array(graphs.all_pairs_dijkstra(graph))
            cases.append(_Case(graph, exact, builders,
                               Path(scratch.name) / f"graph{slot}"))
        log.setup = Slice(time.perf_counter() - started, probe.bracket())
        for name, span_s in self.spans.seconds_since(mark).items():
            self.layer_s[name] += span_s
        if index == 0:
            self._round0 = cases[0].graph
        self.digests.extend(inputs.graph_digest(case.graph) for case in cases)

        pairs = inputs.verification_pairs(
            inputs.BUILD_N, VERIFY_PAIRS, inputs.round_seed(self.seed, index, 3))
        with scratch:
            for run in run_units(cases, budget_s, self.spans, probe, log, index):
                # Counts and per-layer seconds come from the round's first
                # graph only: it always runs, whatever the machine's speed
                # lets the budget hold, so they are sums over the same 25
                # builds.
                counted = run.unit is cases[0] and run.lap == 0
                verified = []
                for span_name, result, piece, _pairs in run.calls:
                    if isinstance(result, Exception):
                        verified.append(False)
                        continue
                    _, manifest, shards = result
                    within, artifact, ratios = _verify(manifest, run.unit.exact,
                                                       pairs)
                    verified.append(within)
                    if not counted:
                        continue
                    name = span_name.removeprefix("oracle.build.")
                    self.layer_s[span_name] += piece.seconds
                    self.stretch[name] = max(self.stretch[name],
                                             float(ratios.max()))
                    log.stretch_max = max(log.stretch_max, self.stretch[name])
                    # Shards only: the manifest embeds the build's phase
                    # timings, so its length changes from run to run.
                    size = sum(os.path.getsize(shard) for shard in shards)
                    self.bytes[name] += size
                    if index == 0:
                        self.round0_bytes += size
                    self.build_wall_s += piece.seconds
                    phases = artifact.metadata["build"].get("phases", {})
                    for phase, phase_seconds in phases.items():
                        self.phase_s[phase] += float(phase_seconds)
                        if phase not in ENCLOSING_PHASES:
                            self.phase_wall_s += float(phase_seconds)
                log_unit(log, run, verified)

    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, Metric]:
        graph = self._round0
        out: Dict[str, Metric] = {}
        for name in self.strategies:
            out[f"oracle.build.{name}.s"] = (
                self.layer_s[f"oracle.build.{name}"], "s")
            out[f"oracle.build.{name}.bytes"] = (float(self.bytes[name]), "bytes")
            out[f"oracle.build.{name}.stretch_max"] = (self.stretch[name], "ratio")
        out["oracle.artifact_mib"] = (sum(self.bytes.values()) / 2**20, "MiB")
        for phase in PHASES:
            out[f"oracle.build.phase.{phase}.s"] = (self.phase_s[phase], "s")
        out["oracle.build.phase_coverage"] = (
            self.phase_wall_s / self.build_wall_s, "ratio")
        for name in ("graphs.generate", "graphs.all_pairs_dijkstra"):
            out[f"{name}.s"] = (self.layer_s[name], "s")

        dense = weight_matrix(graph)
        with SlabExecutor(jobs=1, tmp_dir=str(self.workdir)) as executor:
            shared = executor.share("weights", dense)
            seconds, (_closure, steps) = call_seconds(
                lambda: minplus_closure(executor, shared), min_calls=1)
        out["matmul.parallel.minplus_closure.s"] = (seconds, "s")
        out["matmul.parallel.minplus_closure.steps"] = (float(steps), "count")
        out["matmul.dense.minplus_blocked.s"] = (call_seconds(
            lambda: minplus_blocked(dense, dense))[0], "s")

        with tempfile.TemporaryDirectory(prefix="layers-",
                                         dir=self.workdir) as directory:
            directory = Path(directory)
            artifact = OracleBuilder("dense-apsp", epsilon=EPSILON,
                                     jobs=1).build(graph)
            seconds, (manifest, _shards) = call_seconds(
                lambda: artifact.save_sharded(directory / "write.npz", NUM_SHARDS))
            out["oracle.sharding.write.s"] = (seconds, "s")
            out["oracle.sharding.load.s"] = (call_seconds(
                lambda: load_artifact(manifest, verify="lazy"))[0], "s")
            out["oracle.sharding.verify.s"] = (call_seconds(
                lambda: load_artifact(manifest, verify="eager"))[0], "s")

        budgets = [parse_budget(text) for text in ("1", "3", "inf")]
        out["oracle.planner.plan_fleet.s"] = (call_seconds(
            lambda: plan_fleet(graph, budgets=budgets, epsilon=EPSILON))[0], "s")
        estimated = sum(
            get_strategy(name).estimate(graph.n, graph.num_edges(),
                                        EPSILON).payload_bytes
            for name in self.strategies)
        out["oracle.planner.payload_drift"] = (
            estimated / self.round0_bytes, "ratio")
        return out

    def metadata(self) -> Dict[str, object]:
        return {
            "n": inputs.BUILD_N,
            "epsilon": EPSILON,
            "families": inputs.BUILD_FAMILIES,
            "strategies": list(self.strategies),
            "shards": NUM_SHARDS,
            "graph_digests": self.digests,
        }


def _verify(manifest, exact: np.ndarray, pairs: np.ndarray):
    """Load a built artifact with eager checksums and query ``pairs``:
    ``(all within the guarantee, the artifact, estimate / true)``."""
    artifact = load_artifact(manifest, verify="eager")
    estimates = QueryEngine(artifact).batch(pairs.tolist())
    true = exact[pairs[:, 0], pairs[:, 1]]
    upper = artifact.stretch.multiplicative * true + artifact.stretch.additive
    within = bool(np.all(estimates >= true - TOLERANCE)
                  and np.all(estimates <= upper + TOLERANCE))
    return within, artifact, estimates / true


class _Case:
    """One graph of a round: exact distances and a build per strategy."""

    def __init__(self, graph, exact: np.ndarray,
                 builders: Dict[str, OracleBuilder], directory: Path):
        self.graph = graph
        self.exact = exact
        self.builders = builders
        self.directory = directory

    def calls(self, lap: int) -> List[Tuple[str, Callable[[], object], float]]:
        directory = self.directory / f"lap{lap}"
        directory.mkdir(parents=True)
        graph = self.graph
        return [(f"oracle.build.{name}",
                 lambda name=name, builder=builder: builder.build_sharded(
                     graph, directory / f"{name}.npz", NUM_SHARDS),
                 graph.n * graph.n)
                for name, builder in self.builders.items()]
