"""Building oracle artifacts from graphs (the expensive half of the split).

:class:`OracleBuilder` runs one of the paper's Congested Clique
computations once and packages the result as an
:class:`~repro.oracle.artifact.OracleArtifact`: the simulated round count
of the build is recorded in the artifact metadata, so the build/serve
trade-off each strategy makes (rounds and artifact size at build time vs
accuracy and work at query time) stays visible end to end.

A build is one pipeline whatever the strategy and whatever ``jobs``: a
build function produces the payload, the builder assembles the one
metadata dictionary, and :mod:`repro.oracle.sharding` writes the shard
files and the manifest.  Dispatch is registry-driven: the builder resolves
the strategy's :class:`~repro.oracle.strategies.StrategySpec` and calls its
``build_fn`` — a ``(builder, graph) -> (arrays, rounds, detail, phases)``
function — or, when ``jobs`` is given and the strategy has one, its
``slab_build_fn`` (:mod:`repro.oracle.parallel_build`: the exact closure
and the ball rows on ``jobs`` cores, the only two phases ``jobs`` ever
sped up) inside a :class:`~repro.matmul.parallel.SlabExecutor`.
The three built-in ``build_fn`` builds living in this module:

* :func:`build_dense_arrays` wraps :func:`repro.core.apsp_weighted`
  (Theorem 28).
* :func:`build_landmark_arrays` composes :func:`repro.distance.k_nearest`
  (Theorem 18, exact √n-balls), :func:`repro.distance.hitting_set.
  greedy_hitting_set` (Lemma 4 landmarks) and :func:`repro.core.mssp`
  (Theorem 3, the (1 + ε) landmark table) under a single accounting
  context, mirroring the pipeline of Section 6.1.
* :func:`build_exact_arrays` wraps :func:`repro.baselines.apsp_dense_mm`.

``spanner-greedy`` and ``hopset-landmark`` live in their own modules
(:mod:`repro.oracle.spanner`, :mod:`repro.oracle.hopset_landmark`) and
plug in through the same registry path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Any, Dict, Optional

import numpy as np

from repro.baselines.apsp_dense_mm import apsp_dense_mm
from repro.cclique.accounting import Clique
from repro.core.apsp_weighted import apsp_weighted
from repro.core.mssp import mssp
from repro.distance.hitting_set import greedy_hitting_set
from repro.distance.k_nearest import KNearestResult, k_nearest
from repro.graphs.graph import Graph
from repro.matmul.parallel import SlabExecutor
from repro.obs.metrics import get_registry
from repro.oracle import sharding
from repro.oracle.artifact import OracleArtifact
from repro.oracle.strategies import get_strategy, sqrt_k


def record_build_phases(strategy: str, phases: Dict[str, float]) -> None:
    """Publish per-phase build wall-clock onto the obs registry.

    One ``repro_build_phase_seconds_total{strategy,phase}`` counter per
    phase name — builds are rare, so these are plain imperative adds (the
    per-phase dicts in artifact metadata stay the canonical record; this
    mirrors them onto ``/metricsz`` so long-running build fleets can be
    watched).
    """
    registry = get_registry()
    for phase, seconds in phases.items():
        registry.counter(
            "repro_build_phase_seconds_total",
            "Wall-clock seconds spent per oracle build phase",
            labels={"strategy": strategy, "phase": phase},
        ).inc(float(seconds))


@dataclasses.dataclass
class BuildReport:
    """What a build cost and what the resulting artifact guarantees."""

    strategy: str
    n: int
    num_edges: int
    epsilon: float
    rounds: float
    seconds: float
    multiplicative_stretch: float
    additive_stretch: float
    detail: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Worker processes the build ran on (1 for the classic simulated path).
    jobs: int = 1
    #: ``"simulated-clique"`` (the strategy's ``build_fn``, whatever
    #: ``jobs`` asked for), ``"inline"`` (its slab build ran in this
    #: process, ``jobs=1``) or ``"parallel"`` (its slab build ran on a pool
    #: of ``jobs`` workers).  A slab build simulates no rounds.
    mode: str = "simulated-clique"
    #: Per-phase wall-clock seconds (in execution order off ``build()``; a
    #: manifest sorts its keys).
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)

    def summary(self, verbose: bool = False) -> str:
        lines = [
            f"strategy          : {self.strategy}",
            f"graph             : n={self.n}, m={self.num_edges}",
            f"epsilon           : {self.epsilon}",
            f"simulated rounds  : {self.rounds:.0f}",
            f"build wall-clock  : {self.seconds:.2f}s",
            f"stretch guarantee : {self.multiplicative_stretch:g}x"
            + (f" + {self.additive_stretch:g}" if self.additive_stretch else ""),
        ]
        for key, value in sorted(self.detail.items()):
            lines.append(f"{key:<18}: {value}")
        if verbose:
            lines.append(f"workers           : {self.jobs} ({self.mode})")
            for name, seconds in self.phases.items():
                lines.append(f"phase {name:<12}: {seconds:.2f}s")
        return "\n".join(lines)


class OracleBuilder:
    """Build a distance-oracle artifact from a graph.

    Parameters
    ----------
    strategy:
        Any name registered on :data:`repro.oracle.strategies.REGISTRY`
        (see :data:`~repro.oracle.strategies.STRATEGY_NAMES`).
    epsilon:
        Stretch parameter for the approximate strategies (ignored by the
        strategies whose guarantee does not depend on it).
    k:
        Ball size for the landmark strategies — defaults to
        ``ceil(sqrt(n))`` like the paper's APSP pipeline — and the
        spanner parameter for ``spanner-greedy`` (defaults to 2, i.e. a
        3-spanner).
    kernel:
        Pin the local-product kernel used by the build's matrix products
        (``"dict"``/``"csr"``/``"dense"``/``"dense-blocked"``);
        ``None`` lets the cost model choose per product.  Recorded in the
        artifact's build metadata so benchmark artifacts are
        self-describing.
    jobs:
        ``None`` (default) runs the strategy's ``build_fn``, which
        simulates the paper's Congested Clique rounds.  Any integer >= 1
        runs its exact row-slab build instead
        (:mod:`repro.oracle.parallel_build`: ``jobs`` worker processes for
        the closure and the ball rows, ``rounds=0.0`` recorded) if it has
        one; ``spanner-greedy`` and ``hopset-landmark`` have none and run
        their ``build_fn`` at every ``jobs``, with no pool.  ``jobs=1``
        runs the slab tasks inline, in memory — the byte-exact serial
        baseline the parity tests and benchmarks compare against.
    pool:
        Optional pre-started spawn-context pool for the slab builds
        (test hook: shares one pool across many small builds).
    """

    def __init__(self, strategy: str = "landmark-mssp", epsilon: float = 0.5,
                 k: Optional[int] = None, kernel: Optional[str] = None,
                 jobs: Optional[int] = None, pool=None):
        self.spec = get_strategy(strategy)
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.epsilon = float(epsilon)
        self.k = k
        self.kernel = kernel
        self.jobs = jobs
        self.pool = pool

    @contextlib.contextmanager
    def _payload(self, graph: Graph):
        """Run the strategy's build function: yields ``(metadata, arrays)``.

        A pooled slab build's row arrays are the executor's maps, which
        close with the block — copy them or write them out inside it.
        """
        if graph.directed:
            raise ValueError("distance oracles require an undirected graph")
        start = time.perf_counter()
        slab_build = (None if self.jobs is None
                      else self.spec.resolve_slab_build())
        if slab_build is None:
            executor, build_fn = contextlib.nullcontext(), self.spec.resolve_build()
        else:
            executor = SlabExecutor(jobs=self.jobs, pool=self.pool)
            build_fn = functools.partial(slab_build, executor=executor)
        with executor:
            arrays, rounds, detail, phases = build_fn(self, graph)
            max_weight = graph.max_weight()
            guarantee = self.spec.guarantee(self.epsilon, max_weight, self.k)
            metadata: Dict[str, Any] = {
                "strategy": self.spec.name,
                "query_kind": self.spec.query_kind,
                "n": graph.n,
                "num_edges": graph.num_edges(),
                "epsilon": self.epsilon,
                "max_weight": max_weight,
                "stretch": guarantee.as_dict(),
                "build": {"rounds": float(rounds),
                          "seconds": time.perf_counter() - start,
                          "kernel": ("edge-relaxation" if slab_build
                                     else self.kernel or "auto"),
                          "mode": ("simulated-clique" if not slab_build
                                   else "parallel" if self.jobs > 1
                                   else "inline"),
                          "jobs": self.jobs if slab_build else 1,
                          "phases": {name: round(value, 6)
                                     for name, value in phases.items()},
                          **detail},
            }
            yield metadata, arrays

    def build(self, graph: Graph) -> OracleArtifact:
        """Run the strategy's build computation and package the artifact."""
        with self._payload(graph) as (metadata, arrays):
            # A pool's maps are deleted with the block: a product owns its
            # memory (an inline build's arrays are its own already).
            arrays = {name: np.array(value) if isinstance(value, np.memmap)
                      else value for name, value in arrays.items()}
        record_build_phases(self.spec.name, metadata["build"]["phases"])
        artifact = OracleArtifact(metadata=metadata, arrays=arrays)
        artifact.validate()
        return artifact

    def build_sharded(self, graph: Graph, path, num_shards: int = 1,
                      extra_metadata: Optional[Dict[str, Any]] = None):
        """Build and persist as row shards plus a manifest.

        Returns ``(artifact, manifest_path, shard_paths)``; the artifact is
        the written one, opened (:class:`~repro.oracle.sharding.
        ShardedOracleArtifact`: rows served from the maps, so holding it
        pins no payload).  The shard writer streams row slices (views) of
        the build's arrays to disk one shard at a time — out of the
        executor's outputs for a slab build — so no second full copy of
        the payload is ever materialised.  The write is the build's last
        phase, ``shard-write``, and ``build.seconds`` ends after it.
        """
        start = time.perf_counter()
        with self._payload(graph) as (metadata, arrays):
            metadata.update(extra_metadata or {})
            build = metadata["build"]
            tick = time.perf_counter()
            manifest_path, shard_paths, layout = sharding.write_shards(
                metadata, arrays, path, num_shards)
            build["phases"]["shard-write"] = round(
                time.perf_counter() - tick, 6)
        build["seconds"] = time.perf_counter() - start
        record_build_phases(self.spec.name, build["phases"])
        sharding.write_shard_manifest(manifest_path, metadata, layout)
        artifact = sharding.load_artifact(manifest_path, verify="none")
        return artifact, manifest_path, shard_paths

    def report(self, artifact) -> BuildReport:
        """Summarise a built artifact (round counts, stretch, detail).

        Accepts the in-memory :class:`OracleArtifact` or a loaded
        :class:`~repro.oracle.sharding.ShardedOracleArtifact` — both carry
        the same metadata schema.
        """
        build = artifact.metadata["build"]
        skip = ("rounds", "seconds", "jobs", "mode", "phases")
        detail = {k: v for k, v in build.items() if k not in skip}
        stretch = artifact.stretch
        return BuildReport(
            strategy=artifact.strategy,
            n=artifact.n,
            num_edges=int(artifact.metadata["num_edges"]),
            epsilon=artifact.epsilon,
            rounds=float(build["rounds"]),
            seconds=float(build["seconds"]),
            multiplicative_stretch=stretch.multiplicative,
            additive_stretch=stretch.additive,
            detail=detail,
            jobs=int(build.get("jobs", 1)),
            mode=str(build.get("mode", "simulated-clique")),
            phases={name: float(value)
                    for name, value in build.get("phases", {}).items()},
        )


def default_ball_size(builder: OracleBuilder, n: int) -> int:
    """Resolve and validate the builder's ball size (ceil(sqrt(n)) default)."""
    k = builder.k if builder.k is not None else sqrt_k(n)
    if not 1 <= k <= n:
        raise ValueError(f"ball size k={k} out of range [1, {n}]")
    return k


def pack_balls(knn: KNearestResult, n: int, k: int):
    """Pack each node's ``k`` nearest nodes into padded ball arrays.

    Rows follow ``knn.order`` — the ``(dist, hops, id)`` tie-break — and
    are padded with ``-1`` / ``inf`` (which the query engine skips).
    """
    ball_idx = np.full((n, k), -1, dtype=np.int64)
    ball_dist = np.full((n, k), np.inf, dtype=np.float64)
    for v in range(n):
        ball = knn.order[v][:k]
        ball_idx[v, :len(ball)] = ball
        ball_dist[v, :len(ball)] = [knn.neighbors[v][u][0] for u in ball]
    return ball_idx, ball_dist


# ----------------------------------------------------------------------
# built-in build functions (referenced by dotted path from the registry)
# ----------------------------------------------------------------------
def build_dense_arrays(builder: OracleBuilder, graph: Graph):
    """``dense-apsp``: Theorem 28, one dense (2+ε, (1+ε)W) matrix."""
    tick = time.perf_counter()
    result = apsp_weighted(graph, epsilon=builder.epsilon)
    phases = {"apsp": time.perf_counter() - tick}
    arrays = {"dist": np.asarray(result.estimates, dtype=np.float64)}
    detail = {
        "variant": result.details.get("variant", "two_plus_eps"),
        "hitting_set_size": result.details.get("hitting_set_size"),
    }
    return arrays, result.rounds, detail, phases


def build_exact_arrays(builder: OracleBuilder, graph: Graph):
    """``exact-fallback``: exact APSP by iterated min-plus squaring."""
    tick = time.perf_counter()
    result = apsp_dense_mm(graph)
    phases = {"apsp": time.perf_counter() - tick}
    arrays = {"dist": np.asarray(result.estimates, dtype=np.float64)}
    detail = {"squarings": result.details["squarings"]}
    return arrays, result.rounds, detail, phases


def build_landmark_arrays(builder: OracleBuilder, graph: Graph):
    """``landmark-mssp``: balls + hitting-set landmarks + (1+ε) MSSP table."""
    n = graph.n
    k = default_ball_size(builder, n)
    clique = Clique(n)
    phases: Dict[str, float] = {}

    with clique.phase("oracle-build"):
        # Exact balls: every node's k nearest nodes (Theorem 18).
        tick = time.perf_counter()
        knn = k_nearest(graph, k, clique=clique, label="k-nearest",
                        kernel=builder.kernel)
        phases["k-nearest"] = time.perf_counter() - tick

        # Landmarks: a hitting set of the balls (Lemma 4), announced.
        tick = time.perf_counter()
        ball_sets = [knn.nearest_set(v) for v in range(n)]
        landmarks = greedy_hitting_set(ball_sets, n, clique=clique, label="hitting-set")
        clique.charge_broadcast(label="landmark-announce")
        phases["hitting-set"] = time.perf_counter() - tick

        # The (1 + eps) landmark table (Theorem 3; hopset built inside).
        tick = time.perf_counter()
        table = mssp(graph, landmarks, epsilon=builder.epsilon, clique=clique,
                     label="mssp-landmarks", kernel=builder.kernel)
        phases["mssp"] = time.perf_counter() - tick

    tick = time.perf_counter()
    ball_idx, ball_dist = pack_balls(knn, n, k)
    phases["pack-balls"] = time.perf_counter() - tick

    arrays = {
        "landmarks": np.asarray(table.sources, dtype=np.int64),
        "landmark_dist": np.asarray(table.distances, dtype=np.float64),
        "ball_idx": ball_idx,
        "ball_dist": ball_dist,
    }
    detail = {
        "k": k,
        "num_landmarks": len(table.sources),
        "beta": table.details.get("beta"),
        "hopset_edges": table.details.get("hopset_edges"),
    }
    return arrays, clique.rounds, detail, phases


def build_oracle(
    graph: Graph,
    strategy: str = "landmark-mssp",
    epsilon: float = 0.5,
    k: Optional[int] = None,
    kernel: Optional[str] = None,
    jobs: Optional[int] = None,
) -> OracleArtifact:
    """One-call convenience wrapper around :class:`OracleBuilder`."""
    return OracleBuilder(strategy=strategy, epsilon=epsilon, k=k,
                         kernel=kernel, jobs=jobs).build(graph)
