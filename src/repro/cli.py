"""Command-line interface.

A thin front end over the library for quick experimentation without writing
a script::

    python -m repro apsp      --n 96 --epsilon 0.5 --weighted
    python -m repro mssp      --n 96 --sources 8
    python -m repro sssp      --n 144 --grid
    python -m repro diameter  --n 64
    python -m repro hopset    --n 80 --epsilon 0.5
    python -m repro matmul    --n 128 --density 8

Each subcommand generates a seeded workload, runs the corresponding
algorithm, validates the guarantee against sequential ground truth, and
prints a short report including the simulated round count and (with
``--breakdown``) where the rounds were spent.

The ``oracle`` subcommand group is the build-once / query-many split::

    python -m repro oracle build out --strategy landmark-mssp --n 96
    python -m repro oracle build big --strategy dense-apsp --n 4096 --shards 16
    python -m repro oracle shard out out-8 --shards 8
    python -m repro oracle query out --pairs 0:5,3:7 --stats

``loadgen`` drives a verified Zipf workload through an in-process server;
``net serve --self-test`` drives the same workload over TCP through a
worker fleet behind a front tier::

    python -m repro loadgen out --queries 20000 --verify
    python -m repro net serve out --workers 2 --self-test 2000

An artifact on disk is memory-mappable row shards (``.shard-K.npz``) plus
a ``.shards.json`` manifest — one shard unless ``--shards`` says more;
``query``, ``loadgen`` and ``net serve`` take the base path, the base with
``.npz``, or the manifest.  Query throughput is measured by
``bench/run.py``.

A command that fails cleanly raises :class:`CommandError`; :func:`main`
prints ``error: <message>`` and returns its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import random
import sys
from typing import Dict, List, Optional, Tuple

from repro import (
    apsp_unweighted,
    apsp_weighted,
    approximate_diameter,
    build_hopset,
    exact_sssp,
    mssp,
    output_sensitive_mm,
    sparse_mm_clt18,
    dense_mm,
)
from repro.baselines import apsp_dense_mm, sssp_bellman_ford
from repro.graphs import (
    all_pairs_dijkstra,
    dijkstra,
    erdos_renyi,
    exact_diameter,
    grid_graph,
    load_edge_list,
    random_weighted_graph,
)
from repro.graphs.reference import approximation_ratio
from repro.hopsets import verify_hopset_property
from repro.matmul import SemiringMatrix
from repro.matmul.kernels import KERNEL_NAMES
from repro.oracle import (
    STRATEGY_NAMES,
    ArtifactError,
    OracleBuilder,
    QueryEngine,
    load_artifact,
    shard_artifact,
)
from repro.semiring import MIN_PLUS

#: A request's stretch budget: ``(multiplicative, additive)``.
Budget = Tuple[float, float]


class CommandError(Exception):
    """A clean command failure: :func:`main` prints it and exits ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _failing(code: int, *errors: type, prefix: str = ""):
    """Re-raise ``errors`` from the block as a :class:`CommandError`."""
    try:
        yield
    except CommandError:
        raise
    except errors as exc:
        raise CommandError(code, f"{prefix}{exc}") from exc


def _build_graph(args: argparse.Namespace):
    if getattr(args, "grid", False):
        side = int(math.isqrt(args.n))
        return grid_graph(side, side, max_weight=args.max_weight, seed=args.seed)
    if getattr(args, "weighted", True):
        return random_weighted_graph(
            args.n, average_degree=args.degree, max_weight=args.max_weight, seed=args.seed
        )
    return erdos_renyi(args.n, args.degree / args.n, seed=args.seed)


def _graph_from_args(args: argparse.Namespace):
    """``(graph, file node ids)`` from ``--graph FILE``, else a generated
    graph with ids ``None`` (its internal ids are the public ones)."""
    if not args.graph:
        return _build_graph(args), None
    with _failing(1, OSError, ValueError,
                  prefix=f"cannot load graph {args.graph}: "):
        return load_edge_list(args.graph)


def _print_common(result, breakdown: bool) -> None:
    print(f"simulated rounds : {result.rounds:.0f}")
    if breakdown:
        print(result.clique.report())


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_apsp(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    exact = all_pairs_dijkstra(graph)
    if args.weighted:
        result = apsp_weighted(graph, epsilon=args.epsilon)
        guarantee = f"(2+{args.epsilon}, (1+{args.epsilon})W)"
    else:
        result = apsp_unweighted(graph, epsilon=args.epsilon)
        guarantee = f"(2+{args.epsilon})"
    worst, mean = approximation_ratio([list(r) for r in result.estimates], exact)
    print(f"APSP approximation on n={graph.n}, m={graph.num_edges()}")
    print(f"guarantee        : {guarantee}")
    print(f"max stretch      : {worst:.3f}")
    print(f"mean stretch     : {mean:.3f}")
    _print_common(result, args.breakdown)
    if args.compare_baseline:
        baseline = apsp_dense_mm(graph)
        print(f"baseline (exact dense-MM APSP) rounds: {baseline.rounds:.0f}")
    return 0


def cmd_mssp(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    step = max(1, graph.n // args.sources)
    sources = list(range(0, graph.n, step))[: args.sources]
    result = mssp(graph, sources, epsilon=args.epsilon)
    worst = 1.0
    for s in result.sources:
        exact = dijkstra(graph, s)
        for v in range(graph.n):
            if exact[v] not in (0, math.inf):
                worst = max(worst, result.distance(v, s) / exact[v])
    print(f"MSSP from {len(result.sources)} sources on n={graph.n}")
    print(f"guarantee        : 1+{args.epsilon}")
    print(f"max stretch      : {worst:.3f}")
    _print_common(result, args.breakdown)
    return 0


def cmd_sssp(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    result = exact_sssp(graph, args.source)
    expected = dijkstra(graph, args.source)
    exact = all(
        (math.isinf(result.distances[v]) and expected[v] == math.inf)
        or abs(result.distances[v] - expected[v]) < 1e-9
        for v in range(graph.n)
    )
    print(f"exact SSSP from node {args.source} on n={graph.n}")
    print(f"exact            : {exact}")
    print(f"BF iterations    : {result.details['bellman_ford_iterations']}")
    _print_common(result, args.breakdown)
    if args.compare_baseline:
        baseline = sssp_bellman_ford(graph, args.source)
        print(f"baseline (plain Bellman-Ford) rounds: {baseline.rounds:.0f}")
    return 0


def cmd_diameter(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    result = approximate_diameter(graph, epsilon=args.epsilon)
    true_diameter = exact_diameter(graph)
    print(f"diameter approximation on n={graph.n}")
    print(f"true diameter    : {true_diameter:.0f}")
    print(f"estimate         : {result.estimate:.0f}")
    print(f"window           : [{2 * true_diameter / 3 - graph.max_weight():.1f}, "
          f"{(1 + args.epsilon) * true_diameter:.1f}]")
    _print_common(result, args.breakdown)
    return 0


def cmd_hopset(args: argparse.Namespace) -> int:
    graph = _build_graph(args)
    result = build_hopset(graph, epsilon=args.epsilon)
    report = verify_hopset_property(
        graph, result.edges, result.beta, args.epsilon,
        sources=range(0, graph.n, max(1, graph.n // 16)),
    )
    print(f"hopset on n={graph.n}: {result.size()} edges, beta={result.beta}")
    print(f"measured beta-hop stretch : {report['max_hop_stretch']:.3f} "
          f"(guarantee {1 + args.epsilon})")
    print(f"violations                : {int(report['violations'])}")
    print(f"simulated rounds          : {result.rounds:.0f}")
    if args.breakdown:
        print(result.clique.report())
    return 0


def cmd_matmul(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    S = SemiringMatrix(args.n, MIN_PLUS)
    T = SemiringMatrix(args.n, MIN_PLUS)
    for matrix in (S, T):
        for i in range(args.n):
            for _ in range(args.density):
                matrix.set(i, rng.randrange(args.n), float(rng.randint(1, 99)))
    clt = sparse_mm_clt18(S, T)
    # the paper's applications always know the output density in advance;
    # reuse the density of the (already computed) reference product here.
    ours = output_sensitive_mm(S, T, rho_hat=clt.product.density())
    dense = dense_mm(S, T)
    print(f"sparse matrix product, n={args.n}, per-row density {args.density}")
    print(f"rho_S={S.density()} rho_T={T.density()} rho_P={ours.product.density()}")
    print(f"Theorem 8 rounds : {ours.rounds:.0f}")
    print(f"CLT18 rounds     : {clt.rounds:.0f}")
    print(f"dense 3D rounds  : {dense.rounds:.0f}")
    print(f"products agree   : {ours.product.equals(clt.product) and ours.product.equals(dense.product)}")
    return 0


# ----------------------------------------------------------------------
# oracle subcommands
# ----------------------------------------------------------------------
def _parse_pairs(text: str) -> List[Tuple[int, int]]:
    """Parse ``"0:5,3:7"`` into ``[(0, 5), (3, 7)]``."""
    pairs: List[Tuple[int, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected 'u:v', got {chunk!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    if not pairs:
        raise ValueError("no query pairs given")
    return pairs


def _load_engine(path: str) -> QueryEngine:
    return QueryEngine(load_artifact(path))


def _node_translation(engine: QueryEngine):
    """Original-id <-> internal-id mapping for artifacts built from files.

    Returns ``(to_original, to_internal)``; both are ``None`` for artifacts
    built from generated workloads (internal ids are the public ids).
    """
    ids = engine.artifact.metadata.get("node_ids")
    if ids is None:
        return None, None
    return list(ids), {original: i for i, original in enumerate(ids)}


def cmd_oracle_build(args: argparse.Namespace) -> int:
    graph, original_ids = _graph_from_args(args)
    kernel = None if args.kernel in (None, "auto") else args.kernel
    extra_metadata = None
    if original_ids is not None:
        # Node ids in the file may be arbitrary; persist the mapping so
        # queries speak the file's ids, not the compacted internal ones.
        extra_metadata = {
            "node_ids": [original_ids[i] for i in range(graph.n)]}
    with _failing(2, ArtifactError, ValueError):
        builder = OracleBuilder(strategy=args.strategy, epsilon=args.epsilon,
                                k=args.k, kernel=kernel, jobs=args.jobs)
        artifact, manifest_path, shard_paths = builder.build_sharded(
            graph, args.artifact, args.shards, extra_metadata=extra_metadata)
    print(f"oracle build: {args.strategy} on n={graph.n}, m={graph.num_edges()}")
    print(builder.report(artifact).summary(verbose=args.verbose))
    print(f"manifest         : {manifest_path}")
    print(f"shards           : {len(shard_paths)} memory-mappable files "
          f"({shard_paths[0].name} .. {shard_paths[-1].name})")
    return 0


def cmd_oracle_strategies(args: argparse.Namespace) -> int:
    """List every registered strategy straight from the registry.

    The listing is registry-derived — a strategy registered by a plugin
    or a test shows up here with its guarantee and size estimates, no
    CLI change needed.
    """
    from repro.oracle.strategies import REGISTRY

    n = args.n
    m = int(round(args.n * args.degree / 2.0))
    print(f"registered oracle strategies ({len(REGISTRY)}); estimates at "
          f"n={n} m={m} epsilon={args.epsilon:g} max_weight={args.max_weight:g}:")
    for spec in REGISTRY.specs():
        guarantee = spec.guarantee(args.epsilon, args.max_weight)
        stretch = f"{guarantee.multiplicative:g}x"
        if guarantee.additive:
            stretch += f"+{guarantee.additive:g}"
        estimate = spec.estimate(n, m, args.epsilon)
        print(f"\n  {spec.name}  (query_kind={spec.query_kind}, "
              f"{'epsilon-sensitive' if spec.uses_epsilon else 'epsilon-free'})")
        print(f"    {spec.summary}")
        print(f"    guarantee    : {stretch}")
        print(f"    est. payload : {estimate.payload_bytes / 1e6:.2f} MB "
              f"({estimate.payload_floats:,.0f} floats)")
        print(f"    est. query   : {estimate.query_cost:g} lookups")
        print(f"    arrays       : {', '.join(spec.required_arrays)}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Plan (and optionally build) a stretch-budget artifact fleet."""
    from repro.oracle.planner import (
        PlanError,
        execute_plan,
        parse_budget,
        plan_fleet,
    )

    graph, _original_ids = _graph_from_args(args)
    budget_texts = args.budget or ["3", "4.5", "inf"]
    with _failing(2, PlanError):
        budgets = [parse_budget(text) for text in budget_texts]
        max_resident = (math.inf if math.isinf(args.max_resident_mb)
                        else args.max_resident_mb * 1e6 / 8.0)
        plan = plan_fleet(
            graph,
            budgets=budgets,
            epsilon=args.epsilon,
            max_query_cost=args.max_query_cost,
            max_resident_floats=max_resident,
            shard_target_bytes=args.shard_target_mb * 1024 * 1024,
        )
    print(plan.summary())
    if not args.out:
        print("\n(dry run; pass --out DIR to build the fleet)")
        return 0
    with _failing(1, ArtifactError, ValueError):
        execution = execute_plan(plan, graph, args.out, jobs=args.jobs)
    print(f"\nbuilt {len(plan.builds())} artifact(s) into {args.out}")
    for choice in plan.choices:
        print(f"  budget {choice.budget.multiplicative:g}x -> "
              f"{execution.artifact_for(choice)}")
    print(f"manifest         : {execution.manifest_path}")
    print(f"boot it with     : python -m repro net serve "
          f"{execution.manifest_path}")
    return 0


def cmd_oracle_shard(args: argparse.Namespace) -> int:
    """Re-shard an existing artifact on disk."""
    if args.shards < 1:
        raise CommandError(2, f"--shards must be positive, got {args.shards}")
    with _failing(1, ArtifactError, ValueError):
        manifest_path, shard_paths = shard_artifact(
            args.source, args.artifact, args.shards)
    print(f"oracle shard: {args.source} -> {len(shard_paths)} shards")
    print(f"manifest         : {manifest_path}")
    for shard in shard_paths:
        print(f"shard            : {shard.name} ({shard.stat().st_size} bytes)")
    return 0


def cmd_oracle_query(args: argparse.Namespace) -> int:
    with _failing(1, ArtifactError):
        engine = _load_engine(args.artifact)
    to_original, to_internal = _node_translation(engine)

    def internal(node: int) -> int:
        if to_internal is None:
            return node
        try:
            return to_internal[node]
        except KeyError:
            raise ValueError(f"node {node} is not in the graph the oracle "
                             "was built from") from None

    # A bad argument exits 2.  Sharded artifacts verify checksums on first
    # fault, so corruption (exit 1) can surface at query time, not just
    # at load time.
    did_something = False
    if args.pairs is not None:
        with _failing(2, ValueError, prefix="bad --pairs value: "):
            pairs = _parse_pairs(args.pairs)
            internal_pairs = [(internal(u), internal(v)) for u, v in pairs]
        # Deduplicate (symmetric) repeats before hitting the engine, then
        # fan the answers back out in input order — repeated pairs on the
        # command line cost one query, not one per occurrence.
        unique: List[Tuple[int, int]] = []
        position: dict = {}
        order = []
        for iu, iv in internal_pairs:
            key = (iu, iv) if iu <= iv else (iv, iu)
            if key not in position:
                position[key] = len(unique)
                unique.append(key)
            order.append(position[key])
        with _failing(2, ValueError, prefix="bad --pairs value: "), \
                _failing(1, ArtifactError):
            values = engine.batch(unique)
        for (u, v), index in zip(pairs, order):
            print(f"dist({u}, {v}) = {values[index]:g}")
        did_something = True
    if args.k_nearest is not None:
        with _failing(2, ValueError,
                      prefix=f"bad --k-nearest value {args.k_nearest!r}: "), \
                _failing(1, ArtifactError):
            u, k = (int(part) for part in args.k_nearest.split(":"))
            nearest = engine.k_nearest(internal(u), k)
        for node, value in nearest:
            shown = node if to_original is None else to_original[node]
            print(f"nearest({u}): node {shown} at {value:g}")
        did_something = True
    if args.stats or not did_something:
        latency = engine.latency.snapshot()
        print(f"strategy         : {engine.strategy} (n={engine.n})")
        print(f"queries          : {engine.stats()['queries']}")
        print(f"cache hit rate   : {engine.cache.hit_rate:.3f}")
        if latency["count"]:
            print(f"latency P50/P95/P99 (us): {latency['p50_us']:.1f} / "
                  f"{latency['p95_us']:.1f} / {latency['p99_us']:.1f}")
    return 0


# ----------------------------------------------------------------------
# load-driving subcommands
# ----------------------------------------------------------------------
def _serve_registry(args: argparse.Namespace):
    from repro.serve import RegistryError, build_registry

    with _failing(1, ArtifactError, RegistryError, ValueError):
        return build_registry(args.artifacts, capacity=args.capacity)


def _budget_mix(args: argparse.Namespace) -> List[Tuple[Budget, float]]:
    """``--stretch-mix`` as ``[(budget, weight)]``; without it the fixed
    ``--stretch``/``--additive`` budget is a one-entry mix.

    The mix is ``"mult[+add]:weight,..."`` and a missing ``:weight`` is 1;
    e.g. ``"3:1,4.5:2,inf"`` sends a quarter of requests with a 3x budget,
    half with 4.5x, a quarter unconstrained.
    """
    text = getattr(args, "stretch_mix", None)
    if not text:
        return [((args.stretch, args.additive), 1.0)]
    from repro.oracle.planner import parse_budget

    entries = []
    with _failing(2, ValueError, prefix="bad --stretch-mix value: "):
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            budget_text, sep, weight_text = chunk.rpartition(":")
            if not sep:
                budget_text, weight_text = chunk, "1"
            budget = parse_budget(budget_text)
            try:
                weight = float(weight_text)
            except ValueError:
                raise ValueError(f"bad weight {weight_text!r} in stretch-mix "
                                 f"entry {chunk!r}") from None
            if weight <= 0:
                raise ValueError(
                    f"stretch-mix weight must be positive in {chunk!r}")
            entries.append(((budget.multiplicative, budget.additive), weight))
        if not entries:
            raise ValueError("empty --stretch-mix")
    return entries


class _Workload:
    """The verified Zipf workload every load-driving command runs.

    Every budget of the mix is routed up front: each must be routable, and
    the pairs are sampled from the node range of the *smallest* artifact a
    request can land on (with several graphs behind one registry the
    cheapest admissible artifact may be the smallest).  Each pair draws its
    budget by weight.  ``loadgen`` runs it through an in-process
    :class:`~repro.serve.DistanceServer`, ``net serve``/``chaos run
    --self-test`` through a :class:`~repro.net.frontend.NetClient`.
    """

    def __init__(self, router, mix: List[Tuple[Budget, float]],
                 queries: int, args: argparse.Namespace):
        from repro.serve import RoutingError, zipf_pairs

        with _failing(1, RoutingError):
            self.routed = [router.route(*budget) for budget, _weight in mix]
        self.pairs = zipf_pairs(min(routed.entry.n for routed in self.routed),
                                queries, skew=args.zipf, seed=args.seed)
        self.chosen = random.Random(args.seed + 1).choices(
            range(len(mix)), weights=[weight for _budget, weight in mix],
            k=queries)
        self.budgets = [mix[index][0] for index in self.chosen]
        print("stretch mix      : " + ", ".join(
            f"{budget[0]:g}x->{routed.name} (w={weight:g})"
            for (budget, weight), routed in zip(mix, self.routed)))

    async def run(self, target, args: argparse.Namespace, *, verify: bool,
                  open_loop: bool = False, **options):
        """Drive the pairs through ``target``; with ``verify``, replay every
        answer against the artifact its budget routed to."""
        from repro.serve import count_mismatches, run_closed_loop, run_open_loop

        if open_loop:
            report = await run_open_loop(target, self.pairs, qps=args.qps,
                                         budgets=self.budgets, **options)
        else:
            report = await run_closed_loop(
                target, self.pairs, concurrency=args.concurrency,
                budgets=self.budgets, **options)
        if verify:
            report.mismatches = 0
            for index, routed in enumerate(self.routed):
                group = [i for i, choice in enumerate(self.chosen)
                         if choice == index]
                if group:
                    report.mismatches += count_mismatches(
                        [self.pairs[i] for i in group],
                        [report.answers[i] for i in group],
                        _load_engine(str(routed.entry.path)))
        return report


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a workload through an in-process server; report (and verify)."""
    import asyncio
    import json

    from repro.serve import (
        DistanceServer,
        ServerConfig,
        StretchRouter,
        residency_report,
    )

    if args.queries <= 0:
        raise CommandError(2, f"--queries must be positive, got {args.queries}")
    mix = _budget_mix(args)
    registry = _serve_registry(args)
    with _failing(1, ValueError):
        config = ServerConfig(coalesce_window=args.window_ms / 1000.0,
                              max_batch=args.max_batch,
                              queue_capacity=args.queue_capacity,
                              overload_policy=args.policy)
    router = StretchRouter(registry)
    print(f"serving {len(registry)} artifact(s) "
          f"(engine capacity {registry.capacity}):")
    for entry in registry.entries():
        print(f"  {entry.describe()}")
    workload = _Workload(router, mix, args.queries, args)

    async def drive():
        async with DistanceServer(router, config) as server:
            report = await workload.run(
                server, args, verify=args.verify,
                open_loop=args.mode == "open",
                collect_samples=bool(args.raw_jsonl))
            return report, server.stats()

    with _failing(1, Exception):
        report, stats = asyncio.run(drive())
    if args.report_residency:
        report.residency = residency_report(registry.loaded_engines())
    print(report.summary())
    print("\n-- server stats --")
    print(f"engine batches   : {stats['engine_batches']} "
          f"({stats['coalesced_keys']} coalesced keys)")
    print(f"coalescing       : mode={'fixed' if args.window_ms > 0 else 'off'} "
          f"window={args.window_ms:g}ms")
    print(f"routes           : {dict(sorted(router.routes.items()))}")
    for name, engine in sorted(registry.loaded_engines().items()):
        print(f"engine[{name}]: queries={engine.stats()['queries']} "
              f"hit_rate={engine.cache.hit_rate:.3f}")
    if args.raw_jsonl:
        written = report.write_samples_jsonl(args.raw_jsonl)
        print(f"appended {written} raw samples to {args.raw_jsonl}")
    payload = {"schema": "repro-loadgen/v1", "report": report.as_dict(),
               "artifacts": [entry.name for entry in registry.entries()]}
    if args.json_out:
        from pathlib import Path

        Path(args.json_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_out}")
    return 1 if args.verify and report.mismatches else 0


@contextlib.contextmanager
def _fleet_environment(trace_sample: Optional[float],
                       variables: Dict[str, str]):
    """Export ``variables`` and the trace sample rate while a fleet runs.

    Worker processes inherit the environment at spawn, so the whole fleet
    runs the same fault plan and samples at the same rate.  On the way out
    every variable and this process's sample rate are what they were.
    """
    from repro.obs.tracing import SAMPLE_ENV_VAR, get_tracer, set_sample_rate

    if trace_sample is not None:
        variables = {**variables, SAMPLE_ENV_VAR: str(trace_sample)}
    saved = {name: os.environ.get(name) for name in variables}
    rate = get_tracer().sample_rate
    os.environ.update(variables)
    if trace_sample is not None:
        set_sample_rate(trace_sample)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        set_sample_rate(rate)


def cmd_net_serve(args: argparse.Namespace,
                  environment: Optional[Dict[str, str]] = None) -> int:
    """Spawn a worker fleet + front tier; serve until interrupted.

    ``--self-test N`` instead drives N verified queries through the
    whole stack (client -> frontend -> workers -> engines) and exits —
    the one-command proof that the fleet answers correctly over TCP.
    ``environment`` is exported to the fleet for its lifetime.
    """
    import asyncio
    import signal

    from repro.net.bench import NET_ERROR_TYPES
    from repro.net.cluster import Cluster
    from repro.net.frontend import Frontend, NetClient
    from repro.net.protocol import NetError
    from repro.serve import RegistryError, ServerConfig, StretchRouter

    registry = _serve_registry(args)
    workload = None
    if args.self_test:
        workload = _Workload(StretchRouter(registry), _budget_mix(args),
                             args.self_test, args)
    with _failing(1, ArtifactError, RegistryError, ValueError, OSError):
        # max_batch is all a worker reads; reject it here, not in N workers.
        ServerConfig(max_batch=args.max_batch)
        cluster = Cluster(args.artifacts, num_workers=args.workers,
                          host=args.host, base_port=args.worker_base_port,
                          max_batch=args.max_batch, capacity=args.capacity)
        frontend = Frontend(args.artifacts, cluster.addresses,
                            host=args.host, port=args.port)

    async def drive() -> int:
        await frontend.start()
        try:
            print(f"workers  : {args.workers} on ports "
                  f"{[port for _, port in cluster.addresses]}")
            print(f"frontend : {frontend.host}:{frontend.port} "
                  f"(binary frames + HTTP /healthz /metricsz /query)")
            if workload is not None:
                async with NetClient(frontend.host, frontend.port,
                                     client="self-test") as client:
                    report = await workload.run(client, args, verify=True,
                                                error_types=NET_ERROR_TYPES)
                print("\n-- self-test over TCP --")
                print(report.summary())
                return 1 if (report.mismatches or report.errors) else 0
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, stop.set)
                except (NotImplementedError, RuntimeError):
                    pass
            print("serving; Ctrl-C to drain and exit")
            await stop.wait()
            return 0
        finally:
            await frontend.stop()

    with _fleet_environment(args.trace_sample, environment or {}), \
            _failing(1, NetError, OSError), cluster:
        return asyncio.run(drive())


def _fault_plan(text: str):
    """The fault plan in ``text`` (JSON, a path or @path); exit 1 if bad."""
    from repro.chaos.plan import FaultPlan, PlanError

    with _failing(1, PlanError):
        plan = FaultPlan.from_env_value(text)
    if plan is None:
        raise CommandError(1, "empty plan")
    return plan


def cmd_chaos_plan(args: argparse.Namespace) -> int:
    """Print (``--example``) or validate-and-normalise a fault plan."""
    from repro.chaos.plan import example_plan

    if args.example:
        print(example_plan().to_json())
        return 0
    if not args.plan:
        raise CommandError(1, "pass a plan (JSON or @path) or --example")
    print(_fault_plan(args.plan).to_json())
    return 0


def cmd_chaos_corrupt(args: argparse.Namespace) -> int:
    """Apply (or ``--restore``) a plan's on-disk shard corruption."""
    import json

    from repro.chaos.disk import apply_disk_faults, restore_shard_file
    from repro.chaos.plan import FaultPlan, PlanError
    from repro.oracle.sharding import (
        ShardedOracleArtifact,
        shard_manifest_path,
    )

    with _failing(1, PlanError, ArtifactError, OSError):
        if args.restore:
            artifact = ShardedOracleArtifact.load(
                shard_manifest_path(args.artifact), verify="none")
            restored = [index for index in range(artifact.num_shards)
                        if restore_shard_file(artifact.shard_file(index))]
            print(json.dumps({"restored_shards": restored}))
            return 0
        if not args.plan:
            raise CommandError(1, "pass a plan (JSON or @path) or --restore")
        plan = FaultPlan.from_env_value(args.plan)
        if plan is None or not plan.disk_faults:
            raise CommandError(1, "plan has no corrupt_shard faults")
        reports = apply_disk_faults(plan, args.artifact,
                                    backup=not args.no_backup)
    print(json.dumps({"corrupted": reports}))
    return 0


def cmd_chaos_run(args: argparse.Namespace) -> int:
    """``net serve`` under a fault plan: the one-command chaos drill.

    Applies any ``corrupt_shard`` faults to the artifact files, then runs
    :func:`cmd_net_serve` with the plan exported through ``REPRO_CHAOS``
    (workers inherit the environment) — so ``--self-test N`` under a plan
    is the availability + zero-wrong-answers drill from the benchmark,
    sized to taste.
    """
    from repro.chaos.disk import apply_disk_faults
    from repro.chaos.plan import CHAOS_ENV_VAR, PlanError

    plan = _fault_plan(args.plan)
    with _failing(1, PlanError, ArtifactError, OSError):
        for artifact in args.artifacts if plan.disk_faults else ():
            for report in apply_disk_faults(plan, artifact):
                print(f"corrupted: {report['path']} "
                      f"(+{report['flips']}B @ {report['offset']})")
    return cmd_net_serve(args, {CHAOS_ENV_VAR: plan.to_json()})


def cmd_obs(args: argparse.Namespace) -> int:
    """Scrape a live worker or frontend ``/metricsz`` and summarise it.

    Pointed at a frontend the snapshot is already the merged fleet view
    (the frontend scrapes its workers before answering); pointed at one
    worker it is that process's registry alone.
    """
    import json

    from repro.obs.export import (
        fetch_snapshot,
        fetch_text,
        render_snapshot,
        render_top,
    )

    try:
        if args.obs_command == "top":
            snapshot = fetch_snapshot(args.host, args.port,
                                      timeout=args.timeout)
            print(render_top(snapshot, limit=args.limit))
        elif args.obs_command == "snapshot":
            snapshot = fetch_snapshot(args.host, args.port,
                                      timeout=args.timeout)
            fleet = snapshot.get("fleet")
            if isinstance(fleet, dict):
                print(f"fleet: {fleet.get('workers_scraped', '?')}/"
                      f"{fleet.get('workers', '?')} workers scraped")
            print(render_snapshot(snapshot))
        else:  # export
            if args.format == "prom":
                text = fetch_text(args.host, args.port,
                                  timeout=args.timeout)
            else:
                snapshot = fetch_snapshot(args.host, args.port,
                                          timeout=args.timeout)
                text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
            if args.out:
                from pathlib import Path

                Path(args.out).write_text(text)
                print(f"wrote {args.out}")
            else:
                sys.stdout.write(text)
    except BrokenPipeError:
        return 0  # downstream pager/head closed the pipe; not an error
    except (OSError, ValueError) as exc:  # ConnectionError is an OSError
        raise CommandError(1, str(exc)) from exc
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    """The generated graph every graph-taking command is seeded with."""
    parser.add_argument("--n", type=int, default=96, help="number of nodes")
    parser.add_argument("--degree", type=float, default=8.0, help="average degree")
    parser.add_argument("--max-weight", type=int, default=16, dest="max_weight")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--grid", action="store_true", help="use a grid workload")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_graph_source(parser)
    parser.add_argument("--breakdown", action="store_true", help="print round breakdown")
    parser.add_argument(
        "--compare-baseline", action="store_true", help="also run the prior-work baseline"
    )


def _add_serving_options(parser: argparse.ArgumentParser,
                         fleet: bool = False) -> None:
    """Artifacts, budget and sampling options of the load-driving commands.

    In process (``loadgen``) they add the coalescing window and the queue:
    per-pair ``dist()`` callers park in the window and hold queue slots
    across awaits.  A fleet (``net serve``, ``chaos run``) adds its
    addresses and ``--self-test`` instead: a wire worker answers whole
    frames through ``gather()``, which does neither.
    """
    parser.add_argument(
        "artifacts", nargs="+",
        help="artifact files, directories to scan, or manifest JSONs",
    )
    parser.add_argument(
        "--capacity", type=int, default=4,
        help="max engines resident at once (LRU-evicted beyond)",
    )
    parser.add_argument("--max-batch", type=int, default=1024,
                        dest="max_batch", help="max keys per engine gather")
    parser.add_argument(
        "--stretch", type=float, default=math.inf,
        help="multiplicative stretch budget each request carries",
    )
    parser.add_argument(
        "--additive", type=float, default=math.inf,
        help="additive stretch budget each request carries",
    )
    parser.add_argument("--zipf", type=float, default=1.0,
                        help="Zipf skew of the sampled query pairs")
    parser.add_argument("--seed", type=int, default=0)
    if not fleet:
        parser.add_argument(
            "--window-ms", type=float, default=1.0, dest="window_ms",
            help="coalescing window in milliseconds: the minimum spacing "
                 "between frames; a lone query is not delayed (0 disables "
                 "coalescing)",
        )
        parser.add_argument(
            "--queue-capacity", type=int, default=8192, dest="queue_capacity",
            help="max requests in flight before backpressure")
        parser.add_argument("--policy", choices=("shed", "wait"),
                            default="shed", help="overload policy")
        return
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes to spawn")
    parser.add_argument("--port", type=int, default=0,
                        help="frontend port (0 picks an ephemeral port)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--worker-base-port", type=int, default=0,
                        dest="worker_base_port",
                        help="first worker port (0 = ephemeral per worker)")
    parser.add_argument("--self-test", type=int, default=0,
                        dest="self_test", metavar="N",
                        help="drive N verified queries through the fleet "
                             "over TCP, then exit")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="closed-loop clients for --self-test")
    parser.add_argument("--trace-sample", type=float, default=None,
                        dest="trace_sample", metavar="RATE",
                        help="sample this fraction of requests for "
                             "cross-tier tracing (fleet-wide; workers "
                             "inherit the rate through the environment)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast approximate shortest paths in the Congested Clique (PODC 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    apsp = sub.add_parser("apsp", help="approximate all-pairs shortest paths")
    _add_common(apsp)
    apsp.add_argument("--weighted", action="store_true", help="weighted (2+eps,(1+eps)W) variant")
    apsp.set_defaults(func=cmd_apsp)

    mssp_parser = sub.add_parser("mssp", help="multi-source shortest paths")
    _add_common(mssp_parser)
    mssp_parser.add_argument("--sources", type=int, default=8)
    mssp_parser.set_defaults(func=cmd_mssp)

    sssp = sub.add_parser("sssp", help="exact single-source shortest paths")
    _add_common(sssp)
    sssp.add_argument("--source", type=int, default=0)
    sssp.set_defaults(func=cmd_sssp)

    diameter = sub.add_parser("diameter", help="diameter approximation")
    _add_common(diameter)
    diameter.set_defaults(func=cmd_diameter)

    hopset = sub.add_parser("hopset", help="hopset construction")
    _add_common(hopset)
    hopset.set_defaults(func=cmd_hopset)

    matmul = sub.add_parser("matmul", help="sparse matrix multiplication comparison")
    matmul.add_argument("--n", type=int, default=128)
    matmul.add_argument("--density", type=int, default=8, help="non-zeros per row")
    matmul.add_argument("--seed", type=int, default=0)
    matmul.set_defaults(func=cmd_matmul)

    oracle = sub.add_parser(
        "oracle", help="build, shard and query persistent distance oracles"
    )
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)

    build = oracle_sub.add_parser("build", help="build and save an oracle artifact")
    build.add_argument("artifact", help="output base path (a .shards.json "
                                        "manifest and .shard-K.npz files "
                                        "are written next to it)")
    build.add_argument(
        "--strategy", choices=STRATEGY_NAMES, default="landmark-mssp",
        help="oracle construction strategy",
    )
    build.add_argument("--graph", help="edge-list file to build from (instead of --n)")
    build.add_argument("--k", type=int, default=None, help="ball size for landmark-mssp")
    _add_graph_source(build)
    build.add_argument(
        "--shards", type=int, default=1,
        help="number of memory-mappable row shards to write",
    )
    build.add_argument(
        "--jobs", type=int, default=None,
        help="build with this many worker processes (row-slab parallel, "
             "exact distances, bit-identical at any job count); default: "
             "classic single-process simulated-clique build",
    )
    build.add_argument(
        "--kernel", choices=KERNEL_NAMES, default="auto",
        help="pin the min-plus kernel tier for the classic build's matrix "
             "products (default: cost-model auto-selection)",
    )
    build.add_argument(
        "--verbose", action="store_true",
        help="also print per-phase wall-clock timings and worker count",
    )
    build.set_defaults(func=cmd_oracle_build)

    strategies = oracle_sub.add_parser(
        "strategies",
        help="list registered oracle strategies with guarantees and "
             "size estimates",
    )
    strategies.add_argument("--n", type=int, default=1024,
                            help="graph size the size estimates assume")
    strategies.add_argument("--degree", type=float, default=8.0,
                            help="average degree the size estimates assume")
    strategies.add_argument("--epsilon", type=float, default=0.5)
    strategies.add_argument("--max-weight", type=float, default=16,
                            dest="max_weight")
    strategies.set_defaults(func=cmd_oracle_strategies)

    shard = oracle_sub.add_parser(
        "shard", help="re-shard an existing artifact into memory-mappable "
                      "row shards",
    )
    shard.add_argument("source",
                       help="existing artifact (base path or .shards.json "
                            "manifest)")
    shard.add_argument("artifact", help="output base path for the sharded copy")
    shard.add_argument("--shards", type=int, default=8,
                       help="number of row shards to write")
    shard.set_defaults(func=cmd_oracle_shard)

    query = oracle_sub.add_parser("query", help="answer queries from a saved artifact")
    query.add_argument("artifact", help="artifact path written by 'oracle build'")
    query.add_argument("--pairs", help="comma-separated u:v pairs, e.g. 0:5,3:7")
    query.add_argument("--k-nearest", dest="k_nearest", help="node:k, e.g. 0:5")
    query.add_argument("--stats", action="store_true", help="print engine statistics")
    query.set_defaults(func=cmd_oracle_query)

    plan = sub.add_parser(
        "plan",
        help="plan a stretch-budget artifact fleet from the strategy "
             "registry; --out builds it into a bootable manifest",
    )
    plan.add_argument(
        "--budget", action="append", default=None,
        help="repeatable stretch budget 'mult' or 'mult+add' "
             "(default: 3, 4.5, inf)",
    )
    plan.add_argument("--graph", help="edge-list file to plan for (instead of --n)")
    _add_graph_source(plan)
    plan.add_argument(
        "--max-query-cost", type=float, default=math.inf,
        dest="max_query_cost",
        help="reject strategies whose per-query work (in table-lookup "
             "units) exceeds this",
    )
    plan.add_argument(
        "--max-resident-mb", type=float, default=math.inf,
        dest="max_resident_mb",
        help="reject strategies whose estimated serving resident set "
             "exceeds this many MB",
    )
    plan.add_argument(
        "--shard-target-mb", type=float, default=4.0,
        dest="shard_target_mb",
        help="artifacts above this estimated size are split into shards "
             "of about this many MB",
    )
    plan.add_argument("--out", help="build the planned fleet into this "
                                    "directory and pin fleet.json")
    plan.add_argument(
        "--jobs", type=int, default=None,
        help="build with this many worker processes (as in oracle build)",
    )
    plan.set_defaults(func=cmd_plan)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a closed- or open-loop workload through an in-process "
             "server and report it",
    )
    _add_serving_options(loadgen)
    loadgen.add_argument("--mode", choices=("closed", "open"), default="closed")
    loadgen.add_argument("--queries", type=int, default=10000)
    loadgen.add_argument("--concurrency", type=int, default=64,
                         help="workers for --mode closed")
    loadgen.add_argument("--qps", type=float, default=5000.0,
                         help="target arrival rate for --mode open")
    loadgen.add_argument("--verify", action="store_true",
                         help="replay answered pairs through a direct engine "
                              "and count mismatches (non-zero exit on any)")
    loadgen.add_argument("--report-residency", action="store_true",
                         dest="report_residency",
                         help="include shard-fault counts and mapped-vs-"
                              "resident bytes in the report")
    loadgen.add_argument("--json-out", dest="json_out",
                         help="write the JSON report to this path")
    loadgen.add_argument("--raw-jsonl", dest="raw_jsonl",
                         help="append per-request raw samples (timestamp, "
                              "client, latency, status) to this JSONL file; "
                              "merge files back with LoadReport.from_jsonl")
    loadgen.add_argument(
        "--stretch-mix", dest="stretch_mix",
        help="mixed-fidelity workload: comma list of 'mult[+add]:weight' "
             "request budgets, e.g. '3:1,4.5:2,inf:1'; each request "
             "carries a budget sampled by weight (overrides --stretch/"
             "--additive)",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    net = sub.add_parser(
        "net",
        help="network serving tier: worker fleet and front tier",
    )
    net_sub = net.add_subparsers(dest="net_command", required=True)

    net_serve = net_sub.add_parser(
        "serve",
        help="spawn N worker processes + a front tier on one address",
    )
    _add_serving_options(net_serve, fleet=True)
    net_serve.set_defaults(func=cmd_net_serve)

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault injection: plan, corrupt, run",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_plan = chaos_sub.add_parser(
        "plan", help="print an example plan or validate one")
    chaos_plan.add_argument("plan", nargs="?", default=None,
                            help="plan JSON, a path, or @path")
    chaos_plan.add_argument("--example", action="store_true",
                            help="print the documented example plan")
    chaos_plan.set_defaults(func=cmd_chaos_plan)

    chaos_corrupt = chaos_sub.add_parser(
        "corrupt", help="apply a plan's corrupt_shard faults to an artifact")
    chaos_corrupt.add_argument("artifact",
                               help="sharded artifact (base path, .npz, or "
                                    ".shards.json)")
    chaos_corrupt.add_argument("plan", nargs="?", default=None,
                               help="plan JSON, a path, or @path")
    chaos_corrupt.add_argument("--restore", action="store_true",
                               help="restore every shard from its "
                                    ".chaos-bak sidecar instead")
    chaos_corrupt.add_argument("--no-backup", action="store_true",
                               dest="no_backup",
                               help="corrupt without writing backup "
                                    "sidecars")
    chaos_corrupt.set_defaults(func=cmd_chaos_corrupt)

    chaos_run = chaos_sub.add_parser(
        "run", help="net serve with a fault plan active fleet-wide")
    chaos_run.add_argument("--plan", required=True,
                           help="plan JSON, a path, or @path")
    _add_serving_options(chaos_run, fleet=True)
    chaos_run.set_defaults(func=cmd_chaos_run)

    obs = sub.add_parser(
        "obs",
        help="scrape and summarise a live /metricsz endpoint",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _add_obs_target(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--port", type=int, required=True,
                                help="worker or frontend port (a frontend "
                                     "answers with the merged fleet view)")
        sub_parser.add_argument("--timeout", type=float, default=5.0)
        sub_parser.set_defaults(func=cmd_obs)

    obs_snapshot = obs_sub.add_parser(
        "snapshot", help="full metric catalogue, grouped by kind")
    _add_obs_target(obs_snapshot)

    obs_top = obs_sub.add_parser(
        "top", help="largest counter/gauge series, value-descending")
    _add_obs_target(obs_top)
    obs_top.add_argument("--limit", type=int, default=20)

    obs_export = obs_sub.add_parser(
        "export", help="write the snapshot to a file (JSON or Prometheus "
                       "text)")
    _add_obs_target(obs_export)
    obs_export.add_argument("--format", choices=("json", "prom"),
                            default="json")
    obs_export.add_argument("--out", default=None,
                            help="output path (default: stdout)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
