"""The one conformance matrix: every payload, layout and door against one
reference.

The reference shares no code with :mod:`repro.oracle.engine` (an
in-memory and a mapped engine run the *same* kernels, so comparing them
checks only the row accessors): it answers from the raw payload arrays
with Python loops and Python floats.  The matrix is read off the strategy
registry at collection time:

* **payloads** — every registered strategy built with ``jobs=None`` and,
  where the spec has a slab build, ``jobs=1``, plus adversarial synthetic
  tables per approximate query kind;
* **layouts** — straight from the build, one shard, four shards;
* **doors** — ``QueryEngine.dist`` and ``.batch`` with the answer cache
  off, thrashing and roomy, ``.k_nearest``, ``DistanceServer.gather``,
  coalesced ``.batch`` and uncoalesced ``.dist``, and ``NetClient.batch``
  / ``.dist`` through a frontend in front of two workers — each bit for
  bit what the reference answers.

A second case holds every build to exact Dijkstra on the bench's five
build families (and a disconnected one): each estimate lies between the
truth and the advertised bound, unreachable stays unreachable, the builds
exact by construction observe stretch 1, and every other build observes
more on some family, so the bound is not checked vacuously.

The synthetic payloads are adversarial on purpose: real balls are exact,
so which ball is probed first never shows; here ``u``'s ball and ``v``'s
disagree and both beat the landmark route, which pins the probe order
(``u``'s ball, then ``v``'s) for every door, ``k_nearest`` included.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import build_families, running_fleet
from repro import graphs
from repro.net.frontend import NetClient
from repro.oracle import (
    QUERY_KINDS,
    STRATEGY_NAMES,
    OracleArtifact,
    QueryEngine,
    build_oracle,
    get_strategy,
    load_artifact,
)
from repro.oracle.spanner import spanner_csr
from repro.serve import ArtifactRegistry, DistanceServer, ServerConfig

LAYOUTS = ("in-memory", "1-shard", "4-shard")
MAPPED_LAYOUTS = LAYOUTS[1:]
CACHE_SIZES = (0, 8, 65536)

#: ``(strategy, jobs)`` for every build path a registered strategy has.
BUILDS = tuple((name, jobs) for name in STRATEGY_NAMES for jobs in (None, 1)
               if jobs is None or get_strategy(name).slab_build_fn is not None)

#: The builds that are exact by construction: a dense closure, not a
#: Theorem 28 estimate.  Everything else must show its stretch somewhere.
EXACT_BUILDS = {("exact-fallback", None), ("exact-fallback", 1),
                ("dense-apsp", 1)}


# ----------------------------------------------------------------------
# the reference: Python loops over the raw payload arrays
# ----------------------------------------------------------------------
class ReferenceOracle:
    def __init__(self, artifact: OracleArtifact):
        self.n = artifact.n
        self.kind = get_strategy(artifact.strategy).query_kind
        self.payload = {name: np.asarray(array).tolist()
                        for name, array in artifact.arrays.items()}
        self.table = [[self._answer(u, v) for v in range(self.n)]
                      for u in range(self.n)]

    def _in_ball(self, owner: int, node: int):
        for slot, member in enumerate(self.payload["ball_idx"][owner]):
            if member == node:
                return self.payload["ball_dist"][owner][slot]
        return None

    def _route(self, u: int, v: int) -> float:
        table = self.payload["landmark_dist"]
        return min(a + b for a, b in zip(table[u], table[v]))

    def _edge(self, u: int, v: int):
        indptr = self.payload["spanner_indptr"]
        for slot in range(indptr[u], indptr[u + 1]):
            if self.payload["spanner_indices"][slot] == v:
                return self.payload["spanner_weights"][slot]
        return None

    def dist(self, u: int, v: int) -> float:
        return self.table[u][v]

    def _answer(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        if u > v:
            u, v = v, u
        if self.kind == "dense":
            return self.payload["dist"][u][v]
        value = self._in_ball(u, v)
        if value is None:
            value = self._in_ball(v, u)
        if value is None:
            value = self._route(u, v)
        if self.kind == "spanner":
            direct = self._edge(u, v)
            if direct is not None and direct < value:
                value = direct
        return value

    def k_nearest(self, u: int, k: int):
        ranked = sorted((self.dist(u, v), v) for v in range(self.n) if v != u)
        return [(v, d) for d, v in ranked if d != math.inf][:k]


# ----------------------------------------------------------------------
# payloads: every registered build path, plus adversarial synthetic
# landmark / spanner tables
# ----------------------------------------------------------------------
def synthetic_artifact(kind: str, n: int = 23, seed: int = 5) -> OracleArtifact:
    """Random tables for the first registered strategy of query ``kind``."""
    strategy = next(name for name in STRATEGY_NAMES
                    if get_strategy(name).query_kind == kind)
    rng = np.random.default_rng(seed)
    width, landmarks = 5, 4
    ball_idx = np.stack([rng.choice(n, size=width, replace=False)
                         for _ in range(n)]).astype(np.int64)
    ball_idx[::3, -1] = -1  # padding slots, as short balls have
    arrays = {
        "landmarks": np.arange(landmarks, dtype=np.int64),
        "landmark_dist": rng.integers(1, 40, size=(n, landmarks)).astype(np.float64)
        + rng.random((n, landmarks)),
        "ball_idx": ball_idx,
        "ball_dist": rng.random((n, width)) * 30.0,
    }
    if kind == "spanner":
        # Direct edges lighter than most routes and balls, so they show.
        ends = rng.integers(0, n, size=(3 * n, 2)).tolist()
        weights = (rng.random(3 * n) * 20.0).tolist()
        edges = graphs.Graph.from_edges(
            n, [(u, v, w) for (u, v), w in zip(ends, weights) if u != v])
        arrays.update(zip(("spanner_indptr", "spanner_indices",
                           "spanner_weights"), spanner_csr(edges)))
    metadata = {
        "strategy": strategy, "n": n, "num_edges": 3 * n, "epsilon": 0.5,
        "max_weight": 40.0,
        "stretch": get_strategy(strategy).guarantee(0.5, 40.0).as_dict(),
        "build": {"rounds": 0, "seconds": 0.0, "synthetic": True},
    }
    return OracleArtifact(metadata=metadata, arrays=arrays)


#: ``(strategy, jobs)`` builds, then ``("synthetic", query kind)`` tables.
PAYLOADS = BUILDS + tuple(("synthetic", kind) for kind in QUERY_KINDS
                          if kind != "dense")


@pytest.fixture(scope="module")
def graph():
    return graphs.random_weighted_graph(30, average_degree=5, max_weight=9,
                                        seed=21)


def payload_id(payload) -> str:
    source, variant = payload
    return f"{source}@{variant}" if source == "synthetic" \
        else f"{source}@jobs={variant}"


@pytest.fixture(scope="module", params=PAYLOADS, ids=payload_id)
def served(request, graph, tmp_path_factory):
    """``(reference, {layout: artifact})`` for one payload."""
    source, variant = request.param
    if source == "synthetic":
        artifact = synthetic_artifact(variant)
    else:
        artifact = build_oracle(graph, strategy=source, epsilon=0.5,
                                jobs=variant)
    root = tmp_path_factory.mktemp("reference")
    layouts = {"in-memory": artifact}
    for label, shards in (("1-shard", 1), ("4-shard", 4)):
        manifest, _ = artifact.save_sharded(root / label, num_shards=shards)
        layouts[label] = load_artifact(manifest, verify="eager")
    return ReferenceOracle(artifact), layouts


def probe_pairs(n: int):
    """Every ordered pair, then repeats, self-pairs and ``u > v`` again."""
    pairs = [(u, v) for u in range(n) for v in range(n)]
    return pairs + [(n - 1, 0), (n - 1, 0), (3, 3), (0, n - 1), (2, 1), (1, 2)]


def assert_cache_accounting(engine, pairs, cache_size):
    """Self-pairs never reach the cache; every other pair is exactly one
    hit or one miss, and the cache holds at most ``cache_size`` answers."""
    stats = engine.stats()
    proper = sum(u != v for u, v in pairs)
    assert stats["cache_hits"] + stats["cache_misses"] == proper
    assert len(engine.cache) <= cache_size
    if cache_size == 0:
        assert stats["cache_hits"] == 0


def serve(layouts, layout, query, config=None):
    """``await query(server)`` on a :class:`DistanceServer` over ``layout``:
    the built artifact through an engine, an opened one through a
    registry, as a worker holds it."""
    if layout == "in-memory":
        target = QueryEngine(layouts[layout])
    else:
        target = ArtifactRegistry()
        target.register(layouts[layout].manifest_path)

    async def drive():
        async with DistanceServer(target, config) as server:
            return await query(server)

    return asyncio.run(drive())


def same_bits(left, right) -> bool:
    return (np.asarray(left, dtype=np.float64).tobytes()
            == np.asarray(right, dtype=np.float64).tobytes())


# ----------------------------------------------------------------------
# the doors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache_size", CACHE_SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
class TestEngineDoors:
    def test_batch_equals_reference(self, served, layout, cache_size):
        reference, layouts = served
        engine = QueryEngine(layouts[layout], cache_size=cache_size)
        pairs = probe_pairs(engine.n)
        expected = [reference.dist(u, v) for u, v in pairs]
        assert same_bits(engine.batch(pairs), expected)
        # Again, now answered from whatever the cache kept.
        assert same_bits(engine.batch(np.asarray(pairs)), expected)
        assert_cache_accounting(engine, 2 * pairs, cache_size)

    def test_dist_equals_reference(self, served, layout, cache_size):
        reference, layouts = served
        engine = QueryEngine(layouts[layout], cache_size=cache_size)
        pairs = probe_pairs(engine.n)
        assert same_bits([engine.dist(u, v) for u, v in pairs],
                         [reference.dist(u, v) for u, v in pairs])
        assert_cache_accounting(engine, pairs, cache_size)

    def test_single_miss_fast_path_equals_reference(self, served, layout,
                                                    cache_size, monkeypatch):
        reference, layouts = served
        engine = QueryEngine(layouts[layout], cache_size=cache_size)
        n = engine.n
        warm = [(0, 1), (2, 5)]
        engine.batch(warm)

        def no_gather(us, vs):
            raise AssertionError("a single miss must go through _point")
        monkeypatch.setattr(engine, "_point_batch", no_gather)
        for u in range(0, n - 1, 3):
            frame = [(u, n - 1)] if cache_size == 0 else warm + [(u, n - 1)]
            got = engine.batch(frame)
            assert same_bits(got, [reference.dist(a, b) for a, b in frame])


@pytest.mark.parametrize("layout", LAYOUTS)
class TestServingDoors:
    def test_k_nearest_equals_reference(self, served, layout):
        reference, layouts = served
        engine = QueryEngine(layouts[layout])
        for u in range(engine.n):
            for k in (1, 4, engine.n + 3):
                assert engine.k_nearest(u, k) == reference.k_nearest(u, k)

    def test_server_gather_equals_reference(self, served, layout):
        reference, layouts = served
        pairs = probe_pairs(reference.n)
        nodes = np.asarray(pairs)
        got = serve(layouts, layout, lambda server: server.gather(
            nodes[:, 0], nodes[:, 1]))
        assert same_bits(got, [reference.dist(u, v) for u, v in pairs])

    def test_server_coalesced_batch_equals_reference(self, served, layout):
        reference, layouts = served
        # Per-pair coroutines are slow; every fifth pair suffices to see
        # the coalesced frames answer what the reference does.
        pairs = probe_pairs(reference.n)[::5]
        got = serve(layouts, layout, lambda server: server.batch(pairs))
        assert same_bits(got, [reference.dist(u, v) for u, v in pairs])

    def test_server_uncoalesced_dist_equals_reference(self, served, layout):
        reference, layouts = served
        pairs = probe_pairs(reference.n)[::7]

        async def one_by_one(server):
            return [await server.dist(u, v) for u, v in pairs]

        got = serve(layouts, layout, one_by_one,
                    ServerConfig(coalesce_window=0.0))
        assert same_bits(got, [reference.dist(u, v) for u, v in pairs])


@pytest.mark.parametrize("layout", MAPPED_LAYOUTS)
def test_wire_equals_reference(served, layout):
    """Two workers behind a frontend: a ``NetClient.batch`` frame spanning
    the table is striped across both and each pair reaches one worker,
    once; and uncoalesced ``NetClient.dist``."""
    reference, layouts = served
    pairs = probe_pairs(reference.n)
    singles = pairs[::97]

    async def drive():
        # No hedging: a duplicate sent on a slow box would be counted.
        async with running_fleet(layouts[layout].manifest_path,
                                 hedge_ratio=0.0) as (frontend, workers):
            async with NetClient(*frontend.address) as client:
                got = await client.batch(pairs)
            answered = [worker.server.stats()["served"] for worker in workers]
            async with NetClient(*frontend.address,
                                 coalesce_window=0.0) as client:
                one_by_one = [await client.dist(u, v) for u, v in singles]
            return got, answered, one_by_one

    got, answered, one_by_one = asyncio.run(drive())
    assert same_bits(got, [reference.dist(u, v) for u, v in pairs])
    assert sum(answered) == len(pairs)
    assert min(answered) > 0
    assert same_bits(one_by_one, [reference.dist(u, v) for u, v in singles])


# ----------------------------------------------------------------------
# every build against the truth
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def truths():
    """``{family: (graph, exact distance matrix)}`` on the bench's five
    build families at n=36, plus disconnected cliques."""
    families = {**build_families(36, 3),
                "disconnected": graphs.disjoint_cliques(4, 9)}
    truth = {family: (graph, np.asarray(graphs.all_pairs_dijkstra(graph)))
             for family, graph in families.items()}
    assert np.isinf(truth["disconnected"][1]).any()
    return truth


@pytest.mark.parametrize("strategy, jobs", BUILDS,
                         ids=[payload_id(build) for build in BUILDS])
def test_every_build_within_its_guarantee(truths, strategy, jobs):
    observed = {}
    for family, (graph, exact) in truths.items():
        artifact = build_oracle(graph, strategy=strategy, epsilon=0.5,
                                jobs=jobs)
        nodes = np.arange(graph.n)
        pairs = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1)
        estimate = QueryEngine(artifact, cache_size=0).batch(
            pairs.reshape(-1, 2)).reshape(graph.n, graph.n)
        reachable = np.isfinite(exact)
        assert np.array_equal(np.isfinite(estimate), reachable), family
        truth, got = exact[reachable], estimate[reachable]
        bound = np.asarray([artifact.stretch.upper_bound(d) for d in truth])
        assert (truth <= got).all(), family
        assert (got <= bound + 1e-9).all(), family
        apart = truth > 0
        observed[family] = float((got[apart] / truth[apart]).max())
    if (strategy, jobs) in EXACT_BUILDS:
        assert set(observed.values()) == {1.0}, observed
    else:
        assert max(observed.values()) > 1.0, observed


# ----------------------------------------------------------------------
# structure: one kernel pair per kind, residency, quarantine, round trip
# ----------------------------------------------------------------------
class TestOnePath:
    def test_exactly_two_kernels_per_query_kind(self):
        dispatchers = {"_point", "_point_batch"}
        defined = {name for name in vars(QueryEngine)
                   if name.startswith(("_point_", "_row"))} - dispatchers
        assert defined == {f"_{role}_{kind}" for kind in QUERY_KINDS
                           for role in ("point", "point_batch")}

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_residency_per_representation(self, served, layout):
        _, layouts = served
        engine = QueryEngine(layouts[layout])
        engine.batch(probe_pairs(engine.n)[:50])
        engine.dist(0, engine.n - 1)
        stats = engine.stats()
        if layout == "in-memory":
            assert (engine.artifact.num_shards, stats["shard_faults"],
                    stats["mapped_bytes"]) == (1, 0, 0)
            assert stats["resident_bytes"] == sum(
                array.nbytes for array in engine.artifact.arrays.values())
        else:
            assert engine.artifact.num_shards == int(layout[0])
            assert stats["mapped_bytes"] > stats["resident_bytes"]

    def test_quarantine_on_an_in_memory_engine_only_clears_answers(self, served):
        reference, layouts = served
        engine = QueryEngine(layouts["in-memory"], cache_size=64)
        engine.batch([(0, 1), (1, 2), (2, 3)])
        assert len(engine.cache) == 3
        assert engine.quarantine_rows([0, 1, 2]) == []
        assert len(engine.cache) == 0
        assert engine.dist(0, 1) == reference.dist(0, 1)

    def test_quarantine_on_a_mapped_engine_names_the_shards(self, served):
        _, layouts = served
        engine = QueryEngine(layouts["4-shard"], cache_size=64)
        engine.batch([(0, 1), (1, 2)])
        assert engine.quarantine_rows([0, engine.n - 1]) == [0, 3]
        assert len(engine.cache) == 0
        assert engine.quarantine_rows([]) == []


class TestRoundTrip:
    """What the one writer wrote is what the one reader maps."""

    @pytest.mark.parametrize("layout", MAPPED_LAYOUTS)
    def test_every_array_and_the_metadata_come_back(self, served, layout):
        _, layouts = served
        built, opened = layouts["in-memory"], layouts[layout]
        assert (opened.strategy, opened.n, opened.query_kind, opened.stretch) \
            == (built.strategy, built.n, built.query_kind, built.stretch)
        assert opened.array_names == built.array_names
        for name, array in built.arrays.items():
            got = opened.materialize(name)
            assert got.dtype == array.dtype
            assert np.array_equal(got, array, equal_nan=True)

    @given(num_shards=st.integers(min_value=1, max_value=9),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_property_any_shard_count_preserves_every_answer(
            self, served, tmp_path_factory, num_shards, seed):
        _, layouts = served
        built = layouts["in-memory"]
        manifest, _ = built.save_sharded(
            tmp_path_factory.mktemp("prop") / "p", num_shards=num_shards)
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, built.n, size=(200, 2))
        assert same_bits(
            QueryEngine(built, cache_size=0).batch(pairs),
            QueryEngine(load_artifact(manifest), cache_size=0).batch(pairs))
