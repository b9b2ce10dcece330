"""The query kernels against a plain-Python reference oracle.

An in-memory and a mapped engine run the *same* kernels, so comparing one
with the other checks the row accessors, not the kernels.  The reference
here shares no code with :mod:`repro.oracle.engine`: it answers from the
raw payload arrays with Python loops and Python floats, and every
registered strategy is held to it bit for bit through every way it can be
served — straight from the build, one shard, four shards, all through the
one writer — with the answer cache off, thrashing, and roomy.  This is
the one conformance matrix: per-layout parity files fold into it.

The synthetic payloads are adversarial on purpose: real balls are exact,
so which ball is probed first never shows; here ``u``'s ball and ``v``'s
disagree and both beat the landmark route, which pins the probe order
(``u``'s ball, then ``v``'s) and the row overlay (the minimum of all).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphs import random_weighted_graph
from repro.oracle import (
    QUERY_KINDS,
    STRATEGY_NAMES,
    OracleArtifact,
    QueryEngine,
    build_oracle,
    get_strategy,
    load_artifact,
)

LAYOUTS = ("in-memory", "1-shard", "4-shard")
CACHE_SIZES = (0, 8, 65536)


# ----------------------------------------------------------------------
# the reference: Python loops over the raw payload arrays
# ----------------------------------------------------------------------
class ReferenceOracle:
    def __init__(self, artifact: OracleArtifact):
        self.n = artifact.n
        self.kind = get_strategy(artifact.strategy).query_kind
        self.payload = {name: np.asarray(array).tolist()
                        for name, array in artifact.arrays.items()}

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

    def row(self, u: int):
        if self.kind == "dense":
            return list(self.payload["dist"][u])
        row = []
        for v in range(self.n):
            best = self._route(v, u)
            for candidate in (self._in_ball(u, v), self._in_ball(v, u)):
                if candidate is not None and candidate < best:
                    best = candidate
            row.append(best)
        row[u] = 0.0
        if self.kind == "spanner":
            for v in range(self.n):
                direct = self._edge(u, v)
                if direct is not None and direct < row[v]:
                    row[v] = direct
        return row

    def k_nearest(self, u: int, k: int):
        row = self.row(u)
        row[u] = math.inf
        ranked = sorted((d, v) for v, d in enumerate(row) if d != math.inf)
        return [(v, d) for d, v in ranked[:k]]


# ----------------------------------------------------------------------
# payloads: every registered strategy built for real, plus adversarial
# synthetic landmark / spanner tables
# ----------------------------------------------------------------------
def synthetic_artifact(strategy: str, n: int = 23, seed: int = 5) -> OracleArtifact:
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
    if strategy == "spanner-greedy":
        edges = {}
        for _ in range(3 * n):
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v:
                edges[(min(u, v), max(u, v))] = float(rng.random() * 20.0)
        neighbours = [[] for _ in range(n)]
        for (u, v), w in edges.items():
            neighbours[u].append((v, w))
            neighbours[v].append((u, w))
        indptr, indices, weights = [0], [], []
        for u in range(n):
            for v, w in sorted(neighbours[u]):
                indices.append(v)
                weights.append(w)
            indptr.append(len(indices))
        arrays["spanner_indptr"] = np.asarray(indptr, dtype=np.int64)
        arrays["spanner_indices"] = np.asarray(indices, dtype=np.int64)
        arrays["spanner_weights"] = np.asarray(weights, dtype=np.float64)
    metadata = {
        "strategy": strategy, "n": n, "num_edges": 3 * n, "epsilon": 0.5,
        "max_weight": 40.0,
        "stretch": get_strategy(strategy).guarantee(0.5, 40.0).as_dict(),
        "build": {"rounds": 0, "seconds": 0.0, "synthetic": True},
    }
    return OracleArtifact(metadata=metadata, arrays=arrays)


#: ``jobs1:`` payloads come from the slab builds production takes.
PAYLOADS = tuple(STRATEGY_NAMES) + ("jobs1:dense-apsp", "jobs1:landmark-mssp",
                                    "synthetic:landmark-mssp",
                                    "synthetic:spanner-greedy")


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(30, average_degree=5, max_weight=9, seed=21)


@pytest.fixture(scope="module", params=PAYLOADS)
def served(request, graph, tmp_path_factory):
    """``(reference, {layout: artifact})`` for one payload."""
    source, _, name = request.param.rpartition(":")
    if source == "synthetic":
        artifact = synthetic_artifact(name)
    else:
        artifact = build_oracle(graph, strategy=name, epsilon=0.5,
                                jobs=1 if source == "jobs1" else None)
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


def same_bits(left, right) -> bool:
    return (np.asarray(left, dtype=np.float64).tobytes()
            == np.asarray(right, dtype=np.float64).tobytes())


@pytest.mark.parametrize("cache_size", CACHE_SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
class TestAgainstReference:
    def test_batch_equals_reference(self, served, layout, cache_size):
        reference, layouts = served
        engine = QueryEngine(layouts[layout], cache_size=cache_size)
        pairs = probe_pairs(engine.n)
        expected = [reference.dist(u, v) for u, v in pairs]
        assert same_bits(engine.batch(pairs), expected)
        # Again, now answered from whatever the cache kept.
        assert same_bits(engine.batch(np.asarray(pairs)), expected)

    def test_dist_equals_reference(self, served, layout, cache_size):
        reference, layouts = served
        engine = QueryEngine(layouts[layout], cache_size=cache_size)
        pairs = probe_pairs(engine.n)
        assert same_bits([engine.dist(u, v) for u, v in pairs],
                         [reference.dist(u, v) for u, v in pairs])

    def test_rows_and_k_nearest_equal_reference(self, served, layout,
                                                cache_size):
        reference, layouts = served
        engine = QueryEngine(layouts[layout], cache_size=cache_size)
        for u in range(engine.n):
            assert same_bits(engine._row(u), reference.row(u))
        for u in (0, engine.n // 2, engine.n - 1):
            for k in (1, 4, engine.n + 3):
                assert engine.k_nearest(u, k) == reference.k_nearest(u, k)

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


class TestOnePath:
    def test_exactly_one_kernel_triple_per_query_kind(self):
        dispatchers = {"_point", "_point_batch", "_row"}
        defined = {name for name in vars(QueryEngine)
                   if name.startswith(("_point_", "_row_"))} - dispatchers
        assert defined == {f"_{role}_{kind}" for kind in QUERY_KINDS
                           for role in ("point", "point_batch", "row")}

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

    @pytest.mark.parametrize("layout", LAYOUTS[1:])
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
