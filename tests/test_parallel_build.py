"""Tests for the row-slab executor and oracle builds with ``jobs``.

The headline contract: a build at any job count is **bit-identical** to
the jobs=1 build — same closure floats, same ball tables, same landmark
set, and (for sharded builds) the same per-shard SHA-256.  A session-wide
two-process spawn pool keeps the cross-process cases affordable; jobs=1
paths run inline and are exercised densely via hypothesis.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.graphs.generators import (
    disjoint_cliques,
    path_graph,
    random_weighted_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.reference import all_pairs_dijkstra, shortest_path_diameter
from repro.matmul.parallel import (
    SPAWN_CONTEXT,
    SlabExecutor,
    minplus_closure,
    slab_ranges,
)
from repro.oracle import (
    STRATEGY_NAMES,
    OracleBuilder,
    QueryEngine,
    load_artifact,
)
from repro.oracle.parallel_build import weight_matrix


@pytest.fixture(scope="session")
def spawn_pool():
    """One spawn pool for every pooled test (worker start-up is the cost)."""
    pool = SPAWN_CONTEXT.Pool(2)
    yield pool
    pool.terminate()
    pool.join()


def shard_digests(shard_paths):
    return [hashlib.sha256(path.read_bytes()).hexdigest()
            for path in shard_paths]


# ----------------------------------------------------------------------
# slab executor primitives
# ----------------------------------------------------------------------
class TestSlabRanges:
    @given(n=st.integers(min_value=1, max_value=400),
           slabs=st.integers(min_value=1, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_partition_invariants(self, n, slabs):
        if slabs > n:
            with pytest.raises(ValueError):
                slab_ranges(n, slabs)
            return
        ranges = slab_ranges(n, slabs)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in ranges]
        # Ceil-division contract (mirrors sharding._row_ranges): every slab
        # is exactly ceil(n/slabs) rows except a possibly-short final slab.
        chunk = -(-n // slabs)
        assert all(size == chunk for size in sizes[:-1])
        assert 1 <= sizes[-1] <= chunk
        assert len(sizes) <= slabs


class TestSlabExecutor:
    def test_jobs_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            SlabExecutor(jobs=0)

    def test_requires_enter(self):
        ex = SlabExecutor(jobs=1)
        with pytest.raises(RuntimeError, match="entered"):
            ex.share("x", np.zeros(3))

    def test_inline_share_is_a_private_copy_and_writes_no_file(
            self, tmp_path, monkeypatch):
        slab_dir, env_dir = tmp_path / "slab", tmp_path / "env"
        slab_dir.mkdir()
        env_dir.mkdir()
        monkeypatch.setenv("TMPDIR", str(env_dir))
        monkeypatch.setattr(tempfile, "tempdir", str(env_dir))
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        graph = random_weighted_graph(20, 4.0, max_weight=9, seed=24)
        with SlabExecutor(jobs=1, tmp_dir=str(slab_dir)) as ex:
            handle = ex.share("data", data)
            np.testing.assert_array_equal(handle.open(), data)
            data[0, 0] = -1.0  # the caller's array, not the handle's
            assert handle.open()[0, 0] == 0.0
            with pytest.raises(ValueError, match="read-only"):
                handle.open()[0, 0] = 1.0
            closure, _ = minplus_closure(ex, ex.share(
                "W", weight_matrix(graph)))
            np.testing.assert_array_equal(
                closure.open(), np.asarray(all_pairs_dijkstra(graph)))
        OracleBuilder("landmark-mssp", jobs=1).build(graph)
        assert list(slab_dir.iterdir()) == list(env_dir.iterdir()) == []

    def test_pooled_share_roundtrip_and_cleanup(self, tmp_path, spawn_pool):
        data = np.arange(12, dtype=np.float64).reshape(3, 4)
        with SlabExecutor(jobs=2, pool=spawn_pool,
                          tmp_dir=str(tmp_path)) as ex:
            handle = ex.share("data", data)
            np.testing.assert_array_equal(np.asarray(handle.open()), data)
            assert os.path.exists(handle.path)
        assert not os.path.exists(handle.path)
        assert list(tmp_path.iterdir()) == []


def closure_of(graph, slabs):
    """``(closure array, steps)`` of ``graph`` at ``slabs``, warnings as errors."""
    weights = weight_matrix(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with SlabExecutor(jobs=1) as ex:
            W = ex.share("W", weights)
            closure, steps = minplus_closure(ex, W, slabs=slabs)
            got = np.array(closure.open())
            # The operand is the caller's: the closure never writes into it.
            np.testing.assert_array_equal(np.asarray(W.open()), weights)
    return got, steps


def assert_exact_at_every_split(graph):
    """Exact against Dijkstra, ``max(1, shortest-path diameter)`` steps
    (Lemma 32), the same floats and step count at every slab count."""
    exact = np.asarray(all_pairs_dijkstra(graph), dtype=np.float64)
    expected_steps = max(1, shortest_path_diameter(graph))
    for slabs in range(1, min(graph.n, 4) + 1):
        got, steps = closure_of(graph, slabs)
        np.testing.assert_array_equal(got, exact)
        assert steps == expected_steps


class TestClosureAndMSSP:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=24),
           degree=st.floats(min_value=2.0, max_value=6.0),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_closure_is_exact_apsp(self, n, degree, seed):
        assert_exact_at_every_split(
            random_weighted_graph(n, degree, max_weight=9, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=14),
           edges=st.lists(
               st.tuples(st.integers(0, 13), st.integers(0, 13),
                         st.integers(0, 5)),
               max_size=30))
    def test_closure_on_arbitrary_edge_lists(self, n, edges):
        # Whatever hypothesis draws: disconnected parts (inf blocks stay
        # inf, no warning), isolated nodes (rows without an edge),
        # zero-weight edges, n = 1 and n = 2.
        graph = Graph(n)
        for u, v, weight in edges:
            if u % n != v % n:
                graph.add_edge(u % n, v % n, weight)
        assert_exact_at_every_split(graph)

    def test_closure_edge_cases(self):
        isolated = Graph(5)
        isolated.add_edge(0, 4, 0)  # zero weight; nodes 1-3 have no edge
        isolated.add_edge(4, 2, 3)
        for graph in (
            Graph(1),
            Graph(2),                # no edge: nothing to relax through
            path_graph(2, max_weight=4, seed=1),
            isolated,
            disjoint_cliques(3, 4),  # inf blocks between the cliques
            star_graph(24, max_weight=5, seed=2),  # one row, half the edges
            path_graph(24, max_weight=3, seed=3),  # steps = n - 1 = 23
        ):
            assert_exact_at_every_split(graph)
        assert closure_of(path_graph(24), 3)[1] == 23

    def test_closure_rounds_span_bands(self, monkeypatch):
        # Eight floats a round: every row is its own band at n = 9, so the
        # band arithmetic of the edge order is exercised, not just band 0.
        monkeypatch.setattr("repro.matmul.parallel.CHUNK_FLOATS", 8)
        assert_exact_at_every_split(
            random_weighted_graph(9, 3.0, max_weight=6, seed=21))
        assert_exact_at_every_split(star_graph(9, max_weight=4, seed=22))

    def test_closure_split_parity_on_fractional_weights(self):
        # The parity contract is about the split, and float sums are where
        # it could break: weights in tenths are inexact in binary.
        graph = Graph(30)
        for u, v, weight in random_weighted_graph(
                30, 4.0, max_weight=9, seed=23).edges():
            graph.add_edge(u, v, weight / 10.0)
        results = [closure_of(graph, slabs) for slabs in (1, 2, 4)]
        for got, steps in results[1:]:
            np.testing.assert_array_equal(got, results[0][0])
            assert steps == results[0][1]
        np.testing.assert_allclose(
            results[0][0], np.asarray(all_pairs_dijkstra(graph)), rtol=1e-12)

    def test_closure_pooled_bit_identical(self, spawn_pool):
        graph = random_weighted_graph(40, 5.0, max_weight=12, seed=3)
        results = []
        for jobs, pool in ((1, None), (4, spawn_pool)):
            with SlabExecutor(jobs=jobs, pool=pool) as ex:
                closure, steps = minplus_closure(ex, ex.share(
                    "W", weight_matrix(graph)))
                results.append((np.asarray(closure.open()), steps))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]  # same squaring step count


# ----------------------------------------------------------------------
# oracle builds with ``jobs``: parity, and the one pipeline they share
# ----------------------------------------------------------------------
def build_shards(graph, path, num_shards, strategy="landmark-mssp", **kwargs):
    """``OracleBuilder(strategy, **kwargs).build_sharded`` results."""
    return OracleBuilder(strategy=strategy, **kwargs).build_sharded(
        graph, path, num_shards)


class TestShardParity:
    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(min_value=6, max_value=30),
           seed=st.integers(min_value=0, max_value=2**31),
           strategy=st.sampled_from(list(STRATEGY_NAMES)),
           num_shards=st.integers(min_value=1, max_value=4))
    def test_jobs4_shards_bit_identical_to_serial(
            self, tmp_path_factory, spawn_pool, n, seed, strategy, num_shards):
        graph = random_weighted_graph(n, 4.0, max_weight=9, seed=seed)
        num_shards = min(num_shards, n)
        tmp = tmp_path_factory.mktemp("parity")
        _, _, serial = build_shards(
            graph, tmp / "serial.npz", num_shards, strategy, jobs=1)
        _, _, pooled = build_shards(
            graph, tmp / "pooled.npz", num_shards, strategy, jobs=4,
            pool=spawn_pool)
        assert shard_digests(serial) == shard_digests(pooled)

    def test_deterministic_across_runs(self, tmp_path):
        # Byte determinism in time, not just across job counts: two runs
        # of the same build hash identically (fixed zip timestamps).
        graph = random_weighted_graph(15, 4.0, max_weight=9, seed=10)
        digests = [
            shard_digests(build_shards(graph, tmp_path / f"{tag}.npz", 2,
                                       jobs=1)[2])
            for tag in ("one", "two")]
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("jobs", [None, 1])
    @pytest.mark.parametrize("strategy", list(STRATEGY_NAMES))
    def test_row_members_are_row_major_in_every_shard(
            self, tmp_path, strategy, jobs):
        # A row of a mapped shard is one contiguous read whatever built it
        # (a column gather of the closure comes back column-major).
        graph = random_weighted_graph(24, 4.0, max_weight=9, seed=11)
        artifact, _, _ = build_shards(graph, tmp_path / "c", 3, strategy,
                                      jobs=jobs)
        for index in range(artifact.num_shards):
            blocks = artifact.open_shard(index)
            for name in artifact.sharded_array_names:
                assert blocks[name].flags.c_contiguous, (index, name)


def payload_digests(artifact):
    """``{array: SHA-256 of (dtype, shape, C-order bytes)}`` as loaded."""
    digests = {}
    for name in artifact.array_names:
        array = np.ascontiguousarray(artifact.materialize(name))
        digest = hashlib.sha256(f"{array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())
        digests[name] = digest.hexdigest()
    return digests


#: ``(strategy, jobs) -> (build.rounds, payload_digests)`` of a 4-shard
#: build of ``random_weighted_graph(128, 8, 32, 7)``.  Array contents, not
#: file digests: they are what answers depend on, and they do not move
#: with the numpy version that wrote the zip.  A deliberate change to a
#: build's output updates this table and nothing else.
PINNED_PAYLOADS = {
    ("dense-apsp", None): (2454.0, {
        "dist": "b067e6a56b6c5a6e1243d426a602d5936e15415a1a09930ab38734b637706985",
    }),
    ("dense-apsp", 1): (0.0, {
        "dist": "d4f8b31deeb4c90163ced4b8769c6704fd827d1d30235afa21f79a4359a72b2f",
    }),
    ("landmark-mssp", None): (2413.0, {
        "ball_dist": "419f3f679aabc7e748f98d3b4fa76bb954296783255d0a62a54f66481b77622d",
        "ball_idx": "b13abfff19241b6c2f7efb7ffa1c5ea6c340e5e9f3fb8a28a7b6a12bc805c494",
        "landmark_dist": "a5edc06e9d62567b956a41113f65f8183457ad32e14f84ed466ae45031e7441d",
        "landmarks": "55a7538293a22e1444c772ae277ec045f2e1d1f3f7eee542460359f05dd74d4e",
    }),
    ("landmark-mssp", 1): (0.0, {
        "ball_dist": "419f3f679aabc7e748f98d3b4fa76bb954296783255d0a62a54f66481b77622d",
        "ball_idx": "53ba09b9703d290eff845d993206b941dc1bf84380d7556819495fe2c1fdbafe",
        "landmark_dist": "59561a632718c86590870b798a7602495f73d84652e48807ea20666f730aceec",
        "landmarks": "4c101abc8bc3d20a453e90db0db8df18b6ababb34f63b68eee5a875d6e8aaa95",
    }),
    ("exact-fallback", None): (245.0, {
        "dist": "d4f8b31deeb4c90163ced4b8769c6704fd827d1d30235afa21f79a4359a72b2f",
    }),
    ("exact-fallback", 1): (0.0, {
        "dist": "d4f8b31deeb4c90163ced4b8769c6704fd827d1d30235afa21f79a4359a72b2f",
    }),
    ("spanner-greedy", None): (43.0, {
        "ball_dist": "346275f04da56ee563ef8cb5f554dea44e3e0592cceeafd4dd9542c6c509e78f",
        "ball_idx": "34a42c865fea8c7eec9b827ef3185c89cb227172834d22a17aa6c40fc001ae08",
        "landmark_dist": "f120e6600fa2e922e754f853dc6efcca2d1112af36a0fb3796095a2e1f77b384",
        "landmarks": "e187a5e9bcb69334d43d9e2f086e36ebc6d5cec4227a1ace6123ce4e38b971ab",
        "spanner_indices": "b4c975de9cd893849f5eff0aa765bb895f1af9e2f619b86809ddb577bdf7206c",
        "spanner_indptr": "a68c78e6cc3d58e898db6a16a08b8142b345784386a53fc4bcca122ecac6c8c1",
        "spanner_weights": "822eba2832d741368565b93bb62c970aba3ce0d2805d206321168c9ea34fca25",
    }),
    ("spanner-greedy", 1): (43.0, {
        "ball_dist": "346275f04da56ee563ef8cb5f554dea44e3e0592cceeafd4dd9542c6c509e78f",
        "ball_idx": "34a42c865fea8c7eec9b827ef3185c89cb227172834d22a17aa6c40fc001ae08",
        "landmark_dist": "f120e6600fa2e922e754f853dc6efcca2d1112af36a0fb3796095a2e1f77b384",
        "landmarks": "e187a5e9bcb69334d43d9e2f086e36ebc6d5cec4227a1ace6123ce4e38b971ab",
        "spanner_indices": "b4c975de9cd893849f5eff0aa765bb895f1af9e2f619b86809ddb577bdf7206c",
        "spanner_indptr": "a68c78e6cc3d58e898db6a16a08b8142b345784386a53fc4bcca122ecac6c8c1",
        "spanner_weights": "822eba2832d741368565b93bb62c970aba3ce0d2805d206321168c9ea34fca25",
    }),
    ("hopset-landmark", None): (1724.0, {
        "ball_dist": "0a76148e66e28f3e21c36231fc95e2da303a3b401fc138635269cd1dddb779b0",
        "ball_idx": "2f8cd3df2e1098c76d6aa0aabdfeec55836f7e22163c7f41b0f39129f0afcaa5",
        "landmark_dist": "a5edc06e9d62567b956a41113f65f8183457ad32e14f84ed466ae45031e7441d",
        "landmarks": "55a7538293a22e1444c772ae277ec045f2e1d1f3f7eee542460359f05dd74d4e",
    }),
    ("hopset-landmark", 1): (1724.0, {
        "ball_dist": "0a76148e66e28f3e21c36231fc95e2da303a3b401fc138635269cd1dddb779b0",
        "ball_idx": "2f8cd3df2e1098c76d6aa0aabdfeec55836f7e22163c7f41b0f39129f0afcaa5",
        "landmark_dist": "a5edc06e9d62567b956a41113f65f8183457ad32e14f84ed466ae45031e7441d",
        "landmarks": "55a7538293a22e1444c772ae277ec045f2e1d1f3f7eee542460359f05dd74d4e",
    }),
}


def test_payload_digests_are_pinned(tmp_path):
    graph = random_weighted_graph(128, 8, 32, 7)
    built = {}
    for strategy in STRATEGY_NAMES:
        for jobs in (None, 1):
            artifact, _, _ = build_shards(
                graph, tmp_path / f"{strategy}-{jobs}", 4, strategy, jobs=jobs)
            built[strategy, jobs] = (artifact.metadata["build"]["rounds"],
                                     payload_digests(artifact))
    assert built == PINNED_PAYLOADS


class TestOnePipeline:
    def test_build_metadata_records_parallel_mode(self):
        graph = random_weighted_graph(12, 4.0, max_weight=5, seed=13)
        artifact = OracleBuilder(jobs=1).build(graph)
        build = artifact.metadata["build"]
        assert build["mode"] == "inline"
        assert build["jobs"] == 1
        assert build["rounds"] == 0.0
        assert build["closure_steps"] == max(1, shortest_path_diameter(graph))
        assert set(build["phases"]) >= {"closure", "balls", "hitting-set"}

    def test_pooled_build_records_parallel_mode(self, spawn_pool):
        graph = random_weighted_graph(12, 4.0, max_weight=5, seed=14)
        build = OracleBuilder("dense-apsp", jobs=2, pool=spawn_pool).build(
            graph).metadata["build"]
        assert (build["mode"], build["jobs"]) == ("parallel", 2)

    def test_in_memory_product_owns_its_memory(self):
        # The executor's maps are deleted when the build returns.
        graph = random_weighted_graph(12, 4.0, max_weight=5, seed=14)
        artifact = OracleBuilder("dense-apsp", jobs=1).build(graph)
        for array in artifact.arrays.values():
            while array is not None:
                assert not isinstance(array, np.memmap)
                array = getattr(array, "base", None)

    def test_classic_path_unchanged_without_jobs(self):
        graph = random_weighted_graph(12, 4.0, max_weight=5, seed=15)
        artifact = OracleBuilder(strategy="landmark-mssp").build(graph)
        build = artifact.metadata["build"]
        assert build["mode"] == "simulated-clique"
        assert build["rounds"] > 0
        assert "k-nearest" in build["phases"]

    def test_shard_write_is_a_phase_of_every_sharded_build(self, tmp_path):
        graph = random_weighted_graph(16, 4.0, max_weight=5, seed=15)
        artifact, _, _ = build_shards(graph, tmp_path / "p", 2, "dense-apsp")
        build = artifact.metadata["build"]
        assert set(build["phases"]) == {"apsp", "shard-write"}
        # Each phase is rounded to a microsecond.
        assert build["seconds"] >= sum(build["phases"].values()) - 1e-5

    def test_strategy_without_slab_build_takes_no_executor(self, monkeypatch):
        def no_enter(self):
            raise AssertionError("spanner-greedy has no slab build")
        monkeypatch.setattr(SlabExecutor, "__enter__", no_enter)
        graph = random_weighted_graph(12, 4.0, max_weight=5, seed=16)
        builder = OracleBuilder("spanner-greedy", jobs=2)
        artifact = builder.build(graph)
        build = artifact.metadata["build"]
        assert build["mode"] == "simulated-clique" and build["jobs"] == 1
        assert "spanner" in build["phases"]
        text = builder.report(artifact).summary(verbose=True)
        assert "workers           : 1 (simulated-clique)" in text

    def test_invalid_inputs(self, tmp_path):
        graph = random_weighted_graph(8, 3.0, max_weight=5, seed=16)
        with pytest.raises(ValueError, match="jobs"):
            OracleBuilder(jobs=0)
        with pytest.raises(ValueError, match="epsilon"):
            OracleBuilder(epsilon=0.0, jobs=1)
        with pytest.raises(ValueError, match="num_shards"):
            build_shards(graph, tmp_path / "x.npz", 99, jobs=1)
        with pytest.raises(ValueError, match="undirected"):
            OracleBuilder(jobs=1).build(Graph(4, directed=True))


class TestBuildReportAndCLI:
    def test_report_carries_phases_and_jobs(self):
        graph = random_weighted_graph(14, 4.0, max_weight=6, seed=17)
        builder = OracleBuilder(strategy="landmark-mssp", jobs=1)
        artifact = builder.build(graph)
        report = builder.report(artifact)
        assert report.jobs == 1
        assert report.mode == "inline"
        assert report.phases and all(v >= 0 for v in report.phases.values())
        text = report.summary(verbose=True)
        assert "workers" in text and "phase" in text
        assert "workers" not in report.summary()

    def test_cli_build_jobs_verbose(self, tmp_path, capsys):
        artifact = tmp_path / "cli.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--jobs", "1", "--shards", "2", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "workers           : 1 (inline)" in out
        assert "phase" in out
        assert "manifest" in out
        engine = QueryEngine(load_artifact(artifact))
        assert engine.dist(0, 0) == 0.0

    def test_cli_build_kernel_pin(self, tmp_path, capsys):
        artifact = tmp_path / "cli2.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--kernel", "dense-blocked"]) == 0
        out = capsys.readouterr().out
        assert "kernel            : dense-blocked" in out
