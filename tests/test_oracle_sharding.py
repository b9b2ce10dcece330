"""Tests for the row-shard artifact format itself: manifest structure, the
accessors against plain indexing, laziness, checksum corruption and
missing-shard error paths, and the locality of a point read (it opens the
shards owning its rows and no other).  Answer parity across layouts lives
in ``test_engine_reference.py``."""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.disk import corrupt_shard_file
from repro.graphs import random_weighted_graph
from repro.net.bench import synthetic_sharded_artifact
from repro.oracle import (
    ArtifactError,
    QueryEngine,
    ShardedOracleArtifact,
    build_oracle,
    load_artifact,
    shard_artifact,
    shard_manifest_path,
)
from repro.oracle.sharding import ShardIntegrityError, grouped_runs
from repro.serve import DistanceServer, ServerConfig

STRATEGIES = ("dense-apsp", "landmark-mssp", "exact-fallback")


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(34, average_degree=6, max_weight=11, seed=13)


@pytest.fixture(scope="module")
def artifacts(graph):
    """One in-memory artifact per strategy, shared across the module."""
    return {strategy: build_oracle(graph, strategy=strategy, epsilon=0.5)
            for strategy in STRATEGIES}


@pytest.fixture(scope="module")
def sharded_dir(artifacts, tmp_path_factory):
    """Each strategy saved as a 5-shard artifact."""
    root = tmp_path_factory.mktemp("sharded")
    for strategy, artifact in artifacts.items():
        artifact.save_sharded(root / f"{strategy}-sharded", num_shards=5)
    return root


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u, n)]


def mapping_of(array):
    """The ``np.memmap`` ``array`` is a view of (through any chain of plain
    views), or None for an array that owns or copied its data."""
    while array is not None and not isinstance(array, np.memmap):
        array = getattr(array, "base", None)
    return array


class TestFormat:
    def test_save_sharded_writes_manifest_and_shards(self, artifacts, tmp_path):
        manifest_path, shards = artifacts["dense-apsp"].save_sharded(
            tmp_path / "o", num_shards=4)
        assert manifest_path.name == "o.shards.json"
        assert [shard.name for shard in shards] == [
            f"o.shard-{index}.npz" for index in range(4)]
        manifest = json.loads(manifest_path.read_text())
        assert manifest["num_shards"] == 4
        rows = [(item["row_start"], item["row_stop"])
                for item in manifest["shards"]]
        assert rows[0][0] == 0
        assert rows[-1][1] == artifacts["dense-apsp"].n
        assert all(len(item["sha256"]) == 64 for item in manifest["shards"])
        assert "dist" in manifest["sharded_arrays"]

    def test_landmark_common_arrays_live_in_shard_zero(self, artifacts, tmp_path):
        manifest_path, _ = artifacts["landmark-mssp"].save_sharded(
            tmp_path / "lm", num_shards=3)
        manifest = json.loads(manifest_path.read_text())
        assert "landmarks" in manifest["common_arrays"]
        loaded = ShardedOracleArtifact.load(manifest_path)
        np.testing.assert_array_equal(
            loaded.common("landmarks"),
            artifacts["landmark-mssp"].arrays["landmarks"])

    def test_load_artifact_missing_everything_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            load_artifact(tmp_path / "nope.npz")

    def test_num_shards_out_of_range_rejected(self, artifacts, tmp_path):
        with pytest.raises(ValueError, match="num_shards"):
            artifacts["dense-apsp"].save_sharded(tmp_path / "bad", num_shards=0)
        with pytest.raises(ValueError, match="num_shards"):
            artifacts["dense-apsp"].save_sharded(tmp_path / "bad",
                                                 num_shards=10_000)

    def test_reshard_of_sharded_artifact_identical(self, sharded_dir,
                                                   tmp_path):
        source = sharded_dir / "landmark-mssp-sharded.shards.json"
        manifest, _ = shard_artifact(source, tmp_path / "re", num_shards=2)
        original = QueryEngine(load_artifact(source))
        resharded = QueryEngine(load_artifact(manifest))
        assert (original.artifact.num_shards, resharded.artifact.num_shards) \
            == (5, 2)
        pairs = all_pairs(original.n)[:300]
        assert np.array_equal(original.batch(pairs), resharded.batch(pairs))

    def test_rows_are_memory_mapped(self, sharded_dir):
        loaded = ShardedOracleArtifact.load(
            sharded_dir / "dense-apsp-sharded.shards.json")
        assert mapping_of(loaded.row("dist", 0)) is not None


#: What the accessor property reads: ``gather`` exists for the n x n table
#: only; ``rows``/``row`` serve every row-sharded array, whatever its width.
ACCESSOR_ARRAYS = {
    "dense-apsp": ("dist",),
    "landmark-mssp": ("landmark_dist", "ball_idx", "ball_dist"),
}
ACCESSOR_SHARDS = (1, 3, 8)


@pytest.fixture(scope="module")
def accessor_artifacts(artifacts, tmp_path_factory):
    """``(strategy, requested shards) -> (resident arrays, mapped artifact)``."""
    root = tmp_path_factory.mktemp("accessors")
    opened = {}
    for strategy in ACCESSOR_ARRAYS:
        for num_shards in ACCESSOR_SHARDS:
            manifest, _ = artifacts[strategy].save_sharded(
                root / f"{strategy}-{num_shards}", num_shards=num_shards)
            opened[strategy, num_shards] = (
                artifacts[strategy].arrays,
                ShardedOracleArtifact.load(manifest, verify="none"))
    return opened


def assert_accessors_agree(arrays, mapped, names, rows, cols):
    """``rows``/``gather``/``row`` against plain indexing of the resident table."""
    index = np.asarray(rows, dtype=np.int64)
    for name in names:
        table = arrays[name]
        got = mapped.rows(name, index)
        assert got.dtype == table.dtype and got.shape == table[index].shape
        assert np.array_equal(got, table[index], equal_nan=True)
        for row in rows[:5]:
            assert np.array_equal(mapped.row(name, row), table[row],
                                  equal_nan=True)
    if "dist" in names:
        picked = np.asarray(cols, dtype=np.int64)
        assert np.array_equal(mapped.gather("dist", index, picked),
                              arrays["dist"][index, picked])


class TestAccessors:
    """``rows``/``gather``/``row`` are plain indexing, shard layout unseen."""

    @pytest.mark.parametrize("strategy", sorted(ACCESSOR_ARRAYS))
    @pytest.mark.parametrize("num_shards", ACCESSOR_SHARDS)
    def test_materialize_and_reopen_after_quarantine(
            self, accessor_artifacts, strategy, num_shards):
        arrays, mapped = accessor_artifacts[strategy, num_shards]
        names = ACCESSOR_ARRAYS[strategy]
        for name in names:
            assert np.array_equal(mapped.materialize(name), arrays[name],
                                  equal_nan=True)
        rng = np.random.default_rng(num_shards)
        rows = rng.integers(0, mapped.n, size=80).tolist()
        cols = rng.integers(0, mapped.n, size=80).tolist()
        assert_accessors_agree(arrays, mapped, names, rows, cols)
        for shard in range(mapped.num_shards):
            before = mapped.open_shard(shard)
            mapped.quarantine(shard)
            assert_accessors_agree(arrays, mapped, names, rows, cols)
            assert mapped.open_shard(shard) is not before

    def test_rows_outside_the_table_raise(self, accessor_artifacts):
        _arrays, mapped = accessor_artifacts["dense-apsp", 3]
        for bad in ([-1], [0, mapped.n], [mapped.n + 7, 2]):
            with pytest.raises(IndexError):
                mapped.rows("dist", np.asarray(bad))
            with pytest.raises(IndexError):
                mapped.gather("dist", np.asarray(bad), np.zeros(len(bad), int))

    def test_repaired_shard_is_read_from_the_new_file(self, artifacts, tmp_path):
        """Nothing read through a mapping may outlive it: after rot, a failed
        re-verification and a repair that *replaces* the file, answers come
        from the new inode — the old one still holds the rotten bytes."""
        table = artifacts["dense-apsp"].arrays["dist"]
        manifest, shards = artifacts["dense-apsp"].save_sharded(
            tmp_path / "heal", num_shards=3)
        mapped = ShardedOracleArtifact.load(manifest, verify="none")
        start, stop = mapped.row_ranges[1]
        rows = np.repeat(np.arange(start, stop), mapped.n)
        cols = np.tile(np.arange(mapped.n), stop - start)
        want = table[rows, cols]
        assert np.array_equal(mapped.gather("dist", rows, cols), want)

        sound = shards[1].read_bytes()
        corrupt_shard_file(shards[1], seed=3, flips=2048, backup=False)
        assert not np.array_equal(mapped.gather("dist", rows, cols), want,
                                  equal_nan=True)  # rot shows through the map
        mapped.quarantine(1)
        with pytest.raises(ShardIntegrityError, match="checksum"):
            mapped.gather("dist", rows, cols)
        with pytest.raises(ShardIntegrityError, match="condemned"):
            mapped.rows("dist", np.arange(start, stop))

        repaired = shards[1].with_suffix(".repaired")
        repaired.write_bytes(sound)
        os.replace(repaired, shards[1])
        mapped.condemned_recheck = 0.0
        assert np.array_equal(mapped.gather("dist", rows, cols), want)
        assert np.array_equal(mapped.rows("dist", np.arange(start, stop)),
                              table[start:stop])
        assert np.array_equal(mapped.row("dist", start), table[start])


class TestGroupedRuns:
    @given(ids=st.lists(st.integers(-3, 9), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_runs_partition_the_positions_in_input_order(self, ids):
        array = np.asarray(ids, dtype=np.int64)
        runs = grouped_runs(array)
        assert [run_id for run_id, _ in runs] == sorted(set(ids))
        positions = np.arange(len(ids))
        for run_id, where in runs:
            assert positions[where].tolist() == [
                spot for spot, value in enumerate(ids) if value == run_id]
        if ids == sorted(ids):  # already grouped: no sort, slices only
            assert all(isinstance(where, slice) for _, where in runs)
        if len(set(ids)) == 1:  # one owner: the whole input, as it is
            assert runs[0][1] == slice(0, len(ids))


class TestLaziness:
    def test_load_opens_no_shards(self, sharded_dir):
        loaded = ShardedOracleArtifact.load(
            sharded_dir / "dense-apsp-sharded.shards.json")
        assert loaded.faults == 0

    def test_queries_fault_only_touched_shards(self, sharded_dir):
        loaded = ShardedOracleArtifact.load(
            sharded_dir / "dense-apsp-sharded.shards.json")
        engine = QueryEngine(loaded)
        engine.dist(0, 1)  # both endpoints' rows live in shard 0
        assert loaded.faults == 1
        engine.dist(0, loaded.n - 1)  # column index needs no other shard
        assert loaded.faults == 1


class TestCorruption:
    def test_corrupt_shard_detected_on_first_open(self, artifacts, tmp_path):
        _, shards = artifacts["dense-apsp"].save_sharded(tmp_path / "c",
                                                         num_shards=3)
        data = bytearray(shards[1].read_bytes())
        data[len(data) // 2] ^= 0xFF
        shards[1].write_bytes(bytes(data))
        loaded = ShardedOracleArtifact.load(tmp_path / "c")  # lazy: loads fine
        engine = QueryEngine(loaded)
        n_per = -(-loaded.n // 3)
        with pytest.raises(ArtifactError, match="checksum"):
            engine.dist(n_per, n_per + 1)  # first touch of shard 1

    def test_corrupt_shard_detected_eagerly(self, artifacts, tmp_path):
        _, shards = artifacts["dense-apsp"].save_sharded(tmp_path / "e",
                                                         num_shards=3)
        data = bytearray(shards[2].read_bytes())
        data[-10] ^= 0xFF
        shards[2].write_bytes(bytes(data))
        with pytest.raises(ArtifactError, match="checksum"):
            ShardedOracleArtifact.load(tmp_path / "e", verify="eager")

    def test_missing_shard_file_rejected_at_load(self, artifacts, tmp_path):
        _, shards = artifacts["dense-apsp"].save_sharded(tmp_path / "m",
                                                         num_shards=3)
        shards[1].unlink()
        with pytest.raises(ArtifactError, match="missing shard"):
            ShardedOracleArtifact.load(tmp_path / "m")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="not found: no shard manifest"):
            ShardedOracleArtifact.load(tmp_path / "ghost")

    def test_unknown_manifest_version_rejected(self, artifacts, tmp_path):
        manifest_path, _ = artifacts["dense-apsp"].save_sharded(
            tmp_path / "v", num_shards=2)
        manifest = json.loads(manifest_path.read_text())
        manifest["shard_manifest_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="shard_manifest_version"):
            ShardedOracleArtifact.load(manifest_path)

    def test_unparseable_manifest_rejected(self, tmp_path):
        path = tmp_path / "bad.shards.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="unparseable"):
            ShardedOracleArtifact.load(path)

    def test_manifest_path_helper(self, tmp_path):
        assert shard_manifest_path(tmp_path / "x.npz").name == "x.shards.json"
        assert shard_manifest_path(tmp_path / "x").name == "x.shards.json"
        assert shard_manifest_path(
            tmp_path / "x.shards.json").name == "x.shards.json"


def _through_server(artifact, call):
    """``(answer, quarantines)`` of ``call(server)``, coalescing window off."""
    async def drive():
        config = ServerConfig(coalesce_window=0)
        async with DistanceServer(QueryEngine(artifact), config) as server:
            value = await call(server)
            return value, server.stats()["quarantines"]
    return asyncio.run(drive())


async def _gather_one(server, u, v):
    return (await server.gather([u], [v]))[0]


#: The four ways one pair reaches the point kernel, each on a fresh engine
#: and each returning ``(answer, server quarantines)``.
POINT_DOORS = {
    "engine.dist": lambda artifact, u, v: (
        QueryEngine(artifact).dist(u, v), 0),
    "engine.batch": lambda artifact, u, v: (
        QueryEngine(artifact).batch([(u, v)])[0], 0),
    "server.dist": lambda artifact, u, v: _through_server(
        artifact, lambda server: server.dist(u, v)),
    "server.gather": lambda artifact, u, v: _through_server(
        artifact, lambda server: _gather_one(server, u, v)),
}


def boundary_pairs(ranges, n):
    """First and last row of every shard, each paired with a far node."""
    rows = sorted({row for start, stop in ranges for row in (start, stop - 1)})
    return [(u, (u + n // 2) % n) for u in rows]


@pytest.mark.parametrize("door", sorted(POINT_DOORS))
class TestPointLocality:
    """A point read opens the shards owning the rows it reads, no other."""

    def test_dense_point_read_opens_one_shard(self, tmp_path, door):
        manifest = synthetic_sharded_artifact(tmp_path, n=200, num_shards=8)
        reference = load_artifact(manifest)
        table = reference.materialize("dist")
        for u, v in [(3, 150)] + boundary_pairs(reference.row_ranges, 200):
            artifact = load_artifact(manifest)
            value, _ = POINT_DOORS[door](artifact, u, v)
            assert value == table[u, v]
            assert artifact.faults == 1, (u, v)

    @pytest.mark.parametrize("strategy", ["landmark-mssp", "spanner-greedy"])
    def test_landmark_point_read_opens_its_endpoints_shards(
            self, graph, artifacts, tmp_path, door, strategy):
        built = (artifacts[strategy] if strategy in artifacts
                 else build_oracle(graph, strategy=strategy))
        manifest, _ = built.save_sharded(tmp_path / "lm", num_shards=8)
        resident = QueryEngine(built, cache_size=0)
        ranges = load_artifact(manifest).row_ranges
        seen = set()
        for u, v in boundary_pairs(ranges, built.n):
            artifact = load_artifact(manifest)
            value, _ = POINT_DOORS[door](artifact, u, v)
            assert value == resident.dist(u, v)
            lo, hi = min(u, v), max(u, v)
            # The kernel probes lo's ball first and stops on a hit; the
            # spanner engine read its CSR out of shard 0 when it was built.
            rows = [lo] if hi in built.arrays["ball_idx"][lo] else [lo, hi]
            owners = set(artifact.shard_of_rows(np.asarray(rows)).tolist())
            if strategy == "spanner-greedy":
                owners.add(0)
            assert artifact.faults == len(owners), (u, v)
            seen.add(len(owners))
        assert max(seen) == (3 if strategy == "spanner-greedy" else 2)

    def test_rotten_neighbour_does_not_fail_the_read(self, tmp_path, door):
        manifest = synthetic_sharded_artifact(tmp_path, n=200, num_shards=8)
        reference = load_artifact(manifest)
        table = reference.materialize("dist")
        corrupt_shard_file(reference.shard_file(1), backup=False)
        # Rows of shards 0 and 2, on both sides of the rotten shard 1.
        for u, v in [(3, 150), (24, 150), (50, 150)]:
            value, quarantines = POINT_DOORS[door](
                load_artifact(manifest), u, v)
            assert value == table[u, v]
            assert quarantines == 0
        with pytest.raises(ShardIntegrityError, match="checksum"):
            POINT_DOORS[door](load_artifact(manifest), 30, 150)
