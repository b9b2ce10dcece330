"""Tests for the on-disk artifact format at its default layout — one row
shard plus a manifest: round-tripping, versioning, corruption detection,
and the refusal of a leftover monolithic (format 1) pair."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graphs import random_weighted_graph
from repro.oracle import (
    FORMAT_VERSION,
    ArtifactError,
    OracleArtifact,
    QueryEngine,
    build_oracle,
    load_artifact,
    write_sharded_artifact,
)
from repro.oracle import sharding


@pytest.fixture(scope="module")
def small_artifact():
    graph = random_weighted_graph(24, average_degree=6, max_weight=8, seed=21)
    return build_oracle(graph, strategy="landmark-mssp", epsilon=0.5)


class TestRoundTrip:
    def test_base_npz_and_manifest_paths_name_one_artifact(self, small_artifact,
                                                           tmp_path):
        manifest, _ = small_artifact.save_sharded(tmp_path / "oracle")
        for path in (tmp_path / "oracle", tmp_path / "oracle.npz", manifest):
            assert load_artifact(path).manifest_path == manifest

    def test_manifest_is_valid_json_with_provenance(self, small_artifact, tmp_path):
        manifest, _ = small_artifact.save_sharded(tmp_path / "o.npz")
        content = json.loads(manifest.read_text())
        meta = content["metadata"]
        assert meta["format_version"] == FORMAT_VERSION
        assert meta["strategy"] == "landmark-mssp"
        assert meta["build"]["rounds"] > 0
        assert sorted([*content["sharded_arrays"], *content["common_arrays"]]) \
            == sorted(small_artifact.arrays)
        assert [len(shard["sha256"]) for shard in content["shards"]] == [64]


class TestLeftoverMonolithicPair:
    def test_load_artifact_names_the_rebuild(self, monolithic_pair):
        for path in (monolithic_pair, monolithic_pair.with_suffix("")):
            with pytest.raises(ArtifactError, match="repro oracle build"):
                load_artifact(path)

    def test_a_rebuild_next_to_it_is_what_loads(self, small_artifact,
                                                monolithic_pair):
        small_artifact.save_sharded(monolithic_pair)
        assert load_artifact(monolithic_pair).n == small_artifact.n


class TestCorruptionAndVersioning:
    def test_corrupt_payload_detected_on_first_open(self, small_artifact, tmp_path):
        """Lazy by default: the manifest opens, the one shard is checksummed
        whole the first time a query reaches it."""
        _, (shard,) = small_artifact.save_sharded(tmp_path / "o.npz")
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        engine = QueryEngine(load_artifact(tmp_path / "o.npz"))
        with pytest.raises(ArtifactError, match="checksum"):
            engine.dist(0, 5)
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(tmp_path / "o.npz", verify="eager")

    def test_unknown_format_version_rejected(self, small_artifact, tmp_path):
        manifest, _ = small_artifact.save_sharded(tmp_path / "o.npz")
        content = json.loads(manifest.read_text())
        content["metadata"]["format_version"] = FORMAT_VERSION + 99
        manifest.write_text(json.dumps(content))
        with pytest.raises(ArtifactError, match="format_version"):
            load_artifact(manifest)

    def test_payload_missing_required_array_rejected(self, small_artifact, tmp_path):
        artifact = OracleArtifact(
            metadata=dict(small_artifact.metadata),
            arrays={k: v for k, v in small_artifact.arrays.items()
                    if k != "landmark_dist"},
        )
        with pytest.raises(ArtifactError, match="landmark_dist"):
            artifact.save_sharded(tmp_path / "o.npz")


# ----------------------------------------------------------------------
# array shapes: one schema check, both representations
# ----------------------------------------------------------------------
#: case -> (strategy, arrays to replace, what the error must name)
BAD_SHAPES = {
    "dist-smaller-than-n": (
        "dense-apsp", lambda a: {"dist": a["dist"][:-2, :-2]}, "dist"),
    "dist-not-square": (
        "dense-apsp", lambda a: {"dist": a["dist"][:, :-1]}, "dist"),
    "rows-not-one-per-node": (
        "landmark-mssp",
        lambda a: {"landmark_dist": a["landmark_dist"][:-2]}, "landmark_dist"),
    "ball-tables-disagree": (
        "landmark-mssp",
        lambda a: {"ball_dist": a["ball_dist"][:, :-1]}, "ball_dist"),
    "indptr-not-n-plus-one": (
        "spanner-greedy",
        lambda a: {"spanner_indptr": a["spanner_indptr"][:-1]},
        "spanner_indptr"),
    "weights-shorter-than-indices": (
        "spanner-greedy",
        lambda a: {"spanner_weights": a["spanner_weights"][:-1]},
        "spanner_weights"),
    "csr-shorter-than-indptr-says": (
        "spanner-greedy",
        lambda a: {"spanner_indices": a["spanner_indices"][:-2],
                   "spanner_weights": a["spanner_weights"][:-2]},
        "spanner_indices"),
}
#: Needs a read of shard 0, so it surfaces at validate(), not at load.
NEEDS_PAYLOAD_VALUES = {"csr-shorter-than-indptr-says"}


def _with(array, index, value):
    out = array.copy()
    out[index] = value
    return out


#: case -> (arrays to replace in the ``spanner-greedy`` payload, shapes
#: intact, what the error must name): a CSR that is not one.
BAD_CSR_VALUES = {
    "indptr-does-not-start-at-zero": (
        lambda a: {"spanner_indptr": _with(a["spanner_indptr"], 0, 1)},
        "spanner_indptr"),
    "indptr-decreases": (
        lambda a: {"spanner_indptr": _with(
            a["spanner_indptr"], 3, a["spanner_indptr"][-1] + 5)},
        "spanner_indptr"),
    "column-id-past-n": (
        lambda a: {"spanner_indices": _with(
            a["spanner_indices"], 0, len(a["spanner_indptr"]) - 1)},
        "spanner_indices"),
    "column-id-negative": (
        lambda a: {"spanner_indices": _with(a["spanner_indices"], -1, -1)},
        "spanner_indices"),
}


@pytest.fixture(scope="module")
def built():
    graph = random_weighted_graph(24, average_degree=6, max_weight=8, seed=21)
    return {strategy: build_oracle(graph, strategy=strategy, epsilon=0.5)
            for strategy in ("dense-apsp", "landmark-mssp", "spanner-greedy")}


def misshapen(built, case):
    strategy, replace, names = BAD_SHAPES[case]
    good = built[strategy]
    arrays = dict(good.arrays)
    arrays.update(replace(good.arrays))
    return OracleArtifact(metadata=dict(good.metadata), arrays=arrays), names


class TestSchemaShapes:
    def test_well_formed_artifacts_pass(self, built, tmp_path):
        for strategy, artifact in built.items():
            artifact.validate()
            manifest, _ = artifact.save_sharded(tmp_path / strategy, 3)
            load_artifact(manifest).validate()

    @pytest.mark.parametrize("case", sorted(BAD_SHAPES))
    def test_resident_artifact_rejected(self, built, case, tmp_path):
        bad, names = misshapen(built, case)
        with pytest.raises(ArtifactError, match=names):
            bad.validate()
        with pytest.raises(ArtifactError, match=names):
            bad.save_sharded(tmp_path / "bad.npz")
        with pytest.raises(ArtifactError, match=names):
            QueryEngine(bad)

    def test_payload_that_disagrees_with_its_manifest_metadata_rejected(
            self, built, tmp_path):
        manifest, _ = built["dense-apsp"].save_sharded(tmp_path / "o.npz")
        content = json.loads(manifest.read_text())
        content["metadata"]["n"] += 2  # the checksums cover the shards, not this
        manifest.write_text(json.dumps(content))
        with pytest.raises(ArtifactError, match="dist"):
            load_artifact(manifest)

    @pytest.mark.parametrize("case", sorted(BAD_SHAPES))
    def test_sharded_artifact_rejected(self, built, case, tmp_path):
        """The shard writer refuses the payload, and the loader refuses a
        manifest that declares those shapes (the writer never produces
        one, so the manifest is doctored)."""
        bad, names = misshapen(built, case)
        with pytest.raises(ArtifactError, match=names):
            write_sharded_artifact(bad.metadata, bad.arrays,
                                   tmp_path / "bad", num_shards=3)
        with pytest.raises(ArtifactError, match=names):
            bad.save_sharded(tmp_path / "bad", num_shards=3)

        strategy, replace, _ = BAD_SHAPES[case]
        manifest_path, _ = built[strategy].save_sharded(tmp_path / "doc", 3)
        manifest = json.loads(manifest_path.read_text())
        for name, array in replace(built[strategy].arrays).items():
            section = ("sharded_arrays" if name in manifest["sharded_arrays"]
                       else "common_arrays")
            manifest[section][name]["shape"] = list(array.shape)
        manifest_path.write_text(json.dumps(manifest))
        if case in NEEDS_PAYLOAD_VALUES:
            loaded = load_artifact(manifest_path)
            assert loaded.faults == 0  # load stays manifest-only
            with pytest.raises(ArtifactError, match=names):
                loaded.validate()
            with pytest.raises(ArtifactError, match=names):
                QueryEngine(loaded)
        else:
            with pytest.raises(ArtifactError, match=names):
                load_artifact(manifest_path)

    @pytest.mark.parametrize("case", sorted(BAD_CSR_VALUES))
    def test_resident_csr_values_rejected(self, built, case, tmp_path):
        replace, names = BAD_CSR_VALUES[case]
        good = built["spanner-greedy"]
        bad = OracleArtifact(metadata=dict(good.metadata),
                             arrays={**good.arrays, **replace(good.arrays)})
        with pytest.raises(ArtifactError, match=names):
            bad.validate()
        with pytest.raises(ArtifactError, match=names):
            bad.save_sharded(tmp_path / "bad.npz")
        with pytest.raises(ArtifactError, match=names):
            QueryEngine(bad)

    @pytest.mark.parametrize("case", sorted(BAD_CSR_VALUES))
    def test_sharded_csr_values_rejected(self, built, case, tmp_path, monkeypatch):
        """The shard writer refuses the payload; shards written around the
        writer's check load (manifest-only) and are refused at validate()."""
        replace, names = BAD_CSR_VALUES[case]
        good = built["spanner-greedy"]
        arrays = {**good.arrays, **replace(good.arrays)}
        with pytest.raises(ArtifactError, match=names):
            write_sharded_artifact(good.metadata, arrays, tmp_path / "bad", num_shards=3)
        with monkeypatch.context() as patched:
            patched.setattr(sharding, "check_schema", lambda *args, **kwargs: None)
            manifest_path, _ = write_sharded_artifact(
                good.metadata, arrays, tmp_path / "doc", num_shards=3)
        loaded = load_artifact(manifest_path)
        assert loaded.faults == 0  # load stays manifest-only
        with pytest.raises(ArtifactError, match=names):
            loaded.validate()
        with pytest.raises(ArtifactError, match=names):
            QueryEngine(loaded)

    @pytest.mark.parametrize("field, value", [("shape", None), ("dtype", "<f4")])
    def test_common_arrays_of_shard_0_checked_against_the_manifest(
            self, built, field, value, tmp_path):
        """A manifest whose common-array declaration disagrees with what
        shard 0 holds is refused when the shard is opened (the schema puts
        no constraint on ``landmarks``, so nothing else would notice)."""
        manifest_path, _ = built["landmark-mssp"].save_sharded(tmp_path / "doc", 3)
        manifest = json.loads(manifest_path.read_text())
        declared = manifest["common_arrays"]["landmarks"]
        declared[field] = value or [declared["shape"][0] + 1]
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_artifact(manifest_path)
        with pytest.raises(ArtifactError, match="landmarks"):
            loaded.open_shard(0)
        with pytest.raises(ArtifactError, match="landmarks"):
            QueryEngine(loaded).dist(0, 5)
