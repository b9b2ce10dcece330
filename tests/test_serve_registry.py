"""Tests for the artifact registry: cheap registration, lazy engine
loading, LRU eviction, and manifest round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graphs import random_weighted_graph
from repro.obs.metrics import get_registry
from repro.oracle import (
    STRATEGY_NAMES,
    ArtifactError,
    QueryEngine,
    build_oracle,
    get_strategy,
)
from repro.serve import ArtifactRegistry, RegistryError, build_registry


@pytest.fixture(scope="module")
def graph():
    return random_weighted_graph(28, average_degree=6, max_weight=12, seed=5)


@pytest.fixture(scope="module")
def artifact_dir(graph, tmp_path_factory):
    """Three artifacts of the same graph at different stretch levels."""
    root = tmp_path_factory.mktemp("artifacts")
    build_oracle(graph, strategy="landmark-mssp",
                 epsilon=0.5).save_sharded(root / "cheap")
    build_oracle(graph, strategy="dense-apsp",
                 epsilon=0.25).save_sharded(root / "mid")
    build_oracle(graph, strategy="exact-fallback").save_sharded(root / "exact")
    return root


@pytest.fixture
def registry(artifact_dir):
    registry = ArtifactRegistry(capacity=4)
    registry.discover(artifact_dir)
    return registry


class TestRegistration:
    def test_register_reads_manifest_without_loading(self, artifact_dir):
        registry = ArtifactRegistry()
        entry = registry.register(artifact_dir / "cheap.npz")
        assert entry.name == "cheap"
        assert entry.path == artifact_dir / "cheap.shards.json"
        assert entry.row_ranges == ((0, 28),)
        assert entry.strategy == "landmark-mssp"
        assert entry.n == 28
        assert entry.stretch.multiplicative == pytest.approx(4.5)
        assert entry.estimate.payload_bytes > 0
        assert not registry.is_loaded("cheap")  # payload untouched

    def test_discover_finds_everything(self, registry):
        assert registry.names() == ["cheap", "exact", "mid"]
        assert len(registry) == 3
        assert "cheap" in registry

    def test_explicit_duplicate_name_rejected(self, artifact_dir, registry):
        with pytest.raises(RegistryError, match="already registered"):
            registry.register(artifact_dir / "cheap.npz", name="cheap")

    def test_auto_names_get_suffixed(self, artifact_dir, registry):
        entry = registry.register(artifact_dir / "cheap.npz")
        assert entry.name == "cheap-2"

    def test_missing_artifact_rejected(self, artifact_dir):
        registry = ArtifactRegistry()
        with pytest.raises(ArtifactError, match="not found"):
            registry.register(artifact_dir / "absent.npz")

    def test_unknown_name_rejected(self, registry):
        with pytest.raises(RegistryError, match="unknown artifact"):
            registry.get("nope")
        with pytest.raises(RegistryError, match="unknown artifact"):
            registry.engine("nope")

    def test_cost_model_orders_compact_before_dense(self, registry):
        cheap = registry.get("cheap")
        mid = registry.get("mid")
        # landmark-mssp stores ~n^{3/2} floats, the dense strategies n^2.
        assert cheap.estimate.payload_floats < mid.estimate.payload_floats
        assert cheap.cost < mid.cost
        assert cheap.cost == (cheap.estimate.payload_floats,
                              cheap.estimate.query_cost, 4.5, 0.0, "cheap")


class TestLazyEnginesAndEviction:
    def test_engine_loads_lazily_and_is_reused(self, registry):
        assert not registry.is_loaded("cheap")
        engine = registry.engine("cheap")
        assert isinstance(engine, QueryEngine)
        assert registry.is_loaded("cheap")
        assert registry.loads == 1
        assert registry.engine("cheap") is engine
        assert registry.loads == 1

    def test_capacity_one_evicts_previous(self, artifact_dir):
        registry = ArtifactRegistry(capacity=1)
        registry.discover(artifact_dir)
        registry.engine("cheap")
        registry.engine("mid")
        assert not registry.is_loaded("cheap")
        assert registry.is_loaded("mid")
        assert registry.evictions == 1
        registry.engine("cheap")  # reload counts as a fresh load
        assert registry.loads == 3

    def test_eviction_is_least_recently_used(self, artifact_dir):
        registry = ArtifactRegistry(capacity=2)
        registry.discover(artifact_dir)
        registry.engine("cheap")
        registry.engine("mid")
        registry.engine("cheap")  # refresh cheap; mid is now LRU
        registry.engine("exact")
        assert registry.is_loaded("cheap")
        assert not registry.is_loaded("mid")
        assert registry.is_loaded("exact")

    def test_explicit_evict(self, registry):
        registry.engine("cheap")
        registry.evict("cheap")
        assert not registry.is_loaded("cheap")
        registry.engine("cheap")
        registry.engine("mid")
        registry.evict()
        assert registry.loaded() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            ArtifactRegistry(capacity=0)

    def test_counts_after_one_load(self, registry):
        registry.engine("cheap")
        assert len(registry) == 3
        assert registry.loaded() == ["cheap"]
        assert registry.loads == 1


class TestManifests:
    def test_roundtrip(self, registry, artifact_dir):
        manifest = registry.write_manifest(artifact_dir / "manifest.json")
        reloaded = ArtifactRegistry.load_manifest(manifest)
        assert reloaded.names() == registry.names()
        for name in registry.names():
            assert reloaded.get(name).stretch == registry.get(name).stretch

    def test_manifest_paths_are_relative(self, registry, artifact_dir):
        manifest = registry.write_manifest(artifact_dir / "manifest.json")
        payload = json.loads(manifest.read_text())
        assert payload["manifest_version"] == 1
        assert all(item["path"] == f"{item['name']}.shards.json"
                   for item in payload["artifacts"])
        assert all("sharded" not in item for item in payload["artifacts"])

    def test_bad_manifest_rejected(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        with pytest.raises(RegistryError, match="unparseable"):
            ArtifactRegistry.load_manifest(bad)
        bad.write_text(json.dumps({"manifest_version": 99, "artifacts": []}))
        with pytest.raises(RegistryError, match="manifest_version"):
            ArtifactRegistry.load_manifest(bad)


class TestBuildRegistry:
    def test_mixed_paths(self, artifact_dir):
        registry = build_registry([artifact_dir])
        assert registry.names() == ["cheap", "exact", "mid"]
        single = build_registry([artifact_dir / "cheap.npz"])
        assert single.names() == ["cheap"]

    def test_manifest_path(self, registry, artifact_dir):
        manifest = registry.write_manifest(artifact_dir / "fleet.json")
        rebuilt = build_registry([manifest])
        assert rebuilt.names() == registry.names()

    def test_empty_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ArtifactError, match="no oracle artifacts"):
            build_registry([empty])

    def test_non_manifest_json_rejected_with_guidance(self, tmp_path):
        stray = tmp_path / "config.json"
        stray.write_text('{"unrelated": true}')
        with pytest.raises(ArtifactError, match="not a registry manifest"):
            build_registry([stray])


class TestLeftoverMonolithicPair:
    """No reader for format 1 stays behind: every way into the registry
    refuses the pair and names the rebuild."""

    def test_register_refuses_it(self, monolithic_pair):
        for path in (monolithic_pair, monolithic_pair.with_suffix("")):
            with pytest.raises(ArtifactError, match="repro oracle build"):
                ArtifactRegistry().register(path)

    def test_discover_refuses_the_directory(self, artifact_dir, monolithic_pair,
                                            tmp_path):
        import shutil

        with pytest.raises(ArtifactError, match="repro oracle build"):
            ArtifactRegistry().discover(monolithic_pair.parent)
        # Also when sound artifacts sit next to it: dropping it silently
        # would shrink the fleet.
        mixed = tmp_path / "mixed"
        shutil.copytree(artifact_dir, mixed)
        shutil.copy(monolithic_pair, mixed / "old.npz")
        with pytest.raises(ArtifactError, match="old.npz.*repro oracle build"):
            ArtifactRegistry().discover(mixed)

    def test_build_registry_refuses_file_and_directory(self, monolithic_pair):
        for path in (monolithic_pair, monolithic_pair.parent):
            with pytest.raises(ArtifactError, match="repro oracle build"):
                build_registry([path])


class TestShardedRegistration:
    """Artifacts register from their manifest alone, and the cost model
    charges them for the common arrays, not the mapped payload."""

    @pytest.fixture(scope="class")
    def sharded_dir(self, graph, tmp_path_factory):
        root = tmp_path_factory.mktemp("sharded-reg")
        artifact = build_oracle(graph, strategy="dense-apsp", epsilon=0.25)
        artifact.save_sharded(root / "mapped", num_shards=4)
        return root

    def test_register_by_manifest_path(self, sharded_dir):
        registry = ArtifactRegistry()
        entry = registry.register(sharded_dir / "mapped.shards.json")
        assert entry.num_shards == 4
        assert entry.row_ranges[0][0] == 0
        assert entry.estimate.payload_floats == entry.n * entry.n

    def test_register_by_bare_path_falls_back_to_manifest(self, sharded_dir):
        registry = ArtifactRegistry()
        entry = registry.register(sharded_dir / "mapped")
        assert entry.num_shards == 4 and entry.name == "mapped"

    def test_registration_never_touches_shard_files(self, graph, tmp_path):
        artifact = build_oracle(graph, strategy="dense-apsp", epsilon=0.25)
        _, shards = artifact.save_sharded(tmp_path / "gone", num_shards=2)
        for shard in shards:
            shard.unlink()  # only the manifest remains
        registry = ArtifactRegistry()
        entry = registry.register(tmp_path / "gone.shards.json")
        assert entry.num_shards == 2  # registered from metadata alone
        # The missing payload only surfaces at load time, where it is
        # retyped as a RegistryError and the entry is dropped.
        with pytest.raises(RegistryError, match="missing shard"):
            registry.engine("gone")
        assert "gone" not in registry

    def test_cost_model_charges_hot_set_not_payload(self, sharded_dir, tmp_path):
        """The satellite fix: a mapped artifact of a big graph must not be
        charged n^2 resident floats.  Registration is metadata-only, so a
        hand-written manifest for a large n exercises the model cheaply."""
        big_n = 50_000
        manifest = {
            "shard_manifest_version": 1,
            "metadata": {
                "format_version": 1, "strategy": "dense-apsp", "n": big_n,
                "num_edges": 10, "epsilon": 0.5, "max_weight": 1,
                "stretch": {"multiplicative": 2.5, "additive": 1.5},
                "build": {"rounds": 1, "seconds": 0.0},
            },
            "num_shards": 2,
            "shards": [
                {"index": 0, "path": "big.shard-0.npz", "row_start": 0,
                 "row_stop": 25_000, "bytes": 100, "sha256": "0" * 64},
                {"index": 1, "path": "big.shard-1.npz", "row_start": 25_000,
                 "row_stop": 50_000, "bytes": 100, "sha256": "0" * 64},
            ],
            "sharded_arrays": {"dist": {"dtype": "float64",
                                        "shape": [big_n, big_n]}},
            "common_arrays": {},
        }
        path = tmp_path / "big.shards.json"
        path.write_text(json.dumps(manifest))
        entry = ArtifactRegistry().register(path)
        assert entry.estimate.payload_floats == float(big_n) * big_n
        assert entry.estimate.common_floats \
            < entry.estimate.payload_floats / 10

    def test_loaded_entries_split_resident_from_mapped(self, artifact_dir,
                                                       sharded_dir):
        registry = ArtifactRegistry()
        registry.register(artifact_dir / "cheap")  # has common arrays
        registry.register(sharded_dir / "mapped.shards.json")
        registry.engine("cheap")
        registry.engine("mapped")
        loaded = [registry.get(name) for name in registry.loaded()]
        assert sum(entry.estimate.payload_floats for entry in loaded) \
            > sum(entry.estimate.common_floats for entry in loaded) > 0

    def test_manifest_round_trip_keeps_shard_layout(self, sharded_dir,
                                                    tmp_path):
        registry = ArtifactRegistry()
        assert [entry.name for entry in registry.discover(sharded_dir)] \
            == ["mapped"]
        manifest = registry.write_manifest(tmp_path / "fleet.json")
        rebuilt = ArtifactRegistry.load_manifest(manifest)
        assert rebuilt.get("mapped") == registry.get("mapped")

    def test_build_registry_accepts_shard_manifest_paths(self, sharded_dir):
        registry = build_registry([sharded_dir / "mapped.shards.json"])
        assert registry.names() == ["mapped"]
        assert registry.get("mapped").num_shards == 4


@pytest.fixture
def fragile_dir(artifact_dir, tmp_path):
    """Function-scoped copy of the artifacts so tests can destroy files."""
    import shutil

    root = tmp_path / "fragile"
    shutil.copytree(artifact_dir, root)
    return root


class TestMidServeLoadFailures:
    """An artifact that rots or vanishes while registered must fail with a
    typed error, leave the catalogue (so routing falls over to survivors),
    and never poison the resident-engine cache."""

    def test_vanished_payload_raises_typed_error_and_evicts(self, fragile_dir):
        registry = ArtifactRegistry()
        registry.discover(fragile_dir)
        (fragile_dir / "cheap.shard-0.npz").unlink()
        with pytest.raises(RegistryError, match="evicted"):
            registry.engine("cheap")
        assert "cheap" not in registry
        assert not registry.is_loaded("cheap")
        assert registry.load_failures == 1
        # Unrelated artifacts are unharmed.
        assert registry.engine("mid") is not None

    def test_unreadable_manifest_raises_typed_error_and_evicts(self, fragile_dir):
        registry = ArtifactRegistry()
        registry.discover(fragile_dir)
        manifest = fragile_dir / "cheap.shards.json"
        manifest.write_text("{truncated mid-write")
        with pytest.raises(RegistryError, match="evicted"):
            registry.engine("cheap")
        assert "cheap" not in registry
        assert registry.load_failures == 1

    def test_load_failures_are_published(self, fragile_dir):
        """A dropped entry is visible on the obs registry, not only on the
        object: the catalogue shrinks and the failure is counted."""
        get_registry().reset()  # series sum every live registry: keep one
        registry = ArtifactRegistry()
        registry.discover(fragile_dir)
        (fragile_dir / "cheap.shard-0.npz").unlink()
        with pytest.raises(RegistryError):
            registry.engine("cheap")
        registry.engine("mid")
        snapshot = get_registry().snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        assert counters["repro_registry_load_failures_total"]["values"] == {
            "": 1}
        assert counters["repro_registry_loads_total"]["values"] == {"": 1}
        assert gauges["repro_registry_entries"]["values"] == {
            "": len(registry)}
        assert gauges["repro_registry_resident_engines"]["values"] == {"": 1}

    def test_vanished_artifact_dir_of_sharded_entry(self, graph, tmp_path):
        import shutil

        root = tmp_path / "sharded"
        root.mkdir()
        oracle = build_oracle(graph, strategy="dense-apsp", epsilon=0.25)
        manifest, _ = oracle.save_sharded(root / "frag", num_shards=3)
        registry = ArtifactRegistry()
        registry.register(manifest)
        shutil.rmtree(root)
        with pytest.raises(RegistryError, match="evicted"):
            registry.engine("frag")
        assert len(registry) == 0

    def test_router_reroutes_to_survivor_after_eviction(self, fragile_dir):
        from repro.serve import StretchRouter

        registry = ArtifactRegistry()
        registry.discover(fragile_dir)
        router = StretchRouter(registry)
        assert router.route().name == "cheap"
        (fragile_dir / "cheap.shard-0.npz").unlink()
        with pytest.raises(RegistryError, match="evicted"):
            router.engine("cheap")
        # Dropping the entry bumped the registry epoch, so the router's
        # memo is stale and the next route lands on a surviving artifact.
        decision = router.route()
        assert decision.name != "cheap"
        assert router.engine(decision.name) is not None

    def test_failed_load_does_not_poison_reregistration(self, artifact_dir,
                                                        fragile_dir):
        import shutil

        registry = ArtifactRegistry()
        registry.discover(fragile_dir)
        (fragile_dir / "cheap.shard-0.npz").unlink()
        with pytest.raises(RegistryError):
            registry.engine("cheap")
        # Repair the file and re-register: loads cleanly, no stale state.
        shutil.copy(artifact_dir / "cheap.shard-0.npz",
                    fragile_dir / "cheap.shard-0.npz")
        entry = registry.register(fragile_dir / "cheap.npz")
        assert entry.name == "cheap"  # the name was freed by the eviction
        assert registry.engine("cheap") is not None
        assert registry.load_failures == 1


#: The common arrays an engine reads (a landmark engine never opens the
#: landmark id vector: the table's columns are already in landmark order).
SPANNER_CSR = ("spanner_indptr", "spanner_indices", "spanner_weights")


@pytest.mark.parametrize("num_shards", [1, 4], ids=["1-shard", "4-shard"])
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_engine_holds_what_the_cost_model_says(tmp_path, strategy, num_shards):
    """Predicted vs measured residency: after a point and a batch workload
    an engine holds what its registry entry was charged for — the common
    arrays and no row of the map, at any shard count."""
    n = 192
    graph = random_weighted_graph(n, average_degree=8, max_weight=20, seed=7)
    artifact = build_oracle(graph, strategy=strategy, epsilon=0.5, jobs=1)
    path, _shards = artifact.save_sharded(tmp_path / "a", num_shards)
    registry = ArtifactRegistry()
    entry = registry.register(path)
    engine = registry.engine(entry.name)

    rng = np.random.default_rng(11)
    for u, v in rng.integers(0, n, size=(2000, 2)).tolist():
        engine.dist(u, v)
    engine.batch(rng.integers(0, n, size=(4000, 2)))
    memory = engine.stats()

    read = SPANNER_CSR if get_strategy(strategy).query_kind == "spanner" else ()
    assert memory["resident_bytes"] == sum(
        artifact.arrays[name].nbytes for name in read)
    slack = 8 * artifact.metadata["build"].get("num_landmarks", 0)
    assert abs(entry.estimate.common_floats * 8
               - memory["resident_bytes"]) <= slack
    assert entry.estimate.payload_bytes <= memory["mapped_bytes"]
