"""Chaos-layer tests: plan validation, deterministic injection, disk rot.

The fault plan is the contract every other robustness feature hangs off
(workers parse it from the environment, the CLI validates it, the
benchmark replays it), so its parse/validate/serialise surface gets
exhaustive treatment here; the injector's determinism claim — same plan
seed, same fault sequence — is asserted directly; and the disk layer is
proven against a real sharded artifact: corruption must fail the
checksum AND decode as NaN, and restore must round-trip the bytes.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos.disk import (
    BACKUP_SUFFIX,
    apply_disk_faults,
    corrupt_shard_file,
    restore_shard_file,
)
from repro.chaos.inject import FaultInjector, injector_from_env
from repro.chaos.plan import (
    CHAOS_ENV_VAR,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    PlanError,
    example_plan,
    merge_plans,
)
from repro.obs.metrics import get_registry


class TestFaultSpec:
    def test_valid_spec_roundtrips_through_dict(self):
        spec = FaultSpec(kind="delay", site="worker.gather",
                         probability=0.25, ms=40, workers=(1, 2), limit=5)
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_unknown_kind_rejected_eagerly(self):
        with pytest.raises(PlanError, match="unknown fault kind"):
            FaultSpec(kind="explode", site="worker.recv")

    def test_runtime_kind_requires_site(self):
        with pytest.raises(PlanError, match="requires a site"):
            FaultSpec(kind="delay")

    def test_disk_kind_rejects_site(self):
        with pytest.raises(PlanError, match="on-disk"):
            FaultSpec(kind="corrupt_shard", site="worker.recv")

    def test_probability_bounds_enforced(self):
        with pytest.raises(PlanError, match="probability"):
            FaultSpec(kind="delay", site="s", probability=1.5)
        with pytest.raises(PlanError, match="probability"):
            FaultSpec(kind="delay", site="s", probability=-0.1)

    def test_worker_scope(self):
        scoped = FaultSpec(kind="delay", site="s", workers=(1,))
        assert scoped.applies_to(1)
        assert not scoped.applies_to(0)
        assert not scoped.applies_to(None)  # frontend never matches
        everywhere = FaultSpec(kind="delay", site="s")
        assert everywhere.applies_to(None)
        assert everywhere.applies_to(7)

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(PlanError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"kind": "delay", "site": "s", "sev": 1})


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = example_plan()
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_example_plan_covers_runtime_and_disk(self):
        plan = example_plan()
        assert plan.runtime_faults
        assert plan.disk_faults
        assert all(spec.kind in FAULT_KINDS for spec in plan.faults)

    def test_from_env_value_inline_json(self):
        text = example_plan().to_json()
        assert FaultPlan.from_env_value(text) == example_plan()

    def test_from_env_value_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(example_plan().to_json())
        assert FaultPlan.from_env_value(str(path)) == example_plan()
        assert FaultPlan.from_env_value(f"@{path}") == example_plan()

    def test_malformed_json_raises_plan_error(self):
        with pytest.raises(PlanError):
            FaultPlan.from_json("{not json")
        with pytest.raises(PlanError):
            FaultPlan.from_json(json.dumps({"faults": "nope"}))

    def test_from_env_unset_is_none(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({CHAOS_ENV_VAR: ""}) is None

    def test_merge_plans_concatenates_faults(self):
        a = FaultPlan(faults=(FaultSpec(kind="delay", site="s", ms=1),),
                      seed=3)
        b = FaultPlan(faults=(FaultSpec(kind="shed", site="t"),), seed=9)
        merged = merge_plans([a, b])
        assert len(merged.faults) == 2
        assert merged.seed == 3  # first plan's seed wins


class TestFaultInjector:
    def plan(self, probability=0.5, limit=None, workers=()):
        return FaultPlan(faults=(
            FaultSpec(kind="delay", site="worker.gather",
                      probability=probability, ms=10, limit=limit,
                      workers=workers),), seed=42)

    def test_same_seed_same_fault_sequence(self):
        rolls = []
        for _ in range(2):
            injector = FaultInjector(self.plan(), worker_id=0)
            rolls.append([injector.pick("worker.gather") is not None
                          for _ in range(200)])
        assert rolls[0] == rolls[1]
        assert any(rolls[0]) and not all(rolls[0])  # dice, not a constant

    def test_different_seed_different_sequence(self):
        base = self.plan()
        other = FaultPlan(faults=base.faults, seed=43)
        seq_a = []
        seq_b = []
        inj_a = FaultInjector(base, worker_id=0)
        inj_b = FaultInjector(other, worker_id=0)
        for _ in range(200):
            seq_a.append(inj_a.pick("worker.gather") is not None)
            seq_b.append(inj_b.pick("worker.gather") is not None)
        assert seq_a != seq_b

    def test_limit_caps_firing(self):
        injector = FaultInjector(self.plan(probability=1.0, limit=3),
                                 worker_id=0)
        fired = sum(injector.pick("worker.gather") is not None
                    for _ in range(10))
        assert fired == 3
        assert injector.injected == 3

    def test_unwired_site_never_fires(self):
        injector = FaultInjector(self.plan(probability=1.0), worker_id=0)
        assert injector.pick("frontend.recv") is None

    def test_worker_scope_filters_specs(self):
        injector = FaultInjector(self.plan(probability=1.0, workers=(1,)),
                                 worker_id=0)
        assert injector.pick("worker.gather") is None
        assert injector.injected == 0

    def test_counts_by_site_and_kind(self):
        """Each fired spec is one step of ``repro_chaos_injections_total``
        labelled by site and kind: a fault is attributable on /metricsz."""
        def injected() -> float:
            family = get_registry().snapshot()["counters"].get(
                "repro_chaos_injections_total", {"values": {}})
            return family["values"].get('kind="delay",site="worker.gather"',
                                        0.0)

        before = injected()
        injector = FaultInjector(self.plan(probability=1.0, limit=2),
                                 worker_id=0)
        for _ in range(3):
            injector.pick("worker.gather")
        assert injected() - before == 2

    def test_injector_from_env(self):
        plan = self.plan(probability=1.0)
        environ = {CHAOS_ENV_VAR: plan.to_json()}
        injector = injector_from_env(worker_id=0, environ=environ)
        assert injector is not None
        assert injector.pick("worker.gather") is not None
        assert injector_from_env(worker_id=0, environ={}) is None

    def test_injector_from_env_malformed_raises(self):
        with pytest.raises(PlanError):
            injector_from_env(worker_id=0,
                              environ={CHAOS_ENV_VAR: "{broken"})

    def test_out_of_scope_env_plan_yields_none(self):
        plan = self.plan(probability=1.0, workers=(5,))
        injector = injector_from_env(
            worker_id=0, environ={CHAOS_ENV_VAR: plan.to_json()})
        assert injector is None  # no in-scope specs -> zero overhead


@pytest.fixture(scope="module")
def sharded_manifest(tmp_path_factory):
    from repro.net.bench import synthetic_sharded_artifact

    root = tmp_path_factory.mktemp("chaos-disk")
    return synthetic_sharded_artifact(root, n=64, num_shards=4, seed=7)


class TestDiskFaults:
    def load(self, manifest, verify="eager"):
        from repro.oracle.sharding import (
            ShardedOracleArtifact,
            shard_manifest_path,
        )

        return ShardedOracleArtifact.load(shard_manifest_path(manifest),
                                          verify=verify)

    def test_corrupt_then_restore_roundtrips(self, sharded_manifest):
        artifact = self.load(sharded_manifest, verify="none")
        shard_path = artifact.shard_file(1)
        pristine = shard_path.read_bytes()
        report = corrupt_shard_file(shard_path, seed=3, flips=128)
        assert report["flips"] == 128
        assert shard_path.read_bytes() != pristine
        backup = shard_path.with_name(shard_path.name + BACKUP_SUFFIX)
        assert backup.exists()
        assert restore_shard_file(shard_path)
        assert shard_path.read_bytes() == pristine
        assert not backup.exists()
        assert not restore_shard_file(shard_path)  # nothing left to undo

    def test_corruption_fails_checksum_verification(self, sharded_manifest):
        from repro.oracle.sharding import ArtifactError

        artifact = self.load(sharded_manifest, verify="none")
        shard_path = artifact.shard_file(2)
        try:
            corrupt_shard_file(shard_path, seed=1, flips=64)
            fresh = self.load(sharded_manifest, verify="lazy")
            with pytest.raises(ArtifactError):
                fresh.verify_shard(2)
        finally:
            restore_shard_file(shard_path)

    def test_apply_disk_faults_honours_plan_and_range(self, sharded_manifest):
        plan = FaultPlan(faults=(
            FaultSpec(kind="corrupt_shard", shard=0, flips=32),), seed=5)
        artifact = self.load(sharded_manifest, verify="none")
        shard_path = artifact.shard_file(0)
        try:
            reports = apply_disk_faults(plan, sharded_manifest)
            assert len(reports) == 1
            assert reports[0]["path"] == str(shard_path)
        finally:
            restore_shard_file(shard_path)
        out_of_range = FaultPlan(faults=(
            FaultSpec(kind="corrupt_shard", shard=99),), seed=5)
        with pytest.raises(PlanError, match="out of range"):
            apply_disk_faults(out_of_range, sharded_manifest)

    def test_plan_without_disk_faults_is_a_noop(self, sharded_manifest):
        plan = FaultPlan(faults=(
            FaultSpec(kind="delay", site="worker.gather", ms=1),), seed=0)
        assert apply_disk_faults(plan, sharded_manifest) == []
