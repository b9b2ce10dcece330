"""Checks of the benchmark itself.  Not part of tier-1:

    python3 -m pytest bench/tests

The end-to-end cases run every workload twice (untraced and traced) with
one timed second, about two minutes in all.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import compare, harness, inputs  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics that are counts of the program, not times: the same
#: seed must give the same value on every run.
EXACT_LAYERS = {
    "paper-algos": ["core.clique_rounds", "core.mssp.rounds",
                    "hopsets.build_hopset.edges", "matmul.filtered_mm.rounds"],
    "oracle-build": ["oracle.artifact_mib", "oracle.build.spanner-greedy.bytes",
                     "oracle.build.spanner-greedy.stretch_max",
                     "oracle.build.hopset-landmark.stretch_max",
                     "matmul.parallel.minplus_closure.steps"],
}


def run_benchmark(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT,
                  script: Path = ROOT / "bench" / "run.py", env=None):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results():
    """The last output line of one short run per (workload, trace)."""
    cache = {}

    def result(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            done = run_benchmark(workload, trace)
            assert done.returncode == 0, done.stderr
            cache[workload, trace] = json.loads(done.stdout.splitlines()[-1])
        return cache[workload, trace]

    return result


# ----------------------------------------------------------------------
# BENCHMARK.json
def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in CONTRACT[group]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names)
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [entry for entry in CONTRACT["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_bounds():
    """README.md, "Bounds": the narrowest that ten runs of identical code
    have held on this box, not the cap."""
    bounds = {entry["name"]: entry["bound"] for entry in CONTRACT["end_to_end"]}
    for name in ("setup_s", "pairs_per_s", "p50_ms", "p90_ms"):
        assert bounds[name] == 0.20
    assert bounds["peak_rss_mib"] == 0.10
    # Held to equality seed by seed by compare.py; the bound only has to
    # cover the spread of a maximum over the driver's ten different seeds.
    assert "stretch_max" in compare.EXACT and "stretch_max" in bounds


# ----------------------------------------------------------------------
# inputs
def test_inputs_are_a_pure_function_of_the_seed():
    def digests(seed: int):
        return [
            inputs.graph_digest(inputs.algos_graphs(seed, 1, 0)["weighted"]),
            inputs.graph_digest(inputs.algos_graphs(seed, 1, 0)["unweighted"]),
            inputs.graph_digest(inputs.build_graph(seed, 1, 0)),
            inputs.graph_digest(inputs.build_graph(seed, 2, 1)),
            inputs.array_digest(inputs.batch_pool(seed, 0)),
            inputs.array_digest(inputs.point_pool(seed, 0)),
            inputs.array_digest(inputs.verification_pairs(64, 100, seed)),
        ]

    assert digests(3) == digests(3)
    assert all(a != b for a, b in zip(digests(3), digests(4)))


def test_rounds_and_slots_get_different_inputs():
    seeds = {inputs.round_seed(7, index, stream)
             for index in range(5) for stream in range(40)}
    assert len(seeds) == 200
    assert 0 <= inputs.round_seed(-2**70, 0) < 2**32


def test_pools_have_the_working_sets_the_workloads_are_named_for():
    cache_entries = 65_536  # QueryEngine's default pair cache
    batch = inputs.batch_pool(0, 0).reshape(-1, 2)
    point = inputs.point_pool(0, 0)
    assert len(np.unique(np.sort(batch, axis=1), axis=0)) > 3 * cache_entries
    assert len(np.unique(np.sort(point, axis=1), axis=0)) < cache_entries


# ----------------------------------------------------------------------
# harness
def test_percentile_is_a_measured_sample():
    values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    assert harness.percentile(values, 50) == 3.0
    assert harness.percentile(values, 90) == 5.0
    assert harness.percentile(values, 1) == 1.0


def test_self_time_is_duration_minus_children():
    spans = harness.Spans(enabled=True)
    outer = spans.add("outer", 0.0, 10.0)
    spans.add("inner", 1.0, 4.0, parent=outer)
    spans.add("inner", 3.0, 6.0, parent=outer)  # overlaps the first
    spans.add("inner", 8.0, 9.0, parent=outer)
    assert spans.self_seconds() == {"outer": 4.0, "inner": 7.0}
    assert spans.seconds_since(outer + 1) == {"inner": 7.0}


def test_slices_are_corrected_by_their_own_slowdown_and_count_verified_pairs():
    fast, slow = harness.Slice(1.0, 1.0), harness.Slice(3.0, 1.5)
    log = harness.RoundLog(setup=harness.Slice(3.0, 1.5), slices=[fast, slow])
    run = harness.UnitRun(None, 0, [("a", None, fast, 100.0),
                                    ("b", None, slow, 50.0)])
    harness.log_unit(log, run, [True, True])
    assert (log.attempted, log.failed, fast.pairs, slow.pairs) == (1, 0, 100, 50)
    reduced = harness.reduce_rounds([log], inputs_s=0.0, slices_alike=False)
    metrics = {name: value for name, (value, _) in reduced["end_to_end"].items()}
    assert metrics["pairs_per_s"] == pytest.approx(150 / 3.0)
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["p50_ms"] == metrics["p90_ms"] == pytest.approx(3000.0)
    raw = {name: value for name, (value, _) in reduced["diagnostics"].items()}
    assert raw["bench.raw.pairs_per_s"] == pytest.approx(150 / 4.0)
    assert raw["bench.raw.setup_s"] == 3.0

    # A call outside its guarantee delivers nothing, and fails its op.
    late = harness.Slice(1.0, 1.0)
    log.slices.append(late)
    harness.log_unit(log, harness.UnitRun(None, 0, [("a", None, late, 100.0)]),
                     [False])
    assert (log.attempted, log.failed, late.pairs) == (2, 1, 0)
    assert len(log.latencies_s) == 1


def test_slices_that_are_alike_report_the_median_slice():
    """One slow quarter second in three moves the total, not the median."""
    slices = [harness.Slice(0.25, 1.0, 100), harness.Slice(0.25, 1.0, 104),
              harness.Slice(0.25, 1.0, 40)]
    latencies = [np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.1, 3.1]),
                 np.array([5.0, 6.0, 9.0])]
    log = harness.RoundLog(setup=harness.Slice(1.0, 1.0), slices=slices,
                           latencies_s=latencies, attempted=9)
    reduced = harness.reduce_rounds([log], inputs_s=0.0, slices_alike=True)
    metrics = {name: value for name, (value, _) in reduced["end_to_end"].items()}
    assert metrics["pairs_per_s"] == pytest.approx(400.0)
    assert metrics["p50_ms"] == pytest.approx(2100.0)
    assert metrics["p90_ms"] == pytest.approx(3100.0)
    assert reduced["diagnostics"]["bench.p99_ms"][0] == pytest.approx(9000.0)


# ----------------------------------------------------------------------
# compare.py
def _set(tmp_path: Path, name: str, values, metric: str = "p50_ms",
         failed: int = 0, trace: int = 0) -> Path:
    path = tmp_path / name
    path.write_text("".join(json.dumps({
        "workload": "wire-batch", "trace": trace, "seed": seed,
        "attempted": 100, "failed": failed,
        "metrics": {metric: {"value": value, "unit": "ms"}}}) + "\n"
        for seed, value in enumerate(values)))
    return path


def _verdicts(lines):
    return {line.split()[1]: line.split()[-1] for line in lines
            if line.startswith("wire-batch")}


@pytest.mark.parametrize("change, expected", [
    ([10.1, 10.0, 10.2, 9.9, 10.0], "same"),
    ([12.6, 12.5, 12.7, 12.4, 12.5], "worse"),
    ([7.6, 7.5, 7.7, 7.4, 7.5], "better"),
    ([9.0, 10.0, 13.5, 9.5, 12.0], "unresolved"),
    ([2.0, 4.0, 3.0, 1.0, 5.0], "better"),  # wide, but every run beats A
])
def test_compare_verdicts(tmp_path, change, expected):
    parent = _set(tmp_path, "a.jsonl", [10.0, 10.1, 9.9, 10.2, 10.0])
    lines, any_worse = compare.compare(CONTRACT, parent,
                                       _set(tmp_path, "b.jsonl", change))
    assert _verdicts(lines) == {"p50_ms": expected, "failed_share": "same"}
    assert any_worse == (expected == "worse")


def test_compare_reads_wrong_answers_as_worse(tmp_path):
    values = [10.0, 10.1, 9.9, 10.2, 10.0]
    lines, any_worse = compare.compare(
        CONTRACT, _set(tmp_path, "a.jsonl", values),
        _set(tmp_path, "b.jsonl", [value / 2 for value in values], failed=1))
    assert _verdicts(lines) == {"p50_ms": "better", "failed_share": "worse"}
    assert any_worse


@pytest.mark.parametrize("metric, trace", [("stretch_max", 0),
                                           ("core.clique_rounds", 1)])
@pytest.mark.parametrize("change, expected", [
    ([2.0, 3.0, 2.5], "same"),
    ([2.0, 3.0, 2.5001], "worse"),    # within any bound, but not equal
    ([2.0, 2.9, 2.5], "better"),
    ([1.0, 3.1, 2.5], "worse"),       # one seed better, one worse
])
def test_compare_holds_counts_to_equality(tmp_path, metric, trace, change,
                                          expected):
    parent = _set(tmp_path, "a.jsonl", [2.0, 3.0, 2.5], metric, trace=trace)
    lines, any_worse = compare.compare(
        CONTRACT, parent, _set(tmp_path, "b.jsonl", change, metric, trace=trace))
    assert _verdicts(lines)[metric] == expected
    assert any_worse == (expected == "worse")


# ----------------------------------------------------------------------
# the command, end to end
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_exactly_the_end_to_end_metrics(results, workload):
    result = results(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_exactly_the_per_layer_metrics(results, workload):
    result = results(workload, 1)
    assert result["correct"] is True
    expected = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    spans = [json.loads(line) for line in
             (ROOT / ".bench_work" / "spans.jsonl").read_text().splitlines()]
    assert spans and all(set(row) == {"name", "start", "end", "parent", "op_id"}
                         for row in spans)


def test_every_per_layer_metric_is_measured_by_some_workload(results):
    measured = {name for workload in WORKLOADS
                for name, metric in results(workload, 1)["metrics"].items()
                if metric["value"] != 0}
    # The fleet's retry/hedge/failover/chaos counters must read 0 here.
    quiet = {"net.frontend.retries", "net.frontend.hedges",
             "net.frontend.failovers", "chaos.injections",
             "bench.failed_share"}
    missing = {entry["name"] for entry in CONTRACT["per_layer"]} - measured
    assert missing <= quiet | {"bench.slow_share"}
    for workload in ("wire-batch", "wire-point"):
        metrics = results(workload, 1)["metrics"]
        assert all(metrics[name]["value"] == 0 for name in quiet)
        # The program's own spans account for what a caller waits.
        assert 0.9 <= metrics["net.layer_sum_over_e2e"]["value"] <= 1.1


@pytest.mark.parametrize("workload", sorted(EXACT_LAYERS))
def test_counts_repeat_exactly(results, workload):
    first = results(workload, 1)["metrics"]
    again = run_benchmark(workload, 1)
    assert again.returncode == 0, again.stderr
    second = json.loads(again.stdout.splitlines()[-1])["metrics"]
    for name in EXACT_LAYERS[workload]:
        assert first[name]["value"] == second[name]["value"] != 0, name
    untraced = results(workload, 0)["metrics"]["stretch_max"]["value"]
    again = run_benchmark(workload, 0)
    assert json.loads(again.stdout.splitlines()[-1])["metrics"][
        "stretch_max"]["value"] == untraced > 1


def test_refuses_to_run_with_a_behaviour_switch_set():
    done = run_benchmark("paper-algos", 0,
                         env={**os.environ, "REPRO_KERNEL": "dict"})
    assert done.returncode == 2 and done.stdout == ""
    assert "REPRO_KERNEL" in done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("paper-algos", 0, cwd=tmp_path,
                         script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0 and done.stdout == ""
