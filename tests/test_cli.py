"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main

#: Every runnable subcommand with its sorted option strings.  A flag added
#: or removed shows up here, in the diff.
SURFACE = {
    "apsp": "--breakdown --compare-baseline --degree --epsilon --grid --max-weight --n --seed --weighted",
    "mssp": "--breakdown --compare-baseline --degree --epsilon --grid --max-weight --n --seed --sources",
    "sssp": "--breakdown --compare-baseline --degree --epsilon --grid --max-weight --n --seed --source",
    "diameter": "--breakdown --compare-baseline --degree --epsilon --grid --max-weight --n --seed",
    "hopset": "--breakdown --compare-baseline --degree --epsilon --grid --max-weight --n --seed",
    "matmul": "--density --n --seed",
    "oracle build": "--degree --epsilon --graph --grid --jobs --k --kernel --max-weight --n --seed --shards --strategy --verbose",
    "oracle strategies": "--degree --epsilon --max-weight --n",
    "oracle shard": "--shards",
    "oracle query": "--k-nearest --pairs --stats",
    "plan": "--budget --degree --epsilon --graph --grid --jobs --max-query-cost --max-resident-mb --max-weight --n --out --seed --shard-target-mb",
    "loadgen": "--additive --capacity --concurrency --json-out --max-batch --mode --policy --qps --queries --queue-capacity --raw-jsonl --report-residency --seed --stretch --stretch-mix --verify --window-ms --zipf",
    "net serve": "--additive --capacity --concurrency --host --max-batch --port --seed --self-test --stretch --trace-sample --worker-base-port --workers --zipf",
    "chaos plan": "--example",
    "chaos corrupt": "--no-backup --restore",
    "chaos run": "--additive --capacity --concurrency --host --max-batch --plan --port --seed --self-test --stretch --trace-sample --worker-base-port --workers --zipf",
    "obs snapshot": "--host --port --timeout",
    "obs top": "--host --limit --port --timeout",
    "obs export": "--format --host --out --port --timeout",
}


def leaf_parsers(parser, path=()):
    """``(subcommand path, parser)`` for every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, path + (name,))
            return
    yield " ".join(path), parser


def test_command_surface_is_pinned():
    leaves = dict(leaf_parsers(build_parser()))
    surface = {
        path: " ".join(sorted(option for action in parser._actions
                              for option in action.option_strings
                              if option not in ("-h", "--help")))
        for path, parser in leaves.items()}
    assert surface == SURFACE
    funcs = {parser.get_default("func") for parser in leaves.values()}
    orphans = sorted(name for name, value in vars(repro.cli).items()
                     if name.startswith("cmd_") and value not in funcs)
    assert orphans == []


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    @pytest.mark.parametrize("argv, name", [
        (["serve", "x"], "'serve'"),
        (["oracle", "bench", "x"], "'bench'"),
    ], ids=["serve", "oracle-bench"])
    def test_retired_command_is_invalid_choice(self, argv, name, capsys):
        """``serve`` folded into ``loadgen``; ``oracle bench`` into bench/."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert name in err

    def test_defaults(self):
        args = build_parser().parse_args(["apsp"])
        assert args.n == 96
        assert args.epsilon == 0.5
        assert not args.breakdown

    def test_option_parsing(self):
        args = build_parser().parse_args(
            ["mssp", "--n", "32", "--sources", "3", "--epsilon", "1.0", "--breakdown"]
        )
        assert args.n == 32
        assert args.sources == 3
        assert args.epsilon == 1.0
        assert args.breakdown


class TestSubcommands:
    """Each subcommand runs end-to-end on a tiny workload and exits 0."""

    def test_apsp_weighted(self, capsys):
        assert main(["apsp", "--n", "24", "--weighted", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max stretch" in out
        assert "simulated rounds" in out

    def test_apsp_unweighted_with_baseline(self, capsys):
        assert main(["apsp", "--n", "24", "--seed", "2", "--compare-baseline"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out

    def test_mssp(self, capsys):
        assert main(["mssp", "--n", "24", "--sources", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "MSSP from 3 sources" in out

    def test_sssp_grid_with_baseline(self, capsys):
        assert main(["sssp", "--n", "25", "--grid", "--compare-baseline"]) == 0
        out = capsys.readouterr().out
        assert "exact            : True" in out
        assert "Bellman-Ford" in out

    def test_diameter(self, capsys):
        assert main(["diameter", "--n", "24", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "estimate" in out

    def test_hopset_with_breakdown(self, capsys):
        assert main(["hopset", "--n", "24", "--seed", "5", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "violations                : 0" in out
        assert "TOTAL" in out

    def test_matmul(self, capsys):
        assert main(["matmul", "--n", "32", "--density", "3"]) == 0
        out = capsys.readouterr().out
        assert "products agree   : True" in out


class TestOracleSubcommands:
    """The oracle build/query pipeline through the CLI, on disk."""

    def _build(self, tmp_path, capsys, *extra):
        artifact = tmp_path / "oracle.npz"
        argv = ["oracle", "build", str(artifact), "--n", "32", "--seed", "7",
                *extra]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stretch guarantee" in out
        assert (tmp_path / "oracle.shards.json").exists()
        assert (tmp_path / "oracle.shard-0.npz").exists()
        assert not artifact.exists()  # the name of the artifact, not a file
        return artifact

    def test_build_then_query_round_trip(self, tmp_path, capsys):
        artifact = self._build(tmp_path, capsys, "--strategy", "landmark-mssp")
        assert main(["oracle", "query", str(artifact), "--pairs", "0:5,3:7"]) == 0
        out = capsys.readouterr().out
        assert "dist(0, 5)" in out
        assert "dist(3, 7)" in out

    def test_query_k_nearest_and_stats(self, tmp_path, capsys):
        artifact = self._build(tmp_path, capsys, "--strategy", "exact-fallback")
        assert main(["oracle", "query", str(artifact),
                     "--k-nearest", "0:3", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "nearest(0)" in out
        assert "cache hit rate" in out

    def test_build_from_edge_list_file(self, tmp_path, capsys):
        edges = tmp_path / "graph.txt"
        edges.write_text("0 1 2\n1 2 3\n2 3 1\n0 3 9\n")
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--graph", str(edges),
                     "--strategy", "exact-fallback"]) == 0
        assert main(["oracle", "query", str(artifact), "--pairs", "0:3"]) == 0
        out = capsys.readouterr().out
        assert "dist(0, 3) = 6" in out

    def test_edge_list_queries_speak_the_file_node_ids(self, tmp_path, capsys):
        """Non-contiguous file ids must be translated, not used verbatim."""
        edges = tmp_path / "graph.txt"
        edges.write_text("10 20 5\n20 30 1\n10 30 100\n")
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--graph", str(edges),
                     "--strategy", "exact-fallback"]) == 0
        assert main(["oracle", "query", str(artifact), "--pairs", "10:20",
                     "--k-nearest", "10:1"]) == 0
        out = capsys.readouterr().out
        assert "dist(10, 20) = 5" in out
        assert "nearest(10): node 20 at 5" in out

    def test_edge_list_query_with_unknown_id_is_a_clean_error(self, tmp_path, capsys):
        edges = tmp_path / "graph.txt"
        edges.write_text("10 20 5\n20 30 1\n")
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--graph", str(edges),
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(artifact), "--pairs", "10:99"]) == 2
        assert "not in the graph" in capsys.readouterr().err


class TestOracleErrorPaths:
    def test_unknown_strategy_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "build", str(tmp_path / "o.npz"),
                  "--strategy", "teleport"])
        assert excinfo.value.code == 2

    def test_missing_artifact_file(self, tmp_path, capsys):
        assert main(["oracle", "query", str(tmp_path / "absent.npz"),
                     "--pairs", "0:1"]) == 1
        err = capsys.readouterr().err
        assert "not found" in err

    def test_build_with_missing_graph_file(self, tmp_path, capsys):
        assert main(["oracle", "build", str(tmp_path / "o.npz"),
                     "--graph", str(tmp_path / "absent.txt")]) == 1
        assert "cannot load graph" in capsys.readouterr().err

    def test_build_with_bad_epsilon(self, tmp_path, capsys):
        assert main(["oracle", "build", str(tmp_path / "o.npz"),
                     "--n", "16", "--epsilon", "0"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_malformed_pairs(self, tmp_path, capsys):
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(artifact), "--pairs", "0-5"]) == 2
        assert "bad --pairs" in capsys.readouterr().err

    def test_out_of_range_pair_is_a_clean_error(self, tmp_path, capsys):
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(artifact), "--pairs", "0:9999"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_empty_pairs_value_is_an_error(self, tmp_path, capsys):
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(artifact), "--pairs", ""]) == 2
        assert "no query pairs" in capsys.readouterr().err

    def test_malformed_k_nearest(self, tmp_path, capsys):
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(artifact), "--k-nearest", "zero"]) == 2
        assert "k-nearest" in capsys.readouterr().err


class TestQueryDeduplication:
    def test_repeated_pairs_cost_one_engine_query(self, tmp_path, capsys):
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        # Three occurrences of the same symmetric pair: three output lines
        # in input order, but only ONE query reaches the engine.
        assert main(["oracle", "query", str(artifact),
                     "--pairs", "0:5,5:0,0:5", "--stats"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("dist(")]
        assert len(lines) == 3
        assert lines[0].startswith("dist(0, 5)")
        assert lines[1].startswith("dist(5, 0)")
        assert lines[2].startswith("dist(0, 5)")
        assert len({line.split("=")[1] for line in lines}) == 1
        assert "queries          : 1" in out

    def test_mixed_pairs_keep_input_order(self, tmp_path, capsys):
        artifact = tmp_path / "oracle.npz"
        assert main(["oracle", "build", str(artifact), "--n", "16",
                     "--strategy", "exact-fallback"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(artifact),
                     "--pairs", "1:2,3:4,2:1", "--stats"]) == 0
        out = capsys.readouterr().out
        order = [line.split("=")[0].strip() for line in out.splitlines()
                 if line.startswith("dist(")]
        assert order == ["dist(1, 2)", "dist(3, 4)", "dist(2, 1)"]
        assert "queries          : 2" in out


class TestServeSubcommands:
    """repro loadgen over on-disk artifacts."""

    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli-serve")
        assert main(["oracle", "build", str(root / "cheap.npz"), "--n", "24",
                     "--seed", "7", "--strategy", "landmark-mssp"]) == 0
        assert main(["oracle", "build", str(root / "exact.npz"), "--n", "24",
                     "--seed", "7", "--strategy", "exact-fallback"]) == 0
        return root

    def test_serve_self_test(self, artifact_dir, capsys):
        assert main(["loadgen", str(artifact_dir), "--queries", "200",
                     "--window-ms", "1", "--concurrency", "16"]) == 0
        out = capsys.readouterr().out
        assert "serving 2 artifact(s)" in out
        assert "availability     : 1.0000" in out
        assert "engine batches" in out
        assert "cheap" in out

    def test_serve_single_artifact_file(self, artifact_dir, capsys):
        assert main(["loadgen", str(artifact_dir / "exact.npz"),
                     "--queries", "100"]) == 0
        out = capsys.readouterr().out
        assert "serving 1 artifact(s)" in out

    def test_serve_missing_artifact_is_clean_error(self, tmp_path, capsys):
        assert main(["loadgen", str(tmp_path / "absent.npz")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_loadgen_closed_with_verify_and_json(self, artifact_dir, tmp_path,
                                                 capsys):
        report_path = tmp_path / "report.json"
        assert main(["loadgen", str(artifact_dir), "--queries", "300",
                     "--window-ms", "1", "--verify",
                     "--json-out", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "answer mismatches: 0" in out
        import json

        payload = json.loads(report_path.read_text())
        assert payload["schema"] == "repro-loadgen/v1"
        report = payload["report"]
        assert report["mode"] == "closed"
        assert report["requested"] == 300
        assert report["success_rate"] == 1.0
        assert report["mismatches"] == 0
        assert sorted(payload["artifacts"]) == ["cheap", "exact"]

    def test_loadgen_open_mode(self, artifact_dir, capsys):
        assert main(["loadgen", str(artifact_dir / "exact.npz"),
                     "--mode", "open", "--qps", "20000",
                     "--queries", "200"]) == 0
        out = capsys.readouterr().out
        assert "mode             : open" in out
        assert "offered 20,000" in out

    def test_loadgen_stretch_budget_routes_to_exact(self, artifact_dir, capsys):
        assert main(["loadgen", str(artifact_dir), "--queries", "100",
                     "--stretch", "1.0", "--additive", "0", "--verify"]) == 0
        assert "answer mismatches: 0" in capsys.readouterr().out

    def test_loadgen_rejects_non_positive_queries(self, artifact_dir, capsys):
        assert main(["loadgen", str(artifact_dir), "--queries", "0"]) == 2
        assert "--queries must be positive" in capsys.readouterr().err

    def test_loadgen_unsatisfiable_budget_is_clean_error(self, artifact_dir,
                                                         capsys):
        assert main(["loadgen", str(artifact_dir), "--queries", "10",
                     "--stretch", "0.5", "--verify"]) == 1
        assert "no artifact satisfies" in capsys.readouterr().err

    def test_serve_mixed_graph_sizes_queries_the_routed_artifact(
            self, artifact_dir, tmp_path, capsys):
        """Pairs must be sampled from the routed artifact's node range,
        not the largest registered graph's."""
        big = tmp_path / "big.npz"
        assert main(["oracle", "build", str(big), "--n", "48", "--seed", "3",
                     "--strategy", "landmark-mssp"]) == 0
        capsys.readouterr()
        assert main(["loadgen", str(artifact_dir / "cheap.npz"), str(big),
                     "--queries", "150"]) == 0
        out = capsys.readouterr().out
        assert "serving 2 artifact(s)" in out
        assert "availability     : 1.0000" in out

    def test_serve_accepts_shard_manifest_path(self, artifact_dir, capsys):
        assert main(["loadgen", str(artifact_dir / "exact.shards.json"),
                     "--queries", "50"]) == 0
        assert "serving 1 artifact(s)" in capsys.readouterr().out

    def test_leftover_monolithic_pair_is_clean_error(self, monolithic_pair,
                                                     capsys):
        for argv in (["loadgen", str(monolithic_pair)],
                     ["loadgen", str(monolithic_pair.parent)],
                     ["oracle", "query", str(monolithic_pair), "--pairs", "0:1"]):
            assert main(argv) == 1
            assert "repro oracle build" in capsys.readouterr().err

    def test_serve_non_manifest_json_is_clean_error(self, tmp_path, capsys):
        stray = tmp_path / "notes.json"
        stray.write_text('{"hello": "world"}')
        assert main(["loadgen", str(stray)]) == 1
        assert "not a registry manifest" in capsys.readouterr().err

    def test_serve_bad_manifest_version_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "fleet.json"
        bad.write_text('{"manifest_version": 99, "artifacts": []}')
        assert main(["loadgen", str(bad)]) == 1
        assert "manifest_version" in capsys.readouterr().err


class TestPythonDashM:
    """``python -m repro`` must work as an entry point (src/repro/__main__.py)."""

    @staticmethod
    def _run(*argv):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_help_exits_zero(self):
        result = self._run("--help")
        assert result.returncode == 0
        assert "oracle" in result.stdout

    def test_no_subcommand_is_usage_error(self):
        result = self._run()
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()

    def test_subcommand_runs(self):
        result = self._run("diameter", "--n", "16", "--seed", "3")
        assert result.returncode == 0
        assert "estimate" in result.stdout


class TestShardingSubcommands:
    """oracle build --shards / oracle shard, and sharded serving flags."""

    def test_build_sharded_writes_manifest(self, tmp_path, capsys):
        assert main(["oracle", "build", str(tmp_path / "big.npz"), "--n", "32",
                     "--seed", "7", "--strategy", "dense-apsp",
                     "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert (tmp_path / "big.shards.json").exists()
        assert (tmp_path / "big.shard-3.npz").exists()

    def test_query_and_bench_accept_sharded_artifacts(self, tmp_path, capsys):
        assert main(["oracle", "build", str(tmp_path / "s.npz"), "--n", "32",
                     "--seed", "7", "--shards", "3"]) == 0
        capsys.readouterr()
        assert main(["oracle", "query", str(tmp_path / "s.shards.json"),
                     "--pairs", "0:5,3:7"]) == 0
        assert "dist(0, 5)" in capsys.readouterr().out

    def test_shard_command_reshards_an_artifact(self, tmp_path, capsys):
        assert main(["oracle", "build", str(tmp_path / "m.npz"), "--n", "32",
                     "--seed", "7", "--strategy", "dense-apsp"]) == 0
        capsys.readouterr()
        assert main(["oracle", "shard", str(tmp_path / "m.npz"),
                     str(tmp_path / "m-sharded"), "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 shards" in out
        assert (tmp_path / "m-sharded.shards.json").exists()
        # Answers agree between the two on a spot check.
        assert main(["oracle", "query", str(tmp_path / "m.npz"),
                     "--pairs", "1:9"]) == 0
        one_shard_out = capsys.readouterr().out
        assert main(["oracle", "query", str(tmp_path / "m-sharded"),
                     "--pairs", "1:9"]) == 0
        assert capsys.readouterr().out == one_shard_out

    def test_shard_command_bad_source_is_clean_error(self, tmp_path, capsys):
        assert main(["oracle", "shard", str(tmp_path / "nope.npz"),
                     str(tmp_path / "out"), "--shards", "2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_shard_command_rejects_bad_count(self, tmp_path, capsys):
        assert main(["oracle", "shard", str(tmp_path / "x.npz"),
                     str(tmp_path / "out"), "--shards", "0"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_loadgen_report_residency_on_sharded_artifact(self, tmp_path,
                                                          capsys):
        assert main(["oracle", "build", str(tmp_path / "served.npz"),
                     "--n", "32", "--seed", "7", "--strategy", "dense-apsp",
                     "--shards", "4"]) == 0
        capsys.readouterr()
        json_out = tmp_path / "report.json"
        assert main(["loadgen", str(tmp_path / "served.shards.json"),
                     "--queries", "400", "--verify", "--report-residency",
                     "--json-out", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "shard faults" in out
        assert "answer mismatches: 0" in out
        import json as json_module

        payload = json_module.loads(json_out.read_text())
        residency = payload["report"]["residency"]
        assert residency["total"]["shard_faults"] >= 1
        assert residency["total"]["mapped_bytes"] > \
            residency["total"]["resident_bytes"]

    def test_serve_bad_window_is_clean_error(self, tmp_path, capsys):
        assert main(["oracle", "build", str(tmp_path / "b.npz"), "--n", "24",
                     "--seed", "7", "--strategy", "landmark-mssp"]) == 0
        capsys.readouterr()
        # The window is a plain number of milliseconds: argparse's error.
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", str(tmp_path / "b.npz"), "--queries", "10",
                  "--window-ms", "soon"])
        assert excinfo.value.code == 2
        assert "--window-ms" in capsys.readouterr().err
        assert main(["loadgen", str(tmp_path / "b.npz"), "--queries", "10",
                     "--window-ms", "-1"]) == 1
        assert "coalesce_window" in capsys.readouterr().err

    def test_corrupt_shard_is_clean_error_at_query_time(self, tmp_path, capsys):
        """Lazy shard checksums surface at query time, not load time —
        the CLI must report them cleanly, not traceback."""
        assert main(["oracle", "build", str(tmp_path / "c.npz"), "--n", "32",
                     "--seed", "7", "--shards", "4"]) == 0
        capsys.readouterr()
        shard = tmp_path / "c.shard-1.npz"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        assert main(["oracle", "query", str(tmp_path / "c.shards.json"),
                     "--pairs", "8:9"]) == 1
        assert "checksum" in capsys.readouterr().err


class TestNetSubcommands:
    def test_net_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["net"])

    def test_net_serve_self_test_over_tcp(self, tmp_path, capsys):
        """The one-command proof: spawn 2 worker processes + front tier,
        drive verified queries over real sockets, exit clean."""
        assert main(["oracle", "build", str(tmp_path / "n.npz"), "--n", "32",
                     "--seed", "7", "--shards", "2"]) == 0
        capsys.readouterr()
        assert main(["net", "serve", str(tmp_path / "n.shards.json"),
                     "--workers", "2", "--self-test", "200",
                     "--concurrency", "8"]) == 0
        out = capsys.readouterr().out
        assert "self-test over TCP" in out
        assert "availability     : 1.0000" in out

    @pytest.mark.parametrize("flag", [["--queue-capacity", "1"],
                                      ["--policy", "wait"]])
    def test_net_serve_has_no_queue_flags(self, flag, capsys):
        """A worker's only door, gather(), takes and frees its queue slot
        with no await between: the queue never fills, so the flags that
        tune it would be dead and are not offered (loadgen keeps them —
        dist() parks there)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["net", "serve", "a", *flag])
        assert excinfo.value.code == 2
        build_parser().parse_args(["loadgen", "a", *flag])

    def test_net_serve_trace_sample_does_not_outlive_the_command(
            self, tmp_path, capsys, monkeypatch):
        """The rate reaches the fleet through the environment and this
        process's tracer; neither keeps it once the command returns."""
        from repro.obs.tracing import SAMPLE_ENV_VAR, get_tracer

        monkeypatch.delenv(SAMPLE_ENV_VAR, raising=False)
        assert main(["oracle", "build", str(tmp_path / "t.npz"), "--n", "24",
                     "--seed", "7", "--strategy", "exact-fallback"]) == 0
        prior = get_tracer().sample_rate
        assert main(["net", "serve", str(tmp_path / "t.npz"), "--workers",
                     "1", "--self-test", "20", "--trace-sample", "1"]) == 0
        assert "answer mismatches: 0" in capsys.readouterr().out
        assert SAMPLE_ENV_VAR not in os.environ
        assert get_tracer().sample_rate == prior

    def test_fleet_environment_restores_prior_values_on_error(
            self, monkeypatch):
        """A variable set before the fleet gets its old value back, one
        that was unset is unset again, even when the fleet raises."""
        from repro.chaos.plan import CHAOS_ENV_VAR
        from repro.cli import _fleet_environment
        from repro.obs.tracing import SAMPLE_ENV_VAR, get_tracer

        monkeypatch.setenv(SAMPLE_ENV_VAR, "0.25")
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        prior = get_tracer().sample_rate
        with pytest.raises(RuntimeError):
            with _fleet_environment(1.0, {CHAOS_ENV_VAR: "{}"}):
                assert os.environ[SAMPLE_ENV_VAR] == "1.0"
                assert os.environ[CHAOS_ENV_VAR] == "{}"
                assert get_tracer().sample_rate == 1.0
                raise RuntimeError("fleet failed")
        assert os.environ[SAMPLE_ENV_VAR] == "0.25"
        assert CHAOS_ENV_VAR not in os.environ
        assert get_tracer().sample_rate == prior

    def test_net_serve_bad_artifact_is_clean_error(self, tmp_path, capsys):
        assert main(["net", "serve", str(tmp_path / "missing.npz"),
                     "--self-test", "10"]) == 1
        assert "error" in capsys.readouterr().err

    def test_loadgen_raw_jsonl_export(self, tmp_path, capsys):
        from repro.serve.loadgen import LoadReport

        assert main(["oracle", "build", str(tmp_path / "r.npz"), "--n", "24",
                     "--seed", "7", "--strategy", "landmark-mssp"]) == 0
        capsys.readouterr()
        raw = tmp_path / "raw.jsonl"
        assert main(["loadgen", str(tmp_path / "r.npz"), "--queries", "150",
                     "--raw-jsonl", str(raw)]) == 0
        assert "raw samples" in capsys.readouterr().out
        merged = LoadReport.from_jsonl(str(raw))
        assert merged.requested == 150
        assert merged.completed == 150

    def test_serve_reports_effective_coalescing_window(self, tmp_path,
                                                       capsys):
        assert main(["oracle", "build", str(tmp_path / "w.npz"), "--n", "24",
                     "--seed", "7", "--strategy", "landmark-mssp"]) == 0
        capsys.readouterr()
        assert main(["loadgen", str(tmp_path / "w.npz"), "--queries", "400",
                     "--window-ms", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "coalescing       : mode=fixed window=2.5ms" in out
        assert main(["loadgen", str(tmp_path / "w.npz"), "--queries", "50",
                     "--window-ms", "0"]) == 0
        assert "coalescing       : mode=off window=0ms" in capsys.readouterr().out
