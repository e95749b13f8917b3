"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    code = main(
        [
            "simulate",
            str(path),
            "--objects", "60",
            "--history", "30",
            "--updates", "5",
            "--buildings", "12",
            "--seed", "3",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate", "out.csv"])
        assert args.objects == 1000
        assert args.history == 110


class TestSimulate:
    def test_writes_trace(self, trace_file, capsys):
        assert trace_file.exists()
        header = trace_file.read_text().splitlines()[0]
        assert header == "oid,x,y,t"

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["simulate", str(path), "--objects", "20", "--history", "10",
                  "--updates", "2", "--buildings", "8", "--seed", "5"])
        assert a.read_text() == b.read_text()


class TestBuild:
    def test_reports_pipeline(self, trace_file, capsys):
        code = main(["build", str(trace_file), "--history", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase 1 regions:" in out
        assert "CTRTree(" in out


class TestCompare:
    def test_races_all_indexes(self, trace_file, capsys):
        code = main(["compare", str(trace_file), "--history", "30", "--ratio", "20"])
        assert code == 0
        out = capsys.readouterr().out
        for label in ("R-tree", "lazy-R-tree", "alpha-tree", "CT-R-tree"):
            assert label in out

    def test_empty_online_stream_errors(self, trace_file, capsys):
        code = main(["compare", str(trace_file), "--history", "99"])
        assert code == 1

    def test_metrics_out_dumps_observability_json(self, trace_file, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        code = main([
            "compare", str(trace_file), "--history", "30", "--ratio", "20",
            "--buffer-pool", "16", "--metrics-out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        # The acceptance triple: cache telemetry, build phase timings, shape.
        ct = payload["indexes"]["ct"]
        assert 0.0 <= ct["buffer_pool"]["hit_rate"] <= 1.0
        timers = payload["registry"]["timers"]
        assert "build.phase1_qs_mining_s" in timers
        assert "build.phase3_traffic_merge_s" in timers
        assert ct["tree_stats"]["qs_region_count"] >= 0
        assert ct["tree_stats"]["height"] >= 1
        assert ct["run"]["ios_per_update"] >= 0.0
        # The command must switch the global registry back off on its way out.
        from repro.obs import get_registry

        assert get_registry().enabled is False

    def test_metrics_out_without_pool_omits_cache(self, trace_file, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        code = main([
            "compare", str(trace_file), "--history", "30", "--ratio", "20",
            "--metrics-out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["indexes"]["rtree"]["buffer_pool"] is None

    def test_sharded_batched_matches_plain_results(self, trace_file, tmp_path, capsys):
        """The engine levers must not change what queries return."""
        import json

        plain_out = tmp_path / "plain.json"
        engine_out = tmp_path / "engine.json"
        for out, extra in (
            (plain_out, []),
            (engine_out, ["--shards", "4", "--batch", "64"]),
        ):
            code = main([
                "compare", str(trace_file), "--history", "30", "--ratio", "20",
                "--metrics-out", str(out), *extra,
            ])
            assert code == 0
        plain = json.loads(plain_out.read_text())
        engine = json.loads(engine_out.read_text())
        assert engine["shards"] == 4 and engine["batch"] == 64
        out = capsys.readouterr().out
        assert "4 shards" in out and "batch 64" in out
        for kind in ("rtree", "lazy", "alpha", "ct"):
            plain_run = plain["indexes"][kind]["run"]
            engine_run = engine["indexes"][kind]["run"]
            assert engine_run["result_count"] == plain_run["result_count"], kind
            assert engine_run["n_queries"] == plain_run["n_queries"]
            engine_meta = engine["indexes"][kind]["engine"]
            assert engine_meta["sharded"]["partition"]["n_shards"] == 4
            assert engine_meta["buffer"]["flushes"] > 0
            assert engine_run["n_applied"] + engine_run["n_coalesced"] == (
                engine_run["n_updates"]
            )
            # sharded tree stats aggregate the per-shard probes
            stats = engine["indexes"][kind]["tree_stats"]
            assert stats["sharded"] is True
            assert stats["n_shards"] == 4
            assert stats["size"] == sum(stats["shard_sizes"])

    @pytest.mark.parametrize("extra", [["--batch", "16"], []])
    def test_parallel_matches_inline(self, trace_file, tmp_path, capsys, extra):
        """The process pool changes where shard work runs, never the I/O
        charged or what queries return."""
        import json

        runs = {}
        for mode, flags in (("inline", []), ("parallel", ["--parallel"])):
            out = tmp_path / f"{mode}.json"
            code = main([
                "compare", str(trace_file), "--history", "30", "--ratio", "20",
                "--shards", "3", "--metrics-out", str(out), *extra, *flags,
            ])
            assert code == 0
            payload = json.loads(out.read_text())
            assert "workers" not in payload
            assert payload["parallel"] == ("process" if flags else "off")
            runs[mode] = {
                kind: [entry["run"][key] for key in ("update_io", "query_io",
                                                     "result_count")]
                for kind, entry in payload["indexes"].items()
            }
        assert "parallel process" in capsys.readouterr().out
        assert runs["parallel"] == runs["inline"]

    @pytest.mark.parametrize("shards", [[], ["--shards", "1"]])
    def test_parallel_needs_shards(self, trace_file, capsys, shards):
        code = main([
            "compare", str(trace_file), "--history", "30", "--parallel",
            *shards,
        ])
        assert code == 1
        assert "--parallel needs --shards N" in capsys.readouterr().err

    def test_parallel_takes_no_value(self, trace_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", str(trace_file), "--parallel", "thread"]
            )


class TestDurabilityCli:
    def test_compare_with_wal_dir_reports_durability(
        self, trace_file, tmp_path, capsys
    ):
        import json

        wal_dir = tmp_path / "wal"
        out = tmp_path / "m.json"
        code = main([
            "compare", str(trace_file), "--history", "30", "--ratio", "20",
            "--wal-dir", str(wal_dir), "--sync-policy", "group:4",
            "--checkpoint-every", "50", "--metrics-out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "durability: WAL under" in printed
        payload = json.loads(out.read_text())
        assert payload["sync_policy"] == "group:4"
        assert payload["checkpoint_every"] == 50
        for kind in ("rtree", "lazy", "alpha", "ct"):
            durability = payload["indexes"][kind]["durability"]
            assert durability["wal"]["appends"] > 0
            assert durability["wal"]["fsyncs"] > 0
            # Each kind logs into its own subdirectory and the run closes
            # with a checkpoint (plus the post-load baseline).
            assert durability["checkpoints_taken"] >= 2
            assert (wal_dir / kind).is_dir()

    def test_recover_round_trips_a_crashed_compare(
        self, trace_file, tmp_path, capsys
    ):
        wal_dir = tmp_path / "wal"
        code = main([
            "compare", str(trace_file), "--history", "30", "--ratio", "20",
            "--wal-dir", str(wal_dir), "--sync-policy", "always",
        ])
        assert code == 0
        capsys.readouterr()
        # Damage the lazy kind's log the way a crash would, then recover.
        from repro.durability import tear_tail

        tear_tail(wal_dir / "lazy", nbytes=3)
        snapshot = tmp_path / "recovered.json"
        code = main([
            "recover", str(wal_dir / "lazy"), "--save", str(snapshot),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        assert "replayed:" in out
        assert "objects:" in out
        assert snapshot.exists()
        from repro.storage.snapshot import load_index

        assert len(load_index(snapshot)) > 0

    def test_rebalanced_sharded_compare_logs_and_recovers(
        self, trace_file, tmp_path, capsys
    ):
        import json

        wal_dir = tmp_path / "wal"
        out = tmp_path / "m.json"
        code = main([
            "compare", str(trace_file), "--history", "30", "--ratio", "20",
            "--index", "lazy", "--shards", "4", "--rebalance",
            "--wal-dir", str(wal_dir), "--metrics-out", str(out),
        ])
        assert code == 0
        live = json.loads(out.read_text())["indexes"]["lazy"]["tree_stats"]
        capsys.readouterr()
        code = main(["recover", str(wal_dir / "lazy")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "kind sharded" in printed
        assert "verify:         ok" in printed
        assert f"objects:        {live['size']}\n" in printed

    def test_verify_counts_sharded_lsm_objects(self, trace_file, tmp_path, capsys):
        """``repro verify`` over a sharded LSM log checks every shard."""
        import re

        wal_dir = tmp_path / "wal"
        code = main([
            "compare", str(trace_file), "--history", "30", "--ratio", "20",
            "--index", "lsm", "--shards", "4", "--wal-dir", str(wal_dir),
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["verify", str(wal_dir / "lsm")])
        assert code == 0
        printed = capsys.readouterr().out
        match = re.search(r"sharded: OK \(\d+ nodes, (\d+) objects", printed)
        assert match, printed
        assert int(match.group(1)) > 0

    def test_recover_without_state_fails_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = main(["recover", str(empty)])
        assert code == 1
        assert "recovery failed" in capsys.readouterr().err


class TestBuildMetrics:
    def test_build_metrics_out(self, trace_file, tmp_path, capsys):
        import json

        out = tmp_path / "b.json"
        code = main([
            "build", str(trace_file), "--history", "30",
            "--metrics-out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["build"]["phase_timings"]) == {
            "phase1_qs_mining", "phase2_graph",
            "phase3_traffic_merge", "phase4_tree_load",
        }
        assert payload["tree_stats"]["size"] == payload["build"]["object_count"]
        assert payload["pager"]["io"]["build"]["total"] > 0


class TestExperimentAndParams:
    def test_params(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "lambda_u" in out and "T_area" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "N_obj" in capsys.readouterr().out
