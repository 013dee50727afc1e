"""Unit tests for the CLI."""

import pytest

from repro.harness.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "f3" in out
        assert "matmul" in out

    def test_single_experiment(self, capsys):
        assert main(["t1", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "CNFET SRAM per-bit access energy" in out

    def test_unknown_experiment(self, capsys):
        assert main(["f99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_seed_flag(self, capsys):
        assert main(["t2", "--seed", "1"]) == 0

    def test_bad_size_rejected(self):
        with pytest.raises(SystemExit):
            main(["t1", "--size", "enormous"])

    def test_smoke_size_alias(self, capsys):
        assert main(["t5", "--size", "smoke", "--seed", "3"]) == 0
        assert "Workload characterisation" in capsys.readouterr().out

    def test_jobs_flag_rejects_nonpositive(self, capsys):
        assert main(["t1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_dir_warm_rerun_simulates_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["f3", "--size", "tiny", "--seed", "3", "--cache-dir", cache]
        assert main(args) == 0
        fresh = capsys.readouterr()
        assert "simulated" in fresh.err  # engine summary printed
        assert "0 cache hit(s)" in fresh.err

        assert main(args) == 0
        warm = capsys.readouterr()
        assert "0 simulated" in warm.err
        # identical tables modulo the timing lines; no summary on stdout
        strip = lambda text: [  # noqa: E731
            line for line in text.splitlines() if "(" not in line
        ]
        assert strip(fresh.out) == strip(warm.out)
        assert "exec:" not in fresh.out + warm.out

    def test_progress_flag_emits_per_job_lines(self, capsys):
        assert main(["t5", "--size", "tiny", "--seed", "3", "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[exec 1]" in captured.out
        assert "trace:" in captured.out
        assert "exec:" in captured.err  # summary line

    def test_all_preplans_and_dedupes(self, capsys, monkeypatch):
        import repro.harness.cli as cli

        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {key: cli.EXPERIMENTS[key] for key in ("f3", "f7", "t1")},
        )
        assert main(["all", "--size", "tiny", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        # f3 and f7 request the same 5-scheme matrix: half the plan dedupes.
        assert "planned 150 job(s), 75 unique (75 deduplicated)" in out

    def test_profile_command_renders_tables(self, tmp_path, capsys):
        manifest = tmp_path / "run.jsonl"
        args = [
            "profile", "--experiment", "a5", "--size", "smoke",
            "--seed", "3", "--manifest", str(manifest), "--top", "3",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "time per job kind" in out
        assert "exec engine" in out
        assert f"manifest written to {manifest}" in out
        assert manifest.exists()

    def test_profile_json_is_machine_readable(self, capsys):
        import json

        args = ["profile", "--experiment", "a5", "--size", "smoke",
                "--seed", "3", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "obs-profile-v1"
        summary = payload["summary"]
        assert summary["jobs"] > 0
        for key in (
            "accesses", "wall_s", "cache_hit_rate", "accesses_per_s",
            "by_kind", "by_source", "by_scheme", "energy_fj", "engine",
            "counters", "timers", "gauges", "slowest",
        ):
            assert key in summary, key

    def test_profile_times_record_and_fold_alike_at_any_jobs(self, capsys):
        """The two replay stages have their own timers, and no ``sim.*``
        count depends on how many workers ran the plan."""
        import json

        from repro.exec.worker import clear_memos

        def profiled(jobs: int) -> dict:
            clear_memos()  # record every substrate in this run
            args = ["profile", "--size", "tiny", "--jobs", str(jobs), "--json"]
            assert main(args) == 0
            return json.loads(capsys.readouterr().out)["summary"]

        serial, parallel = profiled(1), profiled(2)
        for summary in (serial, parallel):
            counters, timers = summary["counters"], summary["timers"]
            assert timers["sim.record"] > 0
            assert timers["sim.fold"] > 0
            assert counters["sim.folds"] >= counters["workload.substrate_records"]

        def sim_counts(summary: dict) -> dict:
            counters = summary["counters"]
            return {name: counters[name] for name in counters if name[:4] == "sim."}

        counts = sim_counts(serial)
        assert {"sim.folds", "sim.fold_accesses", "sim.table_folds"} <= set(counts)
        assert sim_counts(parallel) == counts

    def test_trace_command_writes_loadable_chrome_json(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        args = ["trace", "--size", "smoke", "--seed", "3",
                "--trace-every", "4", "--out", str(out)]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert {event["ph"] for event in events} >= {"M", "X"}
        accesses = [e for e in events if e.get("cat") == "access"]
        assert accesses and all(e["dur"] == 4.0 for e in accesses)
        assert "chrome trace written" in capsys.readouterr().out

    def test_trace_command_collapsed_energy_export(self, tmp_path):
        out = tmp_path / "energy.collapsed"
        args = ["trace", "--size", "smoke", "--seed", "3",
                "--export", "collapsed", "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert stack.count(";") == 3  # workload;level;scheme;component
            assert int(value) > 0

    def test_trace_unknown_workload_rejected(self, capsys):
        assert main(["trace", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_bad_stride_rejected(self, capsys):
        assert main(["trace", "--trace-every", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_profile_unknown_experiment(self, capsys):
        assert main(["profile", "--experiment", "zz"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_selftest_command(self, capsys):
        assert main(["selftest", "--size", "smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out

    def test_report_writes_markdown(self, tmp_path, capsys, monkeypatch):
        """The report command runs a (stubbed-small) experiment set."""
        import repro.harness.cli as cli

        # Keep the test fast: shrink the registry to two experiments.
        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {key: cli.EXPERIMENTS[key] for key in ("t1", "t3")},
        )
        out = tmp_path / "report.md"
        assert main(["report", "--output", str(out), "--size", "tiny"]) == 0
        text = out.read_text()
        assert "# CNT-Cache reproduction report" in text
        assert "[t1]" in text
        assert "[t3]" in text


class TestBackendFlag:
    """The engine is not a CLI knob: the array engine is the default."""

    def test_experiment_runs_under_the_array_backend(self, capsys):
        assert main(["t2", "--size", "tiny"]) == 0

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        for command in ("t1", "all", "profile", "bench", "trace"):
            with pytest.raises(SystemExit):
                main([command, "--backend", "scalar"])
            assert "--backend" in capsys.readouterr().err


class TestWorkerAndBrokerFlags:
    def test_worker_drains_a_prepublished_broker(self, tmp_path, capsys):
        from repro.exec import trace_job
        from repro.exec.broker import BrokerConfig, BrokerStore

        config = BrokerConfig(root=tmp_path / "broker")
        store = BrokerStore(config)
        store.publish([trace_job("stream", "tiny", 3)])
        assert main([
            "worker", "--broker", str(tmp_path / "broker"),
            "--idle-timeout", "0.2", "--poll", "0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert "worker done: 1 claimed, 1 executed" in out
        assert BrokerStore(config).pending() == []

    def test_worker_requires_the_broker_flag(self):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_worker_rejects_bad_settings(self, tmp_path, capsys):
        assert main([
            "worker", "--broker", str(tmp_path), "--lease-ttl", "0",
        ]) == 2
        assert "lease_ttl_s" in capsys.readouterr().err

    def test_broker_flag_runs_an_experiment_end_to_end(self, tmp_path, capsys):
        assert main([
            "t2", "--size", "tiny", "--jobs", "2",
            "--broker", str(tmp_path / "broker"),
        ]) == 0
        err = capsys.readouterr().err
        assert "exec:" in err  # engine summary printed in broker mode

    def test_unknown_exec_backend_rejected_by_argparse(self):
        # There is no --exec-backend flag: --jobs and --broker pick the path.
        with pytest.raises(SystemExit):
            main(["t1", "--exec-backend", "cloud"])
