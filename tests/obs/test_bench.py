"""Bench trajectory unit tests: records, baselines, the regression gate."""

import json

import pytest

from repro.obs import bench
from repro.obs.bench import (
    BenchError,
    BenchRecord,
    append_record,
    compare,
    load_trajectory,
    machine_fingerprint,
    make_record,
    next_index,
)

METRICS = {
    "sim.replay_accesses_per_s": 50_000.0,
    "exec.serial_accesses_per_s": 60_000.0,
    "exec.parallel_accesses_per_s": 90_000.0,
    "exec.warm_cache_jobs_per_s": 400.0,
    "fidelity.cnt_average_saving": 0.1805,
    "fidelity.write_asymmetry": 9.9437,
    "fidelity.delta_balance": 1.0007,
}


def record(index=1, machine="m1", size="tiny", seed=7, **overrides):
    metrics = dict(METRICS)
    metrics.update(overrides)
    return BenchRecord(
        index=index,
        git_sha="deadbeef",
        timestamp="2026-01-01T00:00:00Z",
        machine=machine,
        size=size,
        seed=seed,
        jobs=2,
        metrics=metrics,
    )


class TestRecord:
    def test_round_trips_through_dict(self):
        original = record()
        assert BenchRecord.from_dict(original.to_dict()) == original

    def test_schema_tagged_and_enforced(self):
        payload = record().to_dict()
        assert payload["schema"] == bench.BENCH_SCHEMA
        payload["schema"] = "something-else"
        with pytest.raises(BenchError):
            BenchRecord.from_dict(payload)

    def test_malformed_payloads_rejected(self):
        with pytest.raises(BenchError):
            BenchRecord.from_dict("not a dict")
        bad = record().to_dict()
        bad["metrics"] = "not a dict"
        with pytest.raises(BenchError):
            BenchRecord.from_dict(bad)
        del (missing := record().to_dict())["index"]
        with pytest.raises(BenchError):
            BenchRecord.from_dict(missing)

    def test_machine_fingerprint_is_stable(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 16


class TestTrajectory:
    def test_missing_directory_is_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "nope") == []
        assert next_index(tmp_path / "nope") == 1

    def test_append_load_round_trip_in_index_order(self, tmp_path):
        append_record(record(index=2), tmp_path)
        append_record(record(index=1), tmp_path)
        trajectory = load_trajectory(tmp_path)
        assert [r.index for r in trajectory] == [1, 2]
        assert next_index(tmp_path) == 3

    def test_append_refuses_to_overwrite(self, tmp_path):
        append_record(record(index=1), tmp_path)
        with pytest.raises(BenchError):
            append_record(record(index=1), tmp_path)

    def test_unparseable_and_foreign_files_are_skipped(self, tmp_path):
        append_record(record(index=1), tmp_path)
        (tmp_path / "BENCH_0002.json").write_text("{torn")
        (tmp_path / "notes.json").write_text("{}")
        assert [r.index for r in load_trajectory(tmp_path)] == [1]
        # The torn file still owns its index slot: no silent overwrite.
        assert next_index(tmp_path) == 3

    def test_make_record_stamps_the_next_index(self, tmp_path):
        append_record(record(index=4), tmp_path)
        fresh = make_record(
            METRICS, directory=tmp_path, size="tiny", seed=7, jobs=2
        )
        assert fresh.index == 5
        assert fresh.machine == machine_fingerprint()
        assert fresh.metrics == METRICS


class TestCompare:
    def test_no_baseline_passes_vacuously(self):
        assert compare(record(index=1), []) == []
        # Records of another size/seed are not comparable either.
        history = [record(index=1, size="small")]
        assert compare(record(index=2), history) == []

    def test_within_tolerance_passes(self):
        history = [record(index=1)]
        fresh = record(
            index=2, **{"exec.serial_accesses_per_s": 60_000.0 * 0.90}
        )
        assert compare(fresh, history) == []

    def test_throughput_drop_beyond_15_percent_flags(self):
        history = [record(index=1)]
        fresh = record(
            index=2, **{"exec.serial_accesses_per_s": 60_000.0 * 0.80}
        )
        (regression,) = compare(fresh, history)
        assert regression.metric == "exec.serial_accesses_per_s"
        assert regression.kind == "perf"
        assert regression.baseline == pytest.approx(60_000.0)
        assert "below the baseline" in regression.describe()

    def test_perf_baselines_are_machine_scoped(self):
        history = [record(index=1, machine="other")]
        fresh = record(
            index=2, **{"exec.serial_accesses_per_s": 60_000.0 * 0.5}
        )
        assert compare(fresh, history) == []

    def test_fidelity_drift_flags_across_machines(self):
        history = [record(index=1, machine="other")]
        fresh = record(index=2, **{"fidelity.cnt_average_saving": 0.1806})
        (regression,) = compare(fresh, history)
        assert regression.metric == "fidelity.cnt_average_saving"
        assert regression.kind == "fidelity"
        assert "drifted" in regression.describe()

    def test_fidelity_numeric_noise_passes(self):
        history = [record(index=1)]
        drift = 0.1805 * (1 + 1e-9)
        fresh = record(index=2, **{"fidelity.cnt_average_saving": drift})
        assert compare(fresh, history) == []

    def test_baseline_is_median_of_the_window(self):
        history = [
            record(index=i, **{"exec.serial_accesses_per_s": value})
            for i, value in enumerate([100.0, 90_000.0, 70_000.0, 80_000.0], 1)
        ]
        fresh = record(
            index=5, **{"exec.serial_accesses_per_s": 80_000.0 * 0.84}
        )
        # window=3 -> median(90k, 70k, 80k) = 80k; 16% below flags.
        (regression,) = compare(fresh, history, window=3)
        assert regression.baseline == pytest.approx(80_000.0)
        # The full window pulls the 100.0 outlier in; median(4 values)
        # = 75k and the same record passes.
        assert compare(fresh, history, window=4) == []


class TestBenchCLI:
    """``cntcache bench`` with a stubbed collector: fast and targeted."""

    def run(self, monkeypatch, tmp_path, metrics, check=True):
        from repro.harness.cli import main

        monkeypatch.setattr(
            "repro.obs.bench.collect",
            lambda size, seed, jobs, progress=None: dict(metrics),
        )
        argv = ["bench", "--size", "smoke", "--bench-dir", str(tmp_path)]
        if check:
            argv.append("--check")
        return main(argv)

    def test_appends_records_and_passes_without_history(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self.run(monkeypatch, tmp_path, METRICS) == 0
        out = capsys.readouterr().out
        assert "record 1 appended" in out
        assert "bench check passed" in out
        (path,) = tmp_path.glob("BENCH_*.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == bench.BENCH_SCHEMA
        assert payload["metrics"] == METRICS

    def test_check_fails_on_injected_throughput_regression(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self.run(monkeypatch, tmp_path, METRICS) == 0
        slower = dict(METRICS)
        slower["exec.serial_accesses_per_s"] *= 0.80
        assert self.run(monkeypatch, tmp_path, slower) == 1
        err = capsys.readouterr().err
        assert "REGRESSION exec.serial_accesses_per_s" in err
        # The regressing record is still appended: the trajectory keeps
        # the evidence either way.
        assert len(list(tmp_path.glob("BENCH_*.json"))) == 2

    def test_check_fails_on_fidelity_drift(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self.run(monkeypatch, tmp_path, METRICS) == 0
        drifted = dict(METRICS)
        drifted["fidelity.write_asymmetry"] += 0.001
        assert self.run(monkeypatch, tmp_path, drifted) == 1
        assert "fidelity.write_asymmetry" in capsys.readouterr().err

    def test_without_check_regressions_are_informational(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self.run(monkeypatch, tmp_path, METRICS, check=False) == 0
        slower = dict(METRICS)
        slower["exec.serial_accesses_per_s"] *= 0.5
        assert self.run(monkeypatch, tmp_path, slower, check=False) == 0
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "informational" in captured.out


class TestFloorGate:
    """The sim.array_speedup hard floor (no trajectory history needed)."""

    def test_below_the_floor_flags_without_history(self):
        fresh = record(index=1, **{"sim.array_speedup": 4.2})
        (regression,) = compare(fresh, [])
        assert regression.metric == "sim.array_speedup"
        assert regression.kind == "floor"
        assert regression.baseline == pytest.approx(5.0)
        assert "hard floor" in regression.describe()

    def test_at_or_above_the_floor_passes(self):
        assert compare(record(index=1, **{"sim.array_speedup": 5.0}), []) == []
        assert compare(record(index=1, **{"sim.array_speedup": 10.7}), []) == []

    def test_absent_metric_passes(self):
        """A record without the floor metric (an older or partial record)
        has nothing to gate; that is not a regression."""
        assert compare(record(index=1), []) == []

    def test_floor_ignores_the_trajectory_baseline(self):
        history = [record(index=1, **{"sim.array_speedup": 11.0})]
        fresh = record(index=2, **{"sim.array_speedup": 6.0})
        # 45% below the history median, but above the hard floor: the
        # perf-style baseline does not apply to floor metrics.
        assert compare(fresh, history) == []
