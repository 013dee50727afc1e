"""The fidelity gate: the pin record, the comparison and ``cntcache bench``."""

import dataclasses
import json
import shutil

import pytest

from repro import records
from repro.cnfet.energy import BitEnergyModel
from repro.obs import bench, probe
from repro.obs.bench import (
    FIDELITY,
    PINNED_CONFIGS,
    RECORD,
    SPEEDUP_FLOOR,
    BenchError,
    compare,
    load_pins,
    measure_digests,
)


@pytest.fixture(scope="module")
def pins():
    return load_pins(RECORD)


def drifted(pins, name, factor):
    """``pins`` with one fidelity float scaled by ``factor``."""
    fidelity = dict(pins.fidelity)
    fidelity[name] *= factor
    return dataclasses.replace(pins, fidelity=fidelity)


def failures(verdicts):
    return {verdict.pin for verdict in verdicts if not verdict.ok}


def read_skipped(path):
    """``load_pins(path)`` must raise; returns the counters it moved."""
    with probe.recording(probe.ObsScope()) as scope:
        with pytest.raises(BenchError):
            load_pins(path)
    return dict(scope.counters)


class TestRecord:
    def test_round_trips_through_dict(self, pins):
        """The committed record is canonical and reads back whole."""
        text = RECORD.read_text()
        payload = json.loads(text)
        assert records.dumps(payload, indent=2) + "\n" == text
        assert payload["metrics"] == pins.fidelity
        assert payload["digests"] == pins.digests

    def test_schema_tagged_and_enforced(self, tmp_path):
        payload = json.loads(RECORD.read_text())
        assert payload["schema"] == bench.BENCH_SCHEMA == "obs-bench-v2"
        payload["schema"] = "obs-bench-v1"
        path = tmp_path / "BENCH_0001.json"
        path.write_text(json.dumps(payload))
        assert read_skipped(path) == {"bench.skipped_records": 1}

    def test_malformed_payloads_rejected(self, tmp_path):
        original = json.loads(RECORD.read_text())
        edits = [
            "not a dict",
            {**original, "metrics": "not a dict"},
            {**original, "metrics": {}},
            {**original, "metrics": dict.fromkeys(original["metrics"], "0.18")},
            {**original, "digests": {"cnt": original["digests"]["cnt"]}},
            {**original, "digests": dict.fromkeys(PINNED_CONFIGS, 1)},
            {key: value for key, value in original.items() if key != "seed"},
            {**original, "size": 7},
        ]
        path = tmp_path / "BENCH_0001.json"
        for payload in edits:
            path.write_text(json.dumps(payload))
            assert read_skipped(path) == {"bench.skipped_records": 1}, payload

    def test_a_torn_record_is_a_counted_skip(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        path.write_bytes(RECORD.read_bytes()[:40])
        assert read_skipped(path) == {"bench.skipped_records": 1}

    def test_a_missing_record_is_an_error_not_a_skip(self, tmp_path):
        assert read_skipped(tmp_path / "absent.json") == {}


class TestCompare:
    def test_within_tolerance_passes(self, pins):
        for name in FIDELITY:
            assert failures(compare(pins, drifted(pins, name, 1 + 5e-7), 10.0)) == set()

    def test_fidelity_drift_flags_across_machines(self, pins):
        """The record names no machine: a drift flags wherever it is measured."""
        for name in FIDELITY:
            verdicts = compare(pins, drifted(pins, name, 1 + 2e-6), 10.0)
            assert failures(verdicts) == {name}
            (verdict,) = [v for v in verdicts if v.pin == name]
            assert verdict.describe().startswith(f"FAIL {name}")

    def test_fidelity_numeric_noise_passes(self, pins):
        for name in FIDELITY:
            assert failures(compare(pins, drifted(pins, name, 1 + 1e-9), 10.0)) == set()


class TestFloorGate:
    """The sim.array_speedup hard floor: an absolute bound, no history."""

    def test_below_the_floor_flags_without_history(self, pins):
        verdicts = compare(pins, pins, 4.2)
        assert failures(verdicts) == {"sim.array_speedup"}
        assert verdicts[-1].describe().startswith("FAIL sim.array_speedup")

    def test_at_or_above_the_floor_passes(self, pins):
        assert failures(compare(pins, pins, SPEEDUP_FLOOR)) == set()
        assert failures(compare(pins, pins, 10.7)) == set()


class TestDrift:
    """A 1e-6 drift of any Table I entry moves every digest pin."""

    @pytest.mark.parametrize("entry", ["e_rd0", "e_rd1", "e_wr0", "e_wr1"])
    def test_table1_drift_trips_the_digest_pins(self, pins, entry):
        table = BitEnergyModel.paper_table1()
        energy = dataclasses.replace(
            table, **{entry: getattr(table, entry) * (1 + 1e-6)}
        )
        # CNTCacheConfig.energy's default_factory bound paper_table1 at
        # import, so the drift goes into each config explicitly.
        configs = {
            name: dataclasses.replace(config, energy=energy)
            for name, config in PINNED_CONFIGS.items()
        }
        measured = dataclasses.replace(
            pins, digests=measure_digests(pins.size, pins.seed, configs)
        )
        assert failures(compare(pins, measured, 10.0)) == {
            f"digest.{name}" for name in PINNED_CONFIGS
        }


class TestBenchCLI:
    """``cntcache bench`` end to end; only the speedup timing is stubbed."""

    def run(self, monkeypatch, path, speedup=10.0):
        from repro.harness.cli import main

        monkeypatch.setattr(bench, "array_speedup", lambda size, seed: speedup)
        return main(["bench", "--record", str(path)])

    def copy(self, tmp_path, edit=None):
        path = tmp_path / "BENCH_0001.json"
        shutil.copyfile(RECORD, path)
        if edit is not None:
            payload = json.loads(path.read_text())
            edit(payload)
            path.write_text(records.dumps(payload, indent=2) + "\n")
        return path

    def test_an_unedited_record_passes(self, monkeypatch, tmp_path, capsys):
        assert self.run(monkeypatch, self.copy(tmp_path)) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == len(FIDELITY) + len(PINNED_CONFIGS) + 2
        assert "ok   sim.array_speedup" in out
        assert "bench check passed" in out

    def test_check_fails_on_fidelity_drift(self, monkeypatch, tmp_path, capsys):
        def edit(payload):
            payload["metrics"]["fidelity.write_asymmetry"] *= 1 + 2e-6

        assert self.run(monkeypatch, self.copy(tmp_path, edit)) == 1
        captured = capsys.readouterr()
        assert "FAIL fidelity.write_asymmetry" in captured.out
        assert "fidelity.write_asymmetry" in captured.err

    def test_check_fails_on_an_edited_digest(self, monkeypatch, tmp_path, capsys):
        def edit(payload):
            payload["digests"]["dbi"] = "0" * 16

        assert self.run(monkeypatch, self.copy(tmp_path, edit)) == 1
        captured = capsys.readouterr()
        assert "FAIL digest.dbi" in captured.out
        assert "bench check failed: digest.dbi" in captured.err

    def test_check_fails_on_injected_throughput_regression(
        self, monkeypatch, tmp_path, capsys
    ):
        assert self.run(monkeypatch, self.copy(tmp_path), speedup=4.2) == 1
        assert "sim.array_speedup" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[: len(blob) // 2],
            lambda blob: blob.replace(b"obs-bench-v2", b"obs-bench-v1"),
            lambda blob: b"[]",
            lambda blob: b"\xff\xfe",
        ],
        ids=["truncated", "foreign-schema", "non-object", "not-utf8"],
    )
    def test_an_unreadable_record_exits_2(self, monkeypatch, tmp_path, capsys, damage):
        path = self.copy(tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        assert self.run(monkeypatch, path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert str(path) in captured.err

    def test_a_missing_record_exits_2(self, monkeypatch, tmp_path, capsys):
        assert self.run(monkeypatch, tmp_path / "absent.json") == 2
        assert "no pin record" in capsys.readouterr().err
