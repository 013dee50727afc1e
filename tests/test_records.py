"""The on-disk record layer: unit checks plus a corruption fuzzer.

The fuzzer starts from a real record of every kind in
:data:`repro.records.COUNTERS`, written by that kind's own writer (the
bench pin record has none: the committed one is copied), and damages
it the ways disks, crashes and foreign writers do: truncation at an
arbitrary byte offset, a flipped byte, a swapped schema tag, non-object
JSON, and injected ``NaN``/``Infinity``/``1e999``/5000-digit numbers.
The kind's own reader must then

* never raise (a bench record's ``BenchError`` aside, and a
  manifest's ``ManifestError`` when its header is gone);
* return either the original record or a skip;
* move the kind's registered counter by exactly 1 per skip.

A flipped byte that still decodes to a well-typed value (a digit in an
energy total, a letter in a label) cannot be caught without a per-record
digest; adding one would bump every schema, so it is out of scope.  For
flips the fuzzer therefore only asserts the first and third property:
a flip is either read as a well-typed record with no counter moved, or
skipped and counted.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import records
from repro.exec import BrokerConfig, ExecEngine, trace_job
from repro.exec.broker import BrokerStore
from repro.exec.store import ResultStore
from repro.obs import probe
from repro.obs.bench import RECORD, BenchError, load_pins
from repro.obs.manifest import (
    ManifestError,
    ManifestWriter,
    broker_entry,
    read_manifest,
    summary_entry,
)
from repro.obs.names import is_registered
from repro.obs.telemetry import TelemetryCollector, TelemetryWriter
from repro.schemas import registered_tags

JOB = trace_job("records", "tiny", 3)

#: What a reader returned when it skipped (or found nothing).
SKIPPED = None

#: Replacement documents for the non-object mutation.
NON_OBJECTS = [b"null", b"[]", b'"x"', b"1", b"1.5", b"true", b"[{}]"]

#: Literals injected in place of one value.
POISON_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "9" * 5000]


# ------------------------------------------------------------------ #
# unit checks
# ------------------------------------------------------------------ #
class TestLayer:
    def test_every_kind_counter_is_registered(self):
        for kind, counter in records.COUNTERS.items():
            assert is_registered(counter), kind

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        records.write_atomic(path, records.dumps({"schema": "s-v1", "n": 1}))
        assert records.read_record(path, "s-v1") == {"schema": "s-v1", "n": 1}
        assert records.read_record(tmp_path / "absent.json", "s-v1") is None

    @pytest.mark.parametrize(
        "text, cause",
        [
            ('{"schema": "other-v1"}', records.FOREIGN),
            ('{"schema": 7}', records.CORRUPT),
            ('{"n": 1}', records.CORRUPT),
            ('{"schema": "s-v1", "n": NaN}', records.CORRUPT),
            ('{"schema": "s-v1", "n": 1e999}', records.CORRUPT),
            ('{"schema": "s-v1", "n": %s}' % ("9" * 400), records.CORRUPT),
            ("[" * 100000, records.CORRUPT),
            ("null", records.CORRUPT),
        ],
    )
    def test_bad_documents_skip_with_a_cause(self, tmp_path, text, cause):
        path = tmp_path / "r.json"
        path.write_text(text)
        skip = records.read_record(path, "s-v1")
        assert isinstance(skip, records.Skip)
        assert skip.cause == cause

    def test_invalid_utf8_is_corrupt(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'{"schema": "s-v1", "x": "\xff"}')
        skip = records.read_record(path, "s-v1")
        assert isinstance(skip, records.Skip)
        assert skip.cause == records.CORRUPT

    def test_unreadable_is_its_own_cause(self, tmp_path):
        skip = records.read_record(tmp_path, "s-v1")  # a directory
        assert isinstance(skip, records.Skip)
        assert skip.cause == records.UNREADABLE

    def test_writer_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            records.dumps({"x": float("nan")})

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "missing-dir" / "r.json"
        with pytest.raises(OSError):
            records.write_atomic(target, "{}")
        assert list(tmp_path.rglob("*.tmp.*")) == []

    def test_threads_of_one_process_never_share_a_temp_file(self, tmp_path):
        path = tmp_path / "r.json"
        documents = [
            records.dumps({"schema": "s-v1", "writer": n, "pad": "x" * 50000})
            for n in range(8)
        ]
        errors: list[Exception] = []

        def write(text):
            try:
                for _ in range(25):
                    records.write_atomic(path, text)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(text,)) for text in documents
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert path.read_text() in documents
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_tail_defers_the_torn_line_and_counts_bad_ones(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_bytes(b'{"a": 1}\n[1]\n{"a": NaN}\n\n{"a": 2')
        with probe.recording(probe.ObsScope()) as scope:
            found, offset, skipped = records.tail_jsonl(path, 0, None)
        assert found == [{"a": 1}]
        assert (offset, skipped) == (len(b'{"a": 1}\n[1]\n{"a": NaN}\n\n'), 2)
        assert scope.counters == {"obs.torn_lines": 2}


# ------------------------------------------------------------------ #
# the corruption fuzzer
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class Kind:
    """How to write one real record and read it back by its own reader."""

    #: Writes a real record under a root; returns its path.
    write: Callable[[Path], Path]
    #: The kind's reader: a comparable value, or ``SKIPPED``.
    read: Callable[[Path], Any]


def _broker(root: Path) -> BrokerStore:
    return BrokerStore(BrokerConfig(root=root, spawn=False))


def _write_cache(root: Path) -> Path:
    ExecEngine(cache_dir=root / "cache").run_job(JOB)
    return ResultStore(root / "cache").path_for(JOB.fingerprint)


def _read_cache(root: Path) -> Any:
    result = ResultStore(root / "cache").read(JOB)
    return SKIPPED if result is None else result.canonical()


def _write_job(root: Path) -> Path:
    _broker(root).publish([JOB], trace_id="t" * 32)
    return _broker(root).job_path(JOB.fingerprint)


def _write_lease(root: Path) -> Path:
    store = _broker(root)
    store.publish([JOB])
    assert store.claim("w1") is not None
    return store.lease_path(JOB.fingerprint)


def _write_reclaim(root: Path) -> Path:
    _broker(root)._record_reclaim(JOB.fingerprint, 2, "w0", "w1")
    return root / "reclaims" / f"{JOB.fingerprint}.2.json"


def _read_reclaim(root: Path) -> Any:
    found = _broker(root).consume_reclaims()
    return found[0] if found else SKIPPED


def _write_quarantine(root: Path) -> Path:
    _broker(root).quarantine_job(JOB, 3, "poison")
    return _broker(root).quarantine_path(JOB.fingerprint)


def _read_quarantine(root: Path) -> Any:
    found = _broker(root).quarantined()
    return found[0] if found else SKIPPED


def _write_state(root: Path) -> Path:
    directory = root / "telemetry"
    with TelemetryWriter(directory, identity="w1", interval_s=0.0) as writer:
        writer.heartbeat("running", jobs_done=1)
        writer.lifecycle(
            "finish", fingerprint=JOB.fingerprint, scheme="cnt", energy_fj=12.5
        )
    TelemetryCollector(directory).poll()
    (directory / "w1.ndjson").unlink()
    return directory / ".collector-state.json"


def _read_state(root: Path) -> Any:
    collector = TelemetryCollector(root / "telemetry")
    if not collector.offsets:
        return SKIPPED
    return (
        collector.offsets,
        collector.frames,
        collector.torn_lines,
        collector.energy_by_scheme,
        collector._energy_seen,
        {name: view.to_dict() for name, view in collector.views.items()},
    )


def _write_bench(root: Path) -> Path:
    # The pin record has no writer: its one copy is committed.
    path = root / RECORD.name
    path.write_bytes(RECORD.read_bytes())
    return path


def _read_bench(root: Path) -> Any:
    try:
        return load_pins(root / RECORD.name)
    except BenchError:
        return SKIPPED


KINDS: dict[str, Kind] = {
    "cache entry": Kind(_write_cache, _read_cache),
    "broker job": Kind(
        _write_job, lambda root: _broker(root).load_job(JOB.fingerprint)
    ),
    "broker lease": Kind(
        _write_lease, lambda root: _broker(root).read_lease(JOB.fingerprint)
    ),
    "broker reclaim": Kind(_write_reclaim, _read_reclaim),
    "broker quarantine": Kind(_write_quarantine, _read_quarantine),
    "collector state": Kind(_write_state, _read_state),
    "bench record": Kind(_write_bench, _read_bench),
}

#: Kinds stored as JSON lines, fuzzed line by line below.
JSONL_KINDS = ("manifest line", "telemetry frame")


def test_the_fuzzer_covers_every_record_kind():
    assert set(KINDS) | set(JSONL_KINDS) == set(records.COUNTERS)


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """kind -> (path relative to the root, original bytes, read value)."""
    built = {}
    for name, kind in KINDS.items():
        root = tmp_path_factory.mktemp(name.replace(" ", "-"))
        path = kind.write(root)
        blob = path.read_bytes()  # before reading: reclaims are consumed
        value = kind.read(root)
        assert value is not SKIPPED, name
        built[name] = (path.relative_to(root), blob, value)
    return built


def _nodes(value: Any) -> list[tuple[Any, Any]]:
    """Every (container, key) pair under ``value``, depth first."""
    found: list[tuple[Any, Any]] = []
    keys = (
        list(value)
        if isinstance(value, dict)
        else range(len(value))
        if isinstance(value, list)
        else []
    )
    for key in keys:
        found.append((value, key))
        found.extend(_nodes(value[key]))
    return found


def mutate(data: Any, blob: bytes) -> tuple[str, bytes]:
    """One damaged copy of the serialized record ``blob``."""
    how = data.draw(
        st.sampled_from(["truncate", "flip", "swap", "non-object", "inject"]),
        label="how",
    )
    if how == "truncate":
        return how, blob[: data.draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        mask = data.draw(st.integers(1, 255))
        return how, blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]
    if how == "non-object":
        return how, data.draw(st.sampled_from(NON_OBJECTS))
    if how == "swap":
        record = json.loads(blob)
        tags = [tag for tag in registered_tags() if tag != record["schema"]]
        record["schema"] = data.draw(st.sampled_from([*tags, "x-v9"]))
        return how, json.dumps(record).encode()
    return how, mutate_value(data, blob)


def mutate_value(data: Any, blob: bytes) -> bytes:
    """``blob`` with one value replaced by a non-finite or huge number."""
    record = json.loads(blob)
    container, key = data.draw(st.sampled_from(_nodes(record)))
    container[key] = "@@poison@@"
    literal = data.draw(st.sampled_from(POISON_NUMBERS))
    return json.dumps(record).replace('"@@poison@@"', literal).encode()


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_damaged_records_read_as_the_original_or_a_counted_skip(
    originals, name, data
):
    kind = KINDS[name]
    counter = records.COUNTERS[name]
    relative, blob, original = originals[name]
    how, damaged = mutate(data, blob)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(damaged)
        with probe.recording(probe.ObsScope()) as scope:
            value = kind.read(root)
        quarantined = len(list(root.rglob("*.corrupt")))
    moved = dict(scope.counters)
    if value is SKIPPED:
        if name == "cache entry" and how in ("swap", "flip") and not moved:
            return  # a foreign schema or fingerprint: an uncounted miss
        assert moved == {counter: 1}, (how, damaged[:200])
        if name == "cache entry":
            assert quarantined == 1
        return
    assert moved == {}, (how, damaged[:200])
    if how != "flip":
        assert value == original, (how, damaged[:200])


def _jsonl_original(name: str, directory: Path) -> Path:
    if name == "manifest line":
        path = directory / "run.jsonl"
        with ManifestWriter(path) as writer:
            writer.write(broker_entry("publish", jobs=2, published=2))
            writer.write(summary_entry({"executed": 2}, wall_s=1.25))
        return path
    with TelemetryWriter(directory, identity="w1", interval_s=0.0) as writer:
        writer.heartbeat("running", jobs_done=1)
        writer.lifecycle(
            "finish", fingerprint=JOB.fingerprint, scheme="cnt", energy_fj=12.5
        )
    return writer.path


def mutate_lines(data: Any, blob: bytes) -> tuple[str, bytes]:
    """Whole-stream damage (truncate, flip) or one line replaced."""
    how = data.draw(
        st.sampled_from(["truncate", "flip", "line"]), label="stream-how"
    )
    if how == "truncate":
        return how, blob[: data.draw(st.integers(0, len(blob) - 1))]
    if how == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        mask = data.draw(st.integers(1, 255))
        return how, blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1 :]
    lines = blob.split(b"\n")[:-1]
    index = data.draw(st.integers(0, len(lines) - 1))
    if b'"schema"' in lines[index]:
        line_how, lines[index] = mutate(data, lines[index])
    else:  # manifest entries past the header carry no schema tag
        line_how = data.draw(st.sampled_from(["non-object", "inject"]))
        lines[index] = (
            data.draw(st.sampled_from(NON_OBJECTS))
            if line_how == "non-object"
            else mutate_value(data, lines[index])
        )
    return line_how, b"\n".join(lines) + b"\n"


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """JSON-lines kind -> (file name, original bytes)."""
    built = {}
    for name in JSONL_KINDS:
        path = _jsonl_original(name, tmp_path_factory.mktemp("stream"))
        built[name] = (path.name, path.read_bytes())
    return built


@pytest.mark.parametrize("name", JSONL_KINDS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_damaged_streams_keep_good_lines_and_count_each_skip(
    streams, name, data
):
    counter = records.COUNTERS[name]
    filename, blob = streams[name]
    original = [json.loads(line) for line in blob.splitlines()]
    how, damaged = mutate_lines(data, blob)
    # Every non-blank line is read (a manifest's unterminated tail too);
    # a collector defers the unterminated tail to the next poll.
    pieces = damaged.split(b"\n")
    if name == "telemetry frame":
        pieces = pieces[:-1]
    considered = len([line for line in pieces if line.strip()])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / filename
        path.write_bytes(damaged)
        with probe.recording(probe.ObsScope()) as scope:
            if name == "manifest line":
                try:
                    found = read_manifest(path)
                except ManifestError:
                    found = None  # the header itself was damaged
            else:
                collector = TelemetryCollector(Path(tmp), persist=False)
                found = collector.poll()
                assert collector.torn_lines == scope.counters.get(counter, 0)
    moved = dict(scope.counters)
    assert set(moved) <= {counter}, moved
    if found is None:
        return
    assert moved.get(counter, 0) == considered - len(found), (how, damaged)
    if how != "flip":
        assert all(entry in original for entry in found), (how, damaged)
