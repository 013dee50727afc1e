"""The on-disk record layer: unit checks plus a corruption fuzzer.

The fuzzer starts from a real record of every kind in
:data:`repro.records.COUNTERS`, written by that kind's own writer (the
bench pin record has none: the committed one is copied), and damages
it the ways disks, crashes and foreign writers do: truncation at an
arbitrary byte offset, a flipped byte, a swapped schema tag, non-object
JSON, and injected ``NaN``/``Infinity``/``1e999``/5000-digit numbers.
The kind's own reader must then

* never raise (a bench record's ``BenchError`` aside, and a run
  manifest's ``ManifestError`` when no valid frame is left);
* return either the original record or a skip;
* move the kind's registered counter by exactly 1 per skip.

The one JSON-lines format, the frame stream that telemetry files and
run manifests share, is damaged line by line and read by both of its
readers: the live collector and ``read_manifest``.

A cache entry's ``EnergyStats`` payload is also damaged field by field
(a bool or float counter, a negative or non-finite energy, an extra or
missing key): the strict decode must turn each into a counted,
quarantined skip.

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
from repro.core.config import CNTCacheConfig
from repro.core.stats import ENERGY_COMPONENTS
from repro.exec import BrokerConfig, ExecEngine, trace_job, workload_job
from repro.exec.backends import trace_chunks
from repro.exec.broker import BrokerStore, chunk_id
from repro.exec.store import ResultStore
from repro.obs import probe
from repro.obs.bench import RECORD, BenchError, load_pins
from repro.obs.manifest import ManifestError, read_manifest
from repro.obs.names import is_registered
from repro.obs.telemetry import TelemetryCollector, TelemetryWriter
from repro.schemas import registered_tags

JOB = trace_job("records", "tiny", 3)

#: A two-job broker chunk over JOB's trace, and its record's name.
(CHUNK,) = trace_chunks([JOB, workload_job(CNTCacheConfig(), "records", "tiny", 3)], 1)
CHUNK_ID = chunk_id(CHUNK)

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
    _broker(root).publish(CHUNK, trace_id="t" * 32)
    return _broker(root).job_path(CHUNK_ID)


def _write_lease(root: Path) -> Path:
    # A lease whose job field names the chunk's second job.
    store = _broker(root)
    store.publish(CHUNK)
    claim = store.claim("w1")
    assert claim is not None and store.advance(claim, CHUNK[1])
    return store.lease_path(CHUNK_ID)


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
    "broker job": Kind(_write_job, lambda root: _broker(root).load_chunk(CHUNK_ID)),
    "broker lease": Kind(_write_lease, lambda root: _broker(root).read_lease(CHUNK_ID)),
    "broker reclaim": Kind(_write_reclaim, _read_reclaim),
    "broker quarantine": Kind(_write_quarantine, _read_quarantine),
    "collector state": Kind(_write_state, _read_state),
    "bench record": Kind(_write_bench, _read_bench),
}

#: Kinds stored as JSON lines, fuzzed line by line below.
JSONL_KINDS = ("telemetry frame",)


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


def _read_damaged(name: str, relative: Path, damaged: bytes) -> tuple[Any, dict]:
    """What kind ``name``'s reader makes of ``damaged``, and the counters."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(damaged)
        with probe.recording(probe.ObsScope()) as scope:
            value = KINDS[name].read(root)
    return value, dict(scope.counters)


#: Values of the wrong JSON type for any field of a chunk record or lease.
WRONG_TYPES = ['"x"', "[]", "{}", "null", "true"]


@pytest.mark.parametrize("name", ["broker job", "broker lease"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_retyped_field_reads_as_the_original_or_a_counted_skip(
    originals, name, data
):
    relative, blob, original = originals[name]
    record = json.loads(blob)
    container, key = data.draw(st.sampled_from(_nodes(record)))
    wrong = [text for text in WRONG_TYPES if type(json.loads(text)) is not type(container[key])]
    container[key] = "@@retype@@"
    literal = data.draw(st.sampled_from(wrong))
    damaged = json.dumps(record).replace('"@@retype@@"', literal).encode()
    value, moved = _read_damaged(name, relative, damaged)
    if value is SKIPPED:
        assert moved == {"exec.broker_skips": 1}, damaged[:200]
    else:
        assert moved == {} and value == original, damaged[:200]


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(len(CHUNK))), keep=st.integers(1, len(CHUNK)))
def test_a_chunk_record_that_does_not_hash_to_its_name_is_a_counted_skip(
    originals, order, keep
):
    relative, blob, original = originals["broker job"]
    record = json.loads(blob)
    record["jobs"] = [record["jobs"][index] for index in order[:keep]]
    value, moved = _read_damaged("broker job", relative, json.dumps(record).encode())
    if [CHUNK[index] for index in order[:keep]] == CHUNK:
        assert value == original
    else:
        assert value is SKIPPED and moved == {"exec.broker_skips": 1}


#: A job whose cache entry carries ``EnergyStats``.
STATS_JOB = CHUNK[1]


@pytest.fixture(scope="module")
def stats_entry(tmp_path_factory):
    """(path relative to a root, bytes) of ``STATS_JOB``'s cache entry."""
    root = tmp_path_factory.mktemp("stats-entry")
    ExecEngine(cache_dir=root / "cache").run_job(STATS_JOB)
    path = ResultStore(root / "cache").path_for(STATS_JOB.fingerprint)
    assert ResultStore(root / "cache").read(STATS_JOB) is not None
    return path.relative_to(root), path.read_bytes()


def damage_stats(data: Any, stats: dict) -> tuple[str, str | None]:
    """Damage ``stats`` in place the ways a strict decode must refuse.

    Returns how, and the JSON literal that replaces the ``"@@poison@@"``
    placeholder (``None`` when the damage is plain JSON).
    """
    counters = sorted(set(stats) - set(ENERGY_COMPONENTS) - {"extra"})
    how = data.draw(
        st.sampled_from(
            ["bool counter", "float counter", "negative energy",
             "non-finite energy", "extra key", "missing key"]
        ),
        label="how",
    )
    if how == "bool counter":
        stats[data.draw(st.sampled_from(counters))] = data.draw(st.booleans())
    elif how == "float counter":
        name = data.draw(st.sampled_from(counters))
        stats[name] = data.draw(st.sampled_from([float(stats[name]), 0.5]))
    elif how == "negative energy":
        stats[data.draw(st.sampled_from(ENERGY_COMPONENTS))] = -data.draw(
            st.floats(min_value=5e-324, max_value=1e300)
        )
    elif how == "non-finite energy":
        stats[data.draw(st.sampled_from(ENERGY_COMPONENTS))] = "@@poison@@"
        return how, data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
    elif how == "extra key":
        stats[data.draw(st.text(min_size=1).filter(lambda key: key not in stats))] = 0
    else:
        del stats[data.draw(st.sampled_from(sorted(stats)))]
    return how, None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_damaged_stats_payload_is_a_counted_skip(stats_entry, data):
    relative, blob = stats_entry
    record = json.loads(blob)
    how, literal = damage_stats(data, record["payload"]["stats"])
    damaged = json.dumps(record)
    if literal is not None:
        damaged = damaged.replace('"@@poison@@"', literal)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / relative
        path.parent.mkdir(parents=True)
        path.write_text(damaged, encoding="utf-8")
        with probe.recording(probe.ObsScope()) as scope:
            result = ResultStore(root / "cache").read(STATS_JOB)
        quarantined = len(list(root.rglob("*.corrupt")))
    assert result is None, how
    assert dict(scope.counters) == {"exec.cache_corrupt": 1}, how
    assert quarantined == 1, how


def _jsonl_original(name: str, directory: Path) -> Path:
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
    line_how, lines[index] = mutate(data, lines[index])
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
    # Every non-blank line is read by a run-manifest read (its
    # unterminated tail too); a collector defers that tail to the next
    # poll.
    pieces = damaged.split(b"\n")
    for reader, lines in (("collector", pieces[:-1]), ("manifest", pieces)):
        considered = len([line for line in lines if line.strip()])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / filename
            path.write_bytes(damaged)
            with probe.recording(probe.ObsScope()) as scope:
                if reader == "manifest":
                    try:
                        found = read_manifest(path)
                    except ManifestError:
                        found = []  # no valid frame left
                else:
                    collector = TelemetryCollector(Path(tmp), persist=False)
                    found = collector.poll()
                    assert collector.torn_lines == scope.counters.get(counter, 0)
        moved = dict(scope.counters)
        assert set(moved) <= {counter}, moved
        assert moved.get(counter, 0) == considered - len(found), (
            reader,
            how,
            damaged,
        )
        if how != "flip":
            assert all(entry in original for entry in found), (reader, how, damaged)
