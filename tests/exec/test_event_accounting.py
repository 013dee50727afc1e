"""Every accounting channel tells the same story about one run.

Each job transition is one :class:`~repro.exec.events.ExecEvent`, and
the counters, probe counters and its one on-disk record (the frame that
the run manifest and the telemetry stream both write) are all read off
it.  These tests drive a serial engine, a crashing ``--jobs 2`` pool
under keep-going and an in-process broker drain, and check that the
channels agree with each other at the end of each run.
"""

import threading
from collections import Counter

import pytest

from repro import faults
from repro.exec import (
    BrokerConfig,
    ExecEngine,
    ResilienceConfig,
    run_worker,
    trace_job,
)
from repro.exec import backends
from repro.exec import job as job_module
from repro.exec.events import COUNTED, EngineCounters
from repro.obs import Obs, read_manifest
from repro.obs.names import is_registered
from repro.obs.telemetry import (
    TelemetryCollector,
    read_all_frames,
    telemetry_dir,
)

#: Fast policy for tests: no real sleeping between attempts.
FAST = ResilienceConfig(backoff_base_s=0.0, backoff_jitter=0.0)

#: The simulator-source hash the crashing-pool scenario was written at.
#: A fault plan picks its jobs by fingerprint, and fingerprints hash the
#: simulator sources, so pinning it keeps "two of six jobs crash on both
#: attempts" true across unrelated source edits.
SCENARIO_CODE = "12b6e85ba6a0d210bdefa2f977321ffcb2a47c97e6d7b5608bb4be786dd3fc18"

#: Every (counter field, probe counter) pair the fold keeps in step.
PAIRS = sorted(
    {(name, metric) for pairs in COUNTED.values() for name, metric in pairs if metric}
)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No plan installed and no REPRO_FAULTS inherited, before and after."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


def cheap_jobs(count, seed=3):
    """Distinct, fast jobs (trace characterisation of tiny workloads)."""
    names = ("records", "crc32", "bitcount", "stream", "histogram")
    return [
        trace_job(names[i % len(names)], "tiny", seed + i) for i in range(count)
    ]


def lifecycle_events(directory, role):
    """How many lifecycle frames of each event ``role`` processes streamed."""
    return Counter(
        frame["event"]
        for frame in read_all_frames(directory)
        if frame.get("type") == "lifecycle" and frame.get("role") == role
    )


#: Wall-clock and process stamps: the only fields two writers of one
#: record may disagree on.
STAMPS = ("ts", "proc", "role")


def unstamped(frames):
    """``frames``' job-transition records without their stamps."""
    return [
        {key: value for key, value in frame.items() if key not in STAMPS}
        for frame in frames
        if frame["type"] == "lifecycle" and frame["event"] != "exit"
    ]


def assert_one_record(manifest, directory):
    """The run manifest's records are the coordinator's frames."""
    coordinator = [
        frame
        for frame in read_all_frames(directory)
        if frame.get("role") == "coordinator"
    ]
    records = unstamped(read_manifest(manifest))
    assert records
    assert records == unstamped(coordinator)


def assert_channels_agree(engine, obs, directory, worker=None):
    """Counters == probes, manifest == counters, frames == counters.

    ``worker`` is the fold of a worker that ran in this process: its
    claims, renewals and steals reach the same process-wide probes.
    """
    counters = engine.counters
    fleet = EngineCounters()
    if worker is not None:
        fleet.claims = worker.claimed
        fleet.lease_renewals = worker.renewals
        fleet.reclaims = worker.reclaims
    for name, metric in PAIRS:
        expected = getattr(counters, name) + getattr(fleet, name)
        assert obs.counters.get(metric, 0) == expected, (name, metric)
    recorded = Counter(entry.get("event") for entry in obs.entries)
    assert recorded["cache_hit"] == counters.cache_hits
    assert recorded["run"] + recorded["adopt"] == counters.executed
    assert recorded["fail"] == counters.failures
    engine.close_telemetry()
    events = lifecycle_events(directory, "coordinator")
    assert events["run"] + events["adopt"] == counters.executed
    assert events["fail"] == counters.failures


def test_every_counted_probe_is_registered():
    assert PAIRS
    for name, metric in PAIRS:
        assert is_registered(metric), metric
        assert hasattr(EngineCounters(), name), name


def test_serial_engine_channels_agree(tmp_path):
    jobs = cheap_jobs(4)
    cache = tmp_path / "cache"
    ExecEngine(cache_dir=cache).run_jobs(jobs[:1])  # one cache hit
    manifest = tmp_path / "run.jsonl"
    obs = Obs(manifest=manifest)
    directory = tmp_path / "telemetry"
    engine = ExecEngine(cache_dir=cache, obs=obs, telemetry=directory)
    engine.run_jobs(jobs + jobs[:2])
    engine.run_jobs(jobs)  # every job a memo hit
    counters = engine.counters
    assert (counters.cache_hits, counters.executed, counters.memo_hits) == (1, 3, 4)
    assert_channels_agree(engine, obs, directory)
    obs.close()
    assert_one_record(manifest, directory)


def test_crashing_pool_under_keep_going_channels_agree(tmp_path, monkeypatch):
    # Two of the six jobs crash on both of their attempts and fail.  The
    # first crash breaks the pool, which falls back to serial execution
    # and retries the jobs it lost; the other four heal and run.
    monkeypatch.setattr(job_module, "code_fingerprint", lambda: SCENARIO_CODE)
    monkeypatch.setattr(backends, "POOL_REBUILDS", 0)
    monkeypatch.setenv(faults.ENV_VAR, "seed=3,crash=0.3,fires=2")
    faults.uninstall()
    policy = ResilienceConfig(
        backoff_base_s=0.0,
        backoff_jitter=0.0,
        max_retries=1,
        keep_going=True,
    )
    obs = Obs()
    directory = tmp_path / "telemetry"
    engine = ExecEngine(jobs=2, resilience=policy, obs=obs, telemetry=directory)
    results = engine.run_jobs(cheap_jobs(6))
    counters = engine.counters
    assert counters.failures == sum(1 for result in results if not result.ok)
    assert (counters.executed, counters.failures) == (4, 2)
    assert counters.retries and counters.serial_fallbacks == 1
    assert_channels_agree(engine, obs, directory)


def test_broker_drain_channels_agree(tmp_path):
    config = BrokerConfig(
        root=tmp_path / "broker",
        lease_ttl_s=1.0,
        poll_s=0.02,
        idle_timeout_s=10.0,
        spawn=False,
    )
    manifest = tmp_path / "run.jsonl"
    obs = Obs(manifest=manifest)
    engine = ExecEngine(broker=config, resilience=FAST, obs=obs)
    stop = threading.Event()
    stats = []
    worker = threading.Thread(
        target=lambda: stats.append(run_worker(config, resilience=FAST, stop=stop)),
        daemon=True,
    )
    worker.start()
    try:
        engine.run_jobs(cheap_jobs(4))
    finally:
        stop.set()
        worker.join(timeout=30.0)
    assert stats, "the worker never returned"
    counters = engine.counters
    assert (counters.published, counters.executed, counters.reclaims) == (4, 4, 0)
    assert stats[0].claimed == stats[0].executed == 4
    directory = telemetry_dir(config.root)
    assert_channels_agree(engine, obs, directory, worker=stats[0])
    assert lifecycle_events(directory, "worker")["finish"] == 4
    obs.close()
    assert_one_record(manifest, directory)
    # The fleet views count each executed job once: the worker's finish,
    # not the coordinator's adopt of it.
    collector = TelemetryCollector(directory, persist=False)
    collector.poll()
    status = collector.snapshot().to_dict()
    assert (status["jobs_done"], status["live_workers"]) == (4, 0)


class _FullDisk:
    """A stream whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass

    def close(self):
        pass


def test_a_broken_manifest_counts_every_record_it_drops(tmp_path):
    jobs = cheap_jobs(4)
    obs = Obs(manifest=tmp_path / "run.jsonl")
    engine = ExecEngine(obs=obs)
    engine.run_jobs(jobs[:2])
    writer = obs.manifest
    assert writer.dropped == 0
    written, before = writer.frames_written, len(obs.entries)
    writer._file = _FullDisk()
    engine.run_jobs(jobs)  # two memo hits (no record) and two runs
    obs.record_summary(engine.counters.to_dict(), wall_s=0.0)
    emitted = len(obs.entries) - before
    assert emitted == 3
    assert writer.dropped == emitted
    assert writer.frames_written == written
    assert obs.counters["telemetry.write_errors"] == 2  # the batch's two runs
    obs.close()
    assert len(read_manifest(tmp_path / "run.jsonl")) == written
