"""Distributed broker suite: chunk leases, crash reclaim, quarantine, resume.

The contract mirrors the resilience suite's: however many workers die
mid-job (SIGKILL via injected hard faults), a broker drain must converge
to results *byte-identical* to a plain local run, retire every chunk
record and lease, and account each reclaim exactly once.  Recovery is
per job inside a chunk: a job climbs its own generation ladder, and its
chunk-mates are never charged for it.
"""

import json
import threading
import time

import pytest

import repro.exec.broker as broker_module
from repro import faults, records
import repro.exec.worker as worker_module
from repro.core.config import CNTCacheConfig
from repro.exec import (
    BrokerConfig,
    BrokerError,
    ExecEngine,
    JobError,
    PermanentJobFailure,
    ResilienceConfig,
    job_from_payload,
    run_worker,
    trace_job,
    workload_job,
)
from repro.exec.backends import trace_chunks
from repro.exec.broker import (
    BROKER_SCHEMA,
    BrokerStore,
    Lease,
    _wall_now,
    chunk_id,
)
from repro.exec.events import EngineCounters
from repro.exec.worker import clear_memos
from repro.obs import Obs, probe
from repro.obs.manifest import summarize
from repro.resilience import PoisonJobError

#: Fast policy for tests: no real sleeping between attempts.
FAST = ResilienceConfig(backoff_base_s=0.0, backoff_jitter=0.0)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No plan installed and no REPRO_FAULTS inherited, before and after."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


def cheap_jobs(count=3):
    """Distinct, fast jobs (trace characterisation of tiny workloads)."""
    names = ("records", "crc32", "bitcount", "stream", "histogram")
    return [trace_job(names[i % len(names)], "tiny", 3 + i) for i in range(count)]


def chunk_jobs(name="records"):
    """Three jobs over one trace: one chunk, in trace_chunks order."""
    jobs = [
        workload_job(CNTCacheConfig(scheme=scheme), name, "tiny", 3)
        for scheme in ("baseline", "invert", "cnt")
    ]
    (chunk,) = trace_chunks(jobs, 1)
    return chunk


def watch_attempts(monkeypatch, fail=lambda job, attempt: None):
    """Record each (job, attempt) a worker starts; ``fail`` may raise."""
    calls = []
    real = worker_module.execute_job

    def watched(job, attempt=0):
        calls.append((job, attempt))
        fail(job, attempt)
        return real(job, attempt=attempt)

    monkeypatch.setattr(worker_module, "execute_job", watched)
    return calls


def reference_canonicals(jobs):
    """Fault-free canonical strings, resolved by a pristine engine."""
    return [r.canonical() for r in ExecEngine().run_jobs(jobs)]


def fast_config(tmp_path, **overrides):
    """A snappy broker for tests: tight poll, short leases, no fleet."""
    settings = dict(
        root=tmp_path / "broker",
        lease_ttl_s=1.0,
        poll_s=0.02,
        idle_timeout_s=5.0,
        spawn=False,
    )
    settings.update(overrides)
    return BrokerConfig(**settings)


def counted_store(config):
    """A store folding its events into counters the test can read."""
    counters = EngineCounters()
    return BrokerStore(config, emit=counters.apply), counters


def expire_lease(store, chunk):
    """Backdate a lease on disk, as if its worker stopped heartbeating."""
    lease = store.read_lease(chunk)
    assert lease is not None
    expired = Lease(
        chunk=lease.chunk,
        fingerprint=lease.fingerprint,
        worker=lease.worker,
        generation=lease.generation,
        deadline=_wall_now() - 10.0,
        renewals=lease.renewals,
    )
    store.lease_path(chunk).write_text(
        json.dumps(expired.to_dict()), encoding="utf-8"
    )


# ------------------------------------------------------------------ #
# configuration
# ------------------------------------------------------------------ #
class TestBrokerConfig:
    def test_layout_hangs_off_root(self, tmp_path):
        config = BrokerConfig(root=tmp_path)
        assert config.cache_dir == tmp_path / "cache"
        assert config.jobs_dir == tmp_path / "jobs"
        assert config.leases_dir == tmp_path / "leases"
        assert config.quarantine_dir == tmp_path / "quarantine"
        assert config.reclaims_dir == tmp_path / "reclaims"

    def test_heartbeat_defaults_to_a_third_of_the_ttl(self, tmp_path):
        config = BrokerConfig(root=tmp_path, lease_ttl_s=9.0)
        assert config.heartbeat_interval == pytest.approx(3.0)
        explicit = BrokerConfig(root=tmp_path, lease_ttl_s=9.0, heartbeat_s=2.0)
        assert explicit.heartbeat_interval == 2.0

    def test_generations_transfer_the_retry_budget(self, tmp_path):
        config = BrokerConfig(root=tmp_path)
        assert config.generations(ResilienceConfig(max_retries=2)) == 3
        capped = BrokerConfig(root=tmp_path, max_generations=7)
        assert capped.generations(ResilienceConfig(max_retries=2)) == 7

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lease_ttl_s": 0.0},
            {"lease_ttl_s": -1.0},
            {"poll_s": 0.0},
            {"idle_timeout_s": 0.0},
            {"heartbeat_s": 0.0},
            {"heartbeat_s": 99.0},  # >= lease_ttl_s
            {"max_generations": 0},
            {"max_generations": True},
            {"worker_respawns": -1},
            {"spawn": "yes"},
        ],
    )
    def test_invalid_settings_rejected(self, tmp_path, overrides):
        settings = dict(root=tmp_path, lease_ttl_s=30.0)
        settings.update(overrides)
        with pytest.raises(BrokerError):
            BrokerConfig(**settings)


# ------------------------------------------------------------------ #
# job payload round trip
# ------------------------------------------------------------------ #
class TestJobPayload:
    def test_describe_round_trips_through_job_from_payload(self):
        job = cheap_jobs(1)[0]
        rebuilt = job_from_payload(job.describe())
        assert rebuilt == job
        assert rebuilt.fingerprint == job.fingerprint

    def test_foreign_schema_rejected(self):
        payload = cheap_jobs(1)[0].describe()
        payload["schema"] = "exec-v999"
        with pytest.raises(JobError):
            job_from_payload(payload)

    def test_foreign_code_fingerprint_rejected(self):
        payload = cheap_jobs(1)[0].describe()
        payload["code"] = "0" * 16
        with pytest.raises(JobError):
            job_from_payload(payload)

    def test_garbage_rejected(self):
        with pytest.raises(JobError):
            job_from_payload("not a dict")
        with pytest.raises(JobError):
            job_from_payload({"schema": None})


# ------------------------------------------------------------------ #
# publish
# ------------------------------------------------------------------ #
class TestPublish:
    def test_publish_is_idempotent(self, tmp_path):
        store, counters = counted_store(fast_config(tmp_path))
        jobs = cheap_jobs(3)
        chunks = store.publish(jobs)
        assert counters.published == 3
        assert chunks == {chunk_id([job]): [job] for job in jobs}  # 3 traces
        assert store.publish(jobs) == chunks  # records already on disk
        assert counters.published == 3
        assert store.pending() == sorted(chunks)

    def test_records_are_the_trace_chunks_the_local_loop_dispatches(
        self, tmp_path
    ):
        jobs = [job for row in zip(chunk_jobs("crc32"), chunk_jobs()) for job in row]
        store = BrokerStore(fast_config(tmp_path))
        chunks = store.publish(jobs, workers=1, trace_id="t" * 32)
        assert list(chunks.values()) == trace_chunks(jobs, 1)
        for name, chunk in chunks.items():
            assert name == chunk_id(chunk)
            record = json.loads(store.job_path(name).read_text(encoding="utf-8"))
            assert record == {
                "schema": BROKER_SCHEMA,
                "jobs": [job.describe() for job in chunk],
                "trace_id": "t" * 32,
            }

    def test_a_job_an_existing_record_lists_is_not_published_again(
        self, tmp_path
    ):
        store, counters = counted_store(fast_config(tmp_path))
        jobs = chunk_jobs()
        first = store.publish(jobs)
        # A resumed coordinator whose first job is done meanwhile.
        assert store.publish(jobs[1:]) == first
        assert counters.published == 3
        assert store.pending() == list(first)

    def test_quarantined_jobs_are_not_republished(self, tmp_path):
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        store.quarantine_job(job, 3, "poison")
        assert store.publish([job]) == {}
        assert store.pending() == []

    def test_cached_jobs_are_not_republished(self, tmp_path):
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        store.cache.write(job, ExecEngine().run_jobs([job])[0])
        assert store.publish([job]) == {}

    @pytest.mark.parametrize("entry", ["foreign", "corrupt", "unreadable"])
    def test_unusable_cache_entries_are_still_published(
        self, tmp_path, monkeypatch, entry
    ):
        # Only a readable result settles a job: a cache file that reads
        # as a miss must not stop the job reaching the fleet.
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        path = store.cache.path_for(job.fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"schema": "other-v0"}' if entry == "foreign" else "{")
        if entry == "unreadable":
            real = records._load_text

            def deny(target):
                if target == path:
                    raise PermissionError(13, "Permission denied")
                return real(target)

            monkeypatch.setattr(records, "_load_text", deny)
        assert list(store.publish([job])) == [chunk_id([job])]
        assert store.pending() == [chunk_id([job])]

    @pytest.mark.parametrize("content", ["null", "[]", '"x"', "1", "{"])
    def test_bad_records_are_counted_skips(self, tmp_path, content):
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        fingerprint = job.fingerprint
        store.publish([job])
        store.job_path(chunk_id([job])).write_text(content)
        reclaim = store.config.reclaims_dir / f"{fingerprint}.2.json"
        reclaim.write_text(content)
        store.quarantine_path(fingerprint).write_text(content)
        with probe.recording(probe.ObsScope()) as scope:
            assert store.load_chunk(chunk_id([job])) is None
            assert store.consume_reclaims() == []
            assert store.quarantined() == []
        assert scope.counters == {"exec.broker_skips": 3}
        assert store.pending() == []  # the bad record is skipped for good
        assert reclaim.exists()  # left for the janitor

    def test_a_record_of_the_per_job_layout_is_a_counted_skip(self, tmp_path):
        # What the previous schema published: one record per job.
        store, counters = counted_store(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        old = {"schema": "exec-broker-v1", "fingerprint": job.fingerprint}
        old.update(label=job.label, job=job.describe())
        store.job_path(job.fingerprint).write_text(json.dumps(old), encoding="utf-8")
        with probe.recording(probe.ObsScope()) as scope:
            assert store.claim("w1") is None
            assert list(store.publish([job])) == [chunk_id([job])]
        assert scope.counters["exec.broker_skips"] == 1
        assert counters.published == 1
        assert store.pending() == [chunk_id([job])]

    def test_a_record_whose_jobs_do_not_hash_to_its_name_is_a_skip(
        self, tmp_path
    ):
        store = BrokerStore(fast_config(tmp_path))
        jobs = chunk_jobs()
        store.publish(jobs)
        path = store.job_path(chunk_id(jobs))
        record = json.loads(path.read_text(encoding="utf-8"))
        record["jobs"].reverse()
        path.write_text(json.dumps(record), encoding="utf-8")
        with probe.recording(probe.ObsScope()) as scope:
            assert store.load_chunk(chunk_id(jobs)) is None
        assert scope.counters == {"exec.broker_skips": 1}


# ------------------------------------------------------------------ #
# claim / steal / renew / advance
# ------------------------------------------------------------------ #
class TestClaim:
    def test_claim_acquires_generation_one(self, tmp_path):
        store, counters = counted_store(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        assert claim is not None
        assert claim.job == job and claim.jobs == [job]
        assert claim.lease.chunk == chunk_id([job])
        assert claim.lease.fingerprint == job.fingerprint
        assert claim.lease.generation == 1
        assert claim.lease.worker == "w1"
        assert counters.claims == 1
        assert not claim.lease.expired

    def test_live_lease_blocks_other_claimers(self, tmp_path):
        config = fast_config(tmp_path, lease_ttl_s=30.0)
        store = BrokerStore(config)
        store.publish(cheap_jobs(1))
        assert store.claim("w1") is not None
        rival = BrokerStore(config)
        assert rival.claim("w2") is None

    def test_expired_lease_is_stolen_at_the_next_generation(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        expire_lease(store, chunk_id([job]))
        rival, counters = counted_store(config)
        stolen = rival.claim("w2")
        assert stolen is not None
        assert stolen.lease.generation == claim.lease.generation + 1
        assert stolen.lease.worker == "w2"
        assert counters.reclaims == 1
        # The reclaim left durable evidence naming the lost worker.
        records = rival.consume_reclaims()
        assert len(records) == 1
        assert records[0]["lost_worker"] == "w1"
        assert records[0]["fingerprint"] == job.fingerprint
        assert records[0]["generation"] == 2
        assert rival.consume_reclaims() == []  # consumed exactly once

    def test_advance_moves_the_lease_to_the_next_job(self, tmp_path):
        config = fast_config(tmp_path)
        store, counters = counted_store(config)
        jobs = chunk_jobs()
        store.publish(jobs)
        claim = store.claim("w1")
        assert claim.jobs == jobs
        assert store.advance(claim, jobs[1])
        lease = store.read_lease(chunk_id(jobs))
        assert (lease.fingerprint, lease.generation) == (jobs[1].fingerprint, 1)
        assert claim.job == jobs[1] and claim.lease == lease
        assert counters.claims == 2  # one claim event per job
        # Once the lease is stolen, the old holder can move it no more.
        expire_lease(store, chunk_id(jobs))
        assert BrokerStore(config).claim("w2") is not None
        assert not store.advance(claim, jobs[2])
        assert store.read_lease(chunk_id(jobs)).worker == "w2"

    def test_a_stolen_chunk_reruns_from_the_job_the_lease_named(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        jobs = chunk_jobs()
        store.publish(jobs)
        claim = store.claim("w1")
        store.cache.write(jobs[0], ExecEngine().run_job(jobs[0]))
        assert store.advance(claim, jobs[1])
        expire_lease(store, chunk_id(jobs))  # w1 died on job 2
        stolen = BrokerStore(config).claim("w2")
        assert stolen.jobs == jobs[1:]
        assert stolen.job == jobs[1]
        assert stolen.lease.generation == 2
        (record,) = store.consume_reclaims()
        assert (record["fingerprint"], record["generation"]) == (
            jobs[1].fingerprint,
            2,
        )
        # The job after it never began: it starts at generation 1.
        assert store.advance(stolen, jobs[2])
        assert store.read_lease(chunk_id(jobs)).generation == 1

    def test_a_peer_create_after_the_lease_read_is_never_stolen(
        self, tmp_path, monkeypatch
    ):
        # The worker reads no lease; a peer's exclusive create lands
        # before the worker decides whether to steal.  The peer's live
        # lease must stand: no steal, no reclaim, no lost worker.
        config = fast_config(tmp_path, lease_ttl_s=30.0)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        lease_path = store.lease_path(chunk_id([job]))
        peer = BrokerStore(config)
        read = store._read

        def read_then_peer_claims(path, parse):
            found = read(path, parse)
            if path == lease_path and found is None:
                assert peer.claim("peer") is not None
            return found

        monkeypatch.setattr(store, "_read", read_then_peer_claims)
        assert store.claim("w1") is None
        assert store.read_lease(chunk_id([job])).worker == "peer"
        assert list(config.reclaims_dir.glob("*.json")) == []

    def test_torn_lease_counts_as_generation_one(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        store.lease_path(chunk_id([job])).write_text(
            "{torn garbage", encoding="utf-8"
        )
        claim = store.claim("w1")
        assert claim is not None
        assert claim.lease.generation == 2  # unknown prior -> gen 1 + 1
        assert store.consume_reclaims()[0]["lost_worker"] == "unknown"

    @pytest.mark.parametrize(
        "field, literal",
        [
            ("generation", "1e999"),
            ("generation", "Infinity"),
            ("generation", "NaN"),
            ("deadline", "NaN"),
            ("deadline", "1e999"),
            ("deadline", "-Infinity"),
            ("deadline", '"nan"'),
            ("renewals", "1.5"),
            ("chunk", "7"),
        ],
    )
    def test_non_finite_lease_is_no_live_claim(self, tmp_path, field, literal):
        store = BrokerStore(fast_config(tmp_path, lease_ttl_s=30.0))
        job = cheap_jobs(1)[0]
        chunk = chunk_id([job])
        store.publish([job])
        live = Lease(chunk, job.fingerprint, "w0", 1, _wall_now() + 30.0).to_dict()
        live[field] = "@"
        text = json.dumps(live).replace('"@"', literal)
        store.lease_path(chunk).write_text(text, encoding="utf-8")
        with probe.recording(probe.ObsScope()) as scope:
            assert store.read_lease(chunk) is None
        assert scope.counters == {"exec.broker_skips": 1}
        claim = store.claim("w1")  # no live claim: stolen at generation 2
        assert claim is not None and claim.lease.generation == 2

    def test_a_bad_file_counts_once_however_often_it_is_read(self, tmp_path):
        store = BrokerStore(fast_config(tmp_path))
        job = cheap_jobs(1)[0]
        chunk = chunk_id([job])
        store.publish([job])
        store.lease_path(chunk).write_text("{", encoding="utf-8")
        reclaim = store.config.reclaims_dir / f"{job.fingerprint}.2.json"
        reclaim.write_text("[]", encoding="utf-8")
        with probe.recording(probe.ObsScope()) as scope:
            for _ in range(3):  # three coordinator polls
                assert store.read_lease(chunk) is None
                assert store.consume_reclaims() == []
            # The claim reads the torn lease, steals it (a rename) and
            # reads it again under its private name.
            assert store.claim("w1") is not None
        assert scope.counters["exec.broker_skips"] == 2
        store.lease_path(chunk).write_text("[]", encoding="utf-8")
        with probe.recording(probe.ObsScope()) as scope:
            assert store.read_lease(chunk) is None
        assert scope.counters == {"exec.broker_skips": 1}  # a new bad file

    def test_generation_past_the_fuse_quarantines(self, tmp_path):
        config = fast_config(tmp_path, max_generations=2)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        for _ in range(2):
            claim = store.claim("w1")
            assert claim is not None
            expire_lease(store, chunk_id([job]))
        assert store.claim("w1") is None  # would be generation 3 > fuse
        records = store.quarantined()
        assert len(records) == 1
        assert records[0]["fingerprint"] == job.fingerprint
        assert records[0]["generation"] == 2
        assert store.pending() == []  # record retired: nothing left in it

    def test_a_poison_job_past_the_fuse_leaves_its_chunk_mates_claimable(
        self, tmp_path
    ):
        config = fast_config(tmp_path, max_generations=1)
        store = BrokerStore(config)
        jobs = chunk_jobs()
        store.publish(jobs)
        store.claim("w1")
        expire_lease(store, chunk_id(jobs))
        claim = store.claim("w2")  # job 1 is past the fuse
        assert [record["fingerprint"] for record in store.quarantined()] == [
            jobs[0].fingerprint
        ]
        assert claim.job == jobs[1] and claim.jobs == jobs[1:]
        assert claim.lease.generation == 1

    def test_cached_result_finishes_the_job_without_claiming(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        result = ExecEngine().run_job(job)
        store.cache.write(job, result)
        assert store.claim("w1") is None
        assert store.pending() == []  # finished elsewhere, record retired

    def test_renew_extends_and_steal_refuses_renewal(self, tmp_path):
        config = fast_config(tmp_path, lease_ttl_s=5.0)
        store, counters = counted_store(config)
        job = cheap_jobs(1)[0]
        chunk = chunk_id([job])
        store.publish([job])
        claim = store.claim("w1")
        before = store.read_lease(chunk)
        assert store.renew(claim)
        after = store.read_lease(chunk)
        assert after.renewals == before.renewals + 1
        assert after.deadline >= before.deadline
        assert counters.lease_renewals == 1
        # A stealer takes over; the original claim can no longer renew.
        expire_lease(store, chunk)
        rival = BrokerStore(config)
        assert rival.claim("w2") is not None
        assert not store.renew(claim)

    def test_fail_attempt_keeps_the_generation_ladder(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        job = cheap_jobs(1)[0]
        store.publish([job])
        claim = store.claim("w1")
        store.fail_attempt(claim)
        lease = store.read_lease(chunk_id([job]))
        assert lease.generation == 1
        assert lease.expired  # immediately stealable
        retry = store.claim("w1")
        assert retry is not None
        assert retry.lease.generation == 2


# ------------------------------------------------------------------ #
# the worker loop (in-process)
# ------------------------------------------------------------------ #
class TestRunWorker:
    def test_executes_published_jobs_into_the_shared_cache(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        jobs = cheap_jobs(3)
        store.publish(jobs)
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert stats.claimed == 3
        assert stats.executed == 3
        assert stats.failures == 0
        fresh = BrokerStore(config)
        for job in jobs:
            assert fresh.cache.read(job) is not None
        assert fresh.pending() == []
        assert list(config.leases_dir.glob("*.json")) == []

    def test_transient_faults_heal_on_the_next_generation(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        jobs = cheap_jobs(2)
        store.publish(jobs)
        with faults.injected("seed=5,crash=1.0,fires=1"):
            stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        # Every job faults once (generation 1 = attempt 0), the reclaim
        # runs it at attempt 1 where the fires=1 fault has healed.
        assert stats.executed == 2
        assert stats.failures == 2
        assert stats.reclaims == 2
        assert stats.claimed == 4
        fresh = BrokerStore(config)
        assert fresh.pending() == []
        reference = reference_canonicals(jobs)
        for job, want in zip(jobs, reference):
            assert fresh.cache.read(job).canonical() == want

    def test_permanent_errors_quarantine_immediately(self, tmp_path, monkeypatch):
        import repro.exec.worker as worker_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        store.publish(cheap_jobs(1))
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert stats.executed == 0
        assert stats.quarantined == 1
        records = BrokerStore(config).quarantined()
        assert len(records) == 1
        assert "ValueError" in records[0]["reason"]

    def test_heartbeat_renews_long_jobs(self, tmp_path, monkeypatch):
        import repro.exec.worker as worker_module

        real = worker_module.execute_job

        def slow(job, attempt=0):
            time.sleep(0.5)
            return real(job, attempt=attempt)

        monkeypatch.setattr(worker_module, "execute_job", slow)
        config = fast_config(tmp_path, lease_ttl_s=0.6, heartbeat_s=0.1)
        store = BrokerStore(config)
        store.publish(cheap_jobs(1))
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        # The job ran almost a full TTL: without heartbeats the lease
        # would have expired mid-run; renewals prove it stayed live.
        assert stats.executed == 1
        assert stats.renewals >= 2
        assert stats.reclaims == 0

    def test_stop_event_drains_gracefully(self, tmp_path):
        config = fast_config(tmp_path)
        stop = threading.Event()
        stop.set()
        stats = run_worker(config, stop=stop, resilience=FAST)
        assert stats.claimed == 0

    def test_max_jobs_bounds_the_loop(self, tmp_path):
        config = fast_config(tmp_path)
        store = BrokerStore(config)
        store.publish(cheap_jobs(3))
        stats = run_worker(config, max_jobs=1, resilience=FAST)
        assert stats.claimed == 1
        assert len(BrokerStore(config).pending()) == 2


class TestChunkRecovery:
    """Per-job recovery inside one chunk of three jobs."""

    def test_a_transient_failure_reruns_only_the_rest_of_the_chunk(
        self, tmp_path, monkeypatch
    ):
        jobs = chunk_jobs()
        reference = reference_canonicals(jobs)

        def second_fails_once(job, attempt):
            if job == jobs[1] and attempt == 0:
                raise faults.FaultInjected("transient")

        calls = watch_attempts(monkeypatch, second_fails_once)
        config = fast_config(tmp_path)
        BrokerStore(config).publish(jobs)
        stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert calls == [(jobs[0], 0), (jobs[1], 0), (jobs[1], 1), (jobs[2], 0)]
        assert (stats.executed, stats.failures, stats.reclaims) == (3, 1, 1)
        fresh = BrokerStore(config)
        assert [fresh.cache.read(job).canonical() for job in jobs] == reference
        assert fresh.pending() == []
        assert list(config.leases_dir.iterdir()) == []

    @pytest.mark.parametrize("how", ["max_jobs", "stop"])
    def test_a_graceful_stop_mid_chunk_releases_the_lease_uncharged(
        self, tmp_path, monkeypatch, how
    ):
        jobs = chunk_jobs()
        stop = threading.Event()

        def stop_after_the_first(job, attempt):
            if how == "stop" and job == jobs[0]:
                stop.set()

        calls = watch_attempts(monkeypatch, stop_after_the_first)
        config = fast_config(tmp_path)
        BrokerStore(config).publish(jobs)
        limits = {"max_jobs": 1} if how == "max_jobs" else {"stop": stop}
        stats = run_worker(config, resilience=FAST, **limits)
        assert (stats.claimed, stats.executed) == (1, 1)
        assert BrokerStore(config).pending() == [chunk_id(jobs)]
        assert list(config.leases_dir.iterdir()) == []
        assert list(config.reclaims_dir.iterdir()) == []
        # The next worker picks the chunk up at job 2, generation 1.
        again = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert (again.claimed, again.executed, again.reclaims) == (2, 2, 0)
        assert calls == [(job, 0) for job in jobs]
        assert BrokerStore(config).pending() == []


class TestOneTraceBound:
    @pytest.fixture(autouse=True)
    def cold_memos(self):
        clear_memos()
        yield
        clear_memos()

    def test_a_worker_starts_each_job_holding_only_its_trace(
        self, tmp_path, monkeypatch
    ):
        names = ("records", "crc32", "bitcount")
        by_trace = [chunk_jobs(name) for name in names]
        jobs = sorted(
            (job for chunk in by_trace for job in chunk),
            key=lambda job: job.fingerprint,
        )
        assert len({job.trace_key for job in jobs[:4]}) > 1  # interleaved
        starts = []
        real = worker_module.execute_job

        def watched(job, attempt=0):
            starts.append((job.trace_key, set(worker_module._RUNS)))
            return real(job, attempt=attempt)

        monkeypatch.setattr(worker_module, "execute_job", watched)
        config = fast_config(tmp_path)
        BrokerStore(config).publish(jobs)
        with probe.recording(probe.ObsScope()) as scope:
            stats = run_worker(config, idle_timeout_s=0.2, resilience=FAST)
        assert stats.executed == len(jobs) == len(starts)
        assert all(held <= {key} for key, held in starts)
        assert scope.counters["workload.builds"] == len(names)


# ------------------------------------------------------------------ #
# the coordinator drain (engine side)
# ------------------------------------------------------------------ #
class TestDrain:
    def run_with_background_worker(self, engine, jobs, config):
        """Drain with one in-process worker thread playing the fleet.

        The worker starts when the coordinator hands its misses to the
        broker backend, after it has read the store.  Started earlier, it
        could finish already-published jobs before that read, which the
        coordinator would then count as cache hits, not executions.
        """
        workers = []
        stop = threading.Event()
        drain = broker_module.drain

        def start_worker_then_drain(engine, pending):
            worker = threading.Thread(
                target=run_worker,
                args=(config,),
                kwargs={"idle_timeout_s": 10.0, "resilience": FAST, "stop": stop},
                daemon=True,
            )
            workers.append(worker)
            worker.start()
            drain(engine, pending)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(broker_module, "drain", start_worker_then_drain)
            try:
                results = engine.run_jobs(jobs)
            finally:
                # The drain is over: end the worker now rather than after
                # its idle timeout.
                stop.set()
                for worker in workers:
                    worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
        return results

    def test_drain_adopts_worker_results_byte_identically(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(4)
        reference = reference_canonicals(jobs)
        engine = ExecEngine(broker=config, resilience=FAST)
        results = self.run_with_background_worker(engine, jobs, config)
        assert [r.canonical() for r in results] == reference
        assert all(r.source == "broker" for r in results)
        assert engine.counters.published == 4
        assert engine.counters.executed == 4

    def test_poison_jobs_surface_as_structured_failures(
        self, tmp_path, monkeypatch
    ):
        import repro.exec.worker as worker_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        config = fast_config(tmp_path)
        jobs = cheap_jobs(2)
        keep_going = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(broker=config, resilience=keep_going)
        results = self.run_with_background_worker(engine, jobs, config)
        assert len(results) == 2
        assert all(not r.ok for r in results)
        assert engine.counters.quarantined == 2
        for record in engine.failures:
            assert record.error == "PoisonJobError"
            assert not record.transient

    def test_a_poison_job_is_quarantined_alone(self, tmp_path, monkeypatch):
        jobs = chunk_jobs()
        reference = reference_canonicals(jobs)

        def middle_always_crashes(job, attempt):
            if job == jobs[1]:
                raise faults.FaultInjected("worker crash")

        calls = watch_attempts(monkeypatch, middle_always_crashes)
        config = fast_config(tmp_path)
        keep_going = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(broker=config, resilience=keep_going)
        results = self.run_with_background_worker(engine, jobs, config)
        assert [r.canonical() for r in (results[0], results[2])] == [
            reference[0],
            reference[2],
        ]
        assert not results[1].ok
        assert engine.counters.quarantined == 1
        (record,) = BrokerStore(config).quarantined()
        assert record["fingerprint"] == jobs[1].fingerprint
        fuse = keep_going.max_retries + 1
        # The chunk-mates ran once each, at generation 1.
        assert calls == [
            (jobs[0], 0),
            *((jobs[1], attempt) for attempt in range(fuse)),
            (jobs[2], 0),
        ]
        assert BrokerStore(config).pending() == []
        assert list(config.leases_dir.iterdir()) == []

    def test_poison_jobs_raise_under_fail_fast(self, tmp_path, monkeypatch):
        import repro.exec.worker as worker_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(worker_module, "execute_job", explode)
        config = fast_config(tmp_path)
        engine = ExecEngine(broker=config, resilience=FAST)
        with pytest.raises(PermanentJobFailure):
            self.run_with_background_worker(engine, cheap_jobs(1), config)

    def test_coordinator_watchdog_quarantines_when_all_workers_die(
        self, tmp_path
    ):
        # No worker at all: the coordinator must reach the poison
        # verdict alone once a lease sits expired at the fuse.
        config = fast_config(tmp_path, max_generations=1)
        job = cheap_jobs(1)[0]
        store = BrokerStore(config)
        store.publish([job])
        claim = store.claim("doomed-worker")
        assert claim is not None
        expire_lease(store, chunk_id([job]))
        keep_going = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(broker=config, resilience=keep_going)
        results = engine.run_jobs([job])
        assert not results[0].ok
        assert engine.counters.quarantined == 1
        # Its chunk has nothing left: the coordinator retires it.
        assert store.pending() == []
        assert list(config.leases_dir.iterdir()) == []

    def test_manifest_carries_broker_events(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(2)
        obs = Obs()
        engine = ExecEngine(broker=config, resilience=FAST, obs=obs)
        self.run_with_background_worker(engine, jobs, config)
        events = [entry["event"] for entry in obs.entries]
        assert "publish" in events
        assert "drain" in events
        # Records that resolve no job must not break aggregation.
        summary = summarize(obs.entries)
        assert summary.jobs == 2

    def test_foreign_cache_entry_still_drains(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(2)
        reference = reference_canonicals(jobs)
        path = BrokerStore(config).cache.path_for(jobs[0].fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"schema": "other-v0"}', encoding="utf-8")
        engine = ExecEngine(broker=config, resilience=FAST)
        outcome = []
        coordinator = threading.Thread(
            target=lambda: outcome.append(
                self.run_with_background_worker(engine, jobs, config)
            ),
            daemon=True,
        )
        coordinator.start()
        coordinator.join(timeout=60.0)
        assert outcome, "the drain never finished"
        assert [r.canonical() for r in outcome[0]] == reference
        assert engine.counters.executed == 2

    def test_resume_executes_only_the_unfinished_remainder(self, tmp_path):
        config = fast_config(tmp_path)
        jobs = cheap_jobs(3)
        reference = reference_canonicals(jobs)
        # A first coordinator published everything, one worker finished
        # exactly one job, then both "died" (nothing left running).
        first = BrokerStore(config)
        first.publish(jobs)
        run_worker(config, max_jobs=1, resilience=FAST)
        # A fresh coordinator resumes the same broker directory: the
        # finished job is adopted from the shared cache, the remainder
        # is NOT republished (records already exist) and executes.
        engine = ExecEngine(broker=config, resilience=FAST)
        results = self.run_with_background_worker(engine, jobs, config)
        assert [r.canonical() for r in results] == reference
        assert engine.counters.cache_hits == 1
        assert engine.counters.published == 0  # republish was idempotent
        assert engine.counters.executed == 2
        assert BrokerStore(config).pending() == []

    def test_resume_counts_hold_when_the_coordinator_reads_the_store_late(
        self, tmp_path, monkeypatch
    ):
        # A slow store scan gives a worker started too early the time to
        # finish both remaining jobs first (cache_hits == 3).
        resolve = ExecEngine._resolve

        def late_resolve(engine, ordered):
            time.sleep(0.5)
            return resolve(engine, ordered)

        monkeypatch.setattr(ExecEngine, "_resolve", late_resolve)
        self.test_resume_executes_only_the_unfinished_remainder(tmp_path)


# ------------------------------------------------------------------ #
# full chaos: spawned fleet, SIGKILLed workers
# ------------------------------------------------------------------ #
class TestFleetChaos:
    def test_killed_workers_are_reclaimed_and_results_match(
        self, tmp_path, monkeypatch
    ):
        jobs = cheap_jobs(2)
        reference = reference_canonicals(jobs)
        # Every spawned worker inherits the plan and genuinely dies
        # (os._exit) on its first claim; respawned workers run the jobs
        # at generation 2 where the fires=1 fault has healed.  The
        # coordinator itself must stay fault-free.
        monkeypatch.setenv(faults.ENV_VAR, "seed=11,crash=1.0,fires=1")
        faults.uninstall()
        config = BrokerConfig(
            root=tmp_path / "broker",
            lease_ttl_s=1.0,
            poll_s=0.05,
            idle_timeout_s=20.0,
            spawn=True,
        )
        engine = ExecEngine(jobs=2, broker=config, resilience=FAST)
        results = engine.run_jobs(jobs)
        assert [r.canonical() for r in results] == reference
        assert engine.counters.reclaims >= 1
        assert engine.counters.workers_lost >= 1
        # Nothing left behind: no job records, leases, or tmp litter.
        assert list(config.jobs_dir.glob("*")) == []
        assert list(config.leases_dir.glob("*")) == []
        assert list(config.reclaims_dir.glob("*")) == []
