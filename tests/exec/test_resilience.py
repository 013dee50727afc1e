"""Chaos suite: the engine self-heals under deterministic injected faults.

The central contract: a run that hits (transient) injected faults must
recover to results *byte-identical* to a fault-free run — retries,
pool rebuilds, serial fallback and cache quarantine are observability
events, never measurement events.
"""

import json
import os
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.config import CNTCacheConfig
from repro.exec import (
    EngineError,
    ExecEngine,
    ExecResult,
    JobFailure,
    PermanentJobFailure,
    ResilienceConfig,
    ResultError,
    TransientJobFailure,
    trace_job,
    workload_job,
)
from repro.exec import backends
from repro.exec import job as job_module
from repro.exec.backends import trace_chunks
from repro.exec.worker import execute_chunk
from repro.faults import FaultError, FaultInjected, FaultPlan
from repro.obs import Obs, read_manifest
from repro.resilience import (
    FailureRecord,
    backoff_delay,
    classify_transient,
    failure_for,
)
from repro.schemas import EXEC

CONFIG = CNTCacheConfig()

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


def reference_canonicals(jobs):
    """Fault-free canonical strings, resolved by a pristine engine."""
    return [r.canonical() for r in ExecEngine().run_jobs(jobs)]


# ------------------------------------------------------------------ #
# the fault plan itself
# ------------------------------------------------------------------ #
class TestFaultPlan:
    def test_parse_describe_round_trip(self):
        plan = FaultPlan.parse("seed=7,crash=0.2,corrupt=0.1")
        assert plan.seed == 7
        assert plan.crash == 0.2
        assert plan.corrupt == 0.1
        assert FaultPlan.parse(plan.describe()) == plan
        sticky = FaultPlan(seed=3, hang=0.5, hang_s=1.5, fires=4)
        assert FaultPlan.parse(sticky.describe()) == sticky

    def test_bad_specs_raise(self):
        with pytest.raises(FaultError):
            FaultPlan.parse("crash=maybe")
        with pytest.raises(FaultError):
            FaultPlan.parse("unknown_site=0.5")
        with pytest.raises(FaultError):
            FaultPlan(crash=1.5)
        with pytest.raises(FaultError):
            FaultPlan(fires=0)

    def test_fires_at_is_deterministic_and_rate_bounded(self):
        plan = FaultPlan(seed=11, crash=0.5)
        verdicts = [plan.fires_at("crash", f"job-{i}") for i in range(200)]
        assert verdicts == [
            plan.fires_at("crash", f"job-{i}") for i in range(200)
        ]
        assert 40 < sum(verdicts) < 160  # ~50% of 200, loosely
        assert not any(
            FaultPlan(seed=11).fires_at("crash", f"job-{i}")
            for i in range(200)
        )

    def test_fires_expire_after_the_configured_attempts(self):
        plan = FaultPlan(seed=1, crash=1.0, fires=2)
        assert plan.fires_at("crash", "x", attempt=0)
        assert plan.fires_at("crash", "x", attempt=1)
        assert not plan.fires_at("crash", "x", attempt=2)
        with pytest.raises(FaultError):
            plan.fires_at("meteor", "x")

    def test_install_uninstall_and_env_resolution(self, monkeypatch):
        assert faults.active() is None
        with faults.injected("seed=5,crash=1.0") as plan:
            assert faults.active() is plan
        assert faults.active() is None
        monkeypatch.setenv(faults.ENV_VAR, "seed=9,corrupt=0.5")
        faults.uninstall()  # force lazy re-resolution from the environment
        assert faults.active() == FaultPlan(seed=9, corrupt=0.5)

    def test_main_process_crash_raises_instead_of_exiting(self):
        with faults.injected("seed=1,crash=1.0"):
            with pytest.raises(FaultInjected):
                faults.on_job_start("any-key", attempt=0)
            faults.on_job_start("any-key", attempt=1)  # fault expired


# ------------------------------------------------------------------ #
# taxonomy / policy primitives
# ------------------------------------------------------------------ #
class TestTaxonomy:
    def test_transient_vs_permanent_classification(self):
        for error in (
            TimeoutError("slow"),
            OSError("pipe"),
            EOFError(),
            FaultInjected("chaos"),
        ):
            assert classify_transient(error)
        for error in (ValueError("bad"), KeyError("x"), RuntimeError("no")):
            assert not classify_transient(error)

    def test_failure_for_picks_the_taxonomy_subclass(self):
        job = cheap_jobs(1)[0]
        transient = FailureRecord.from_error(job, OSError("pipe"), 3)
        permanent = FailureRecord.from_error(job, ValueError("bad"), 1)
        assert isinstance(failure_for(transient), TransientJobFailure)
        assert isinstance(failure_for(permanent), PermanentJobFailure)
        assert failure_for(transient).record is transient
        assert job.label in str(failure_for(permanent))
        assert permanent.to_dict()["attempts"] == 1

    def test_backoff_is_deterministic_exponential_and_capped(self):
        config = ResilienceConfig(
            backoff_base_s=0.1, backoff_max_s=0.5, backoff_jitter=0.25
        )
        first = backoff_delay(config, "fp", 1)
        assert first == backoff_delay(config, "fp", 1)
        assert 0.1 <= first <= 0.1 * 1.25
        assert backoff_delay(config, "fp", 2) > first * 1.5
        assert backoff_delay(config, "fp", 10) <= 0.5 * 1.25
        assert backoff_delay(config, "fp", 0) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff_jitter=2.0)
        with pytest.raises(ValueError):
            ResilienceConfig(job_timeout_s=0.0)
        with pytest.raises(EngineError):
            ExecEngine(resilience="retry hard")

    def test_failed_results_are_not_serializable(self):
        job = cheap_jobs(1)[0]
        record = FailureRecord.from_error(job, OSError("pipe"), 1)
        placeholder = ExecResult.failed(job, record)
        assert not placeholder.ok
        assert placeholder.source == "failed"
        with pytest.raises(ResultError, match="not serializable"):
            placeholder.payload()


# ------------------------------------------------------------------ #
# serial retries
# ------------------------------------------------------------------ #
class TestSerialRetries:
    def test_transient_faults_heal_to_byte_identical_results(self):
        jobs = cheap_jobs(4)
        reference = reference_canonicals(jobs)
        with faults.injected("seed=2,crash=1.0"):  # fires once, everywhere
            engine = ExecEngine(resilience=FAST)
            results = engine.run_jobs(jobs)
        assert [r.canonical() for r in results] == reference
        assert all(r.ok for r in results)
        assert engine.counters.retries == len(jobs)
        assert engine.counters.failures == 0
        assert "retried" in engine.summary()

    def test_fail_fast_raises_transient_job_failure_when_sticky(self):
        job = cheap_jobs(1)[0]
        with faults.injected("seed=2,crash=1.0,fires=99"):
            engine = ExecEngine(resilience=FAST)
            with pytest.raises(TransientJobFailure) as excinfo:
                engine.run_job(job)
        record = excinfo.value.record
        assert record.fingerprint == job.fingerprint
        assert record.error == "FaultInjected"
        assert record.transient
        assert record.attempts == FAST.max_retries + 1

    def test_permanent_errors_never_retry(self, monkeypatch):
        # Serial execution lives in the backend module now; patch the
        # name it actually calls.
        import repro.exec.backends as backends_module

        def explode(job, attempt=0):
            raise ValueError("simulator invariant broken")

        monkeypatch.setattr(backends_module, "execute_job", explode)
        engine = ExecEngine(resilience=FAST)
        with pytest.raises(PermanentJobFailure):
            engine.run_job(cheap_jobs(1)[0])
        assert engine.counters.retries == 0
        assert engine.counters.failures == 1


# ------------------------------------------------------------------ #
# keep-going batches
# ------------------------------------------------------------------ #
class TestKeepGoing:
    def test_failure_records_align_with_input_order(self):
        jobs = cheap_jobs(5)
        # Fingerprints hash the source tree, so no fixed seed gives a mix
        # of doomed and healthy jobs for every revision: take the first
        # that does.  Sticky (fires=99): no healing.
        for seed in range(100):
            plan = FaultPlan(seed=seed, crash=0.5, fires=99)
            doomed = [
                job.label
                for job in jobs
                if plan.fires_at("crash", job.fingerprint)
            ]
            if 0 < len(doomed) < len(jobs):
                break
        assert 0 < len(doomed) < len(jobs)
        keep = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        with faults.injected(plan):
            engine = ExecEngine(resilience=keep)
            results = engine.run_jobs(jobs)
        assert [r.job.label for r in results] == [j.label for j in jobs]
        assert [r.job.label for r in results if not r.ok] == doomed
        assert [record.label for record in engine.failures] == doomed
        for result in results:
            if result.ok:
                assert result.failure is None
            else:
                assert result.failure.label == result.job.label
                assert result.failure.transient
        assert engine.counters.failures == len(doomed)

    def test_failed_placeholders_are_not_memoized(self):
        jobs = cheap_jobs(2)
        keep = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(resilience=keep)
        with faults.injected("seed=1,crash=1.0,fires=99"):
            first = engine.run_jobs(jobs)
        assert not any(r.ok for r in first)
        # The faults are gone; the same engine must get a fresh shot.
        second = engine.run_jobs(jobs)
        assert all(r.ok for r in second)
        assert [r.canonical() for r in second] == reference_canonicals(jobs)


# ------------------------------------------------------------------ #
# all-failed observability (no divide-by-zero anywhere)
# ------------------------------------------------------------------ #
class TestAllFailedSummaries:
    def test_summaries_and_profile_render_survive_all_failed(self, tmp_path):
        jobs = cheap_jobs(3)
        keep = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        manifest = tmp_path / "run.jsonl"
        obs = Obs(manifest=manifest)
        engine = ExecEngine(resilience=keep, obs=obs)
        with faults.injected("seed=1,crash=1.0,fires=99"):
            results = engine.run_jobs(jobs)
        assert not any(r.ok for r in results)
        obs.record_summary(engine.counters.to_dict(), wall_s=0.0)
        obs.close()

        summary = obs.summary()
        assert summary.jobs == 0
        assert summary.failures == len(jobs)
        assert summary.cache_hit_rate == 0.0
        assert summary.accesses_per_s == 0.0
        assert summary.to_dict()["failed"][0]["error"] == "FaultInjected"

        entries = read_manifest(manifest)
        assert [e.get("event") for e in entries].count("fail") == len(jobs)

        from repro.obs.profile import ProfileReport

        report = ProfileReport(
            experiments=[],
            size="tiny",
            seed=3,
            jobs=1,
            wall_s=0.0,
            summary=summary,
            engine=engine.counters.to_dict(),
        )
        rendered = report.render()
        assert "failures (3 total)" in rendered
        assert "FaultInjected" in rendered


# ------------------------------------------------------------------ #
# cache corruption, write failures, tmp hygiene
# ------------------------------------------------------------------ #
class TestCacheFaults:
    def test_truncated_cache_entry_is_quarantined_then_healed(self, tmp_path):
        job = workload_job(CONFIG, "records", "tiny", 3)
        with faults.injected("seed=1,corrupt=1.0"):
            warm = ExecEngine(cache_dir=tmp_path, resilience=FAST).run_job(job)
        path = tmp_path / job.fingerprint[:2] / f"{job.fingerprint}.json"
        with pytest.raises(ValueError):
            json.loads(path.read_text())  # really truncated on disk

        healer = ExecEngine(cache_dir=tmp_path, resilience=FAST)
        healed = healer.run_job(job)
        assert healed.source == "run"
        assert healed.canonical() == warm.canonical()
        assert healer.counters.cache_corrupt == 1
        assert path.with_suffix(".corrupt").is_file()
        assert "corrupt cache entr" in healer.summary()

        third = ExecEngine(cache_dir=tmp_path, resilience=FAST)
        assert third.run_job(job).source == "cache"
        assert third.counters.cache_corrupt == 0

    @pytest.mark.parametrize(
        "content, corrupt",
        [
            ("null", 1),
            ("[]", 1),
            ('"x"', 1),
            ("1", 1),
            ("{}", 1),
            ('{"schema": "%s", "payload": NaN}' % EXEC.tag, 1),
            ('{"schema": "exec-v0"}', 0),  # foreign: a plain miss
        ],
    )
    def test_bad_cache_entries_miss_and_heal(self, tmp_path, content, corrupt):
        job = cheap_jobs(1)[0]
        warm = ExecEngine(cache_dir=tmp_path).run_job(job)
        path = tmp_path / job.fingerprint[:2] / f"{job.fingerprint}.json"
        path.write_text(content)
        healer = ExecEngine(cache_dir=tmp_path, resilience=FAST)
        healed = healer.run_job(job)
        assert healed.source == "run"
        assert healed.canonical() == warm.canonical()
        assert healer.counters.cache_corrupt == corrupt
        assert len(list(tmp_path.glob("*/*.corrupt"))) == corrupt
        assert ExecEngine(cache_dir=tmp_path).run_job(job).source == "cache"

    def test_cache_write_oserror_is_tolerated_and_leaves_no_tmp(self, tmp_path):
        job = workload_job(CONFIG, "records", "tiny", 3)
        with faults.injected("seed=1,write_os=1.0"):
            engine = ExecEngine(cache_dir=tmp_path, resilience=FAST)
            result = engine.run_job(job)
        assert result.ok
        assert engine.counters.cache_write_errors == 1
        assert list(tmp_path.rglob("*.tmp.*")) == []
        assert list(tmp_path.rglob("*.json")) == []

    def test_stale_tmps_are_swept_on_startup_young_ones_kept(self, tmp_path):
        from repro.exec.store import STALE_TMP_TTL_S

        bucket = tmp_path / "ab"
        bucket.mkdir(parents=True)
        stale = bucket / "deadbeef.tmp.123"
        stale.write_text("{half a docum")
        old = time.time() - (STALE_TMP_TTL_S + 600)
        os.utime(stale, (old, old))
        young = bucket / "cafef00d.tmp.456"
        young.write_text("{still being writ")

        engine = ExecEngine(cache_dir=tmp_path)
        assert not stale.exists()
        assert young.exists()
        assert engine.counters.tmp_swept == 1


# ------------------------------------------------------------------ #
# pool resilience: crashes, hangs, rebuild, serial fallback
# ------------------------------------------------------------------ #
class TestPoolResilience:
    def test_worker_crashes_rebuild_the_pool_and_heal(self, monkeypatch):
        jobs = cheap_jobs(4)
        reference = reference_canonicals(jobs)
        monkeypatch.setenv(faults.ENV_VAR, "seed=3,crash=1.0")
        faults.uninstall()  # both parent and (forked) workers re-resolve
        engine = ExecEngine(jobs=2, resilience=FAST)
        results = engine.run_jobs(jobs)
        assert [r.canonical() for r in results] == reference
        assert engine.counters.retries > 0
        assert engine.counters.rebuilds + engine.counters.serial_fallbacks >= 1

    def test_hung_workers_time_out_and_fall_back(self, monkeypatch):
        jobs = cheap_jobs(3)
        reference = reference_canonicals(jobs)
        monkeypatch.setenv(faults.ENV_VAR, "seed=3,hang=1.0,hang_s=5.0")
        faults.uninstall()
        config = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, job_timeout_s=0.75
        )
        engine = ExecEngine(jobs=2, resilience=config)
        started = time.perf_counter()
        results = engine.run_jobs(jobs)
        elapsed = time.perf_counter() - started
        assert [r.canonical() for r in results] == reference
        assert engine.counters.timeouts >= 1
        # Recovery must abandon the sleepers, not wait out every 5s nap.
        assert elapsed < 4 * 5.0

    def test_no_worker_outlives_a_batch_that_timed_out(self, monkeypatch):
        import multiprocessing

        monkeypatch.setenv(faults.ENV_VAR, "seed=3,hang=1.0,hang_s=5.0")
        faults.uninstall()
        config = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, job_timeout_s=0.75
        )
        before = set(multiprocessing.active_children())
        ExecEngine(jobs=2, resilience=config).run_jobs(cheap_jobs(3))
        # The hung workers were killed and joined, not left to sleep on.
        assert set(multiprocessing.active_children()) - before == set()


# ------------------------------------------------------------------ #
# blast radius of a fault inside a trace-affine chunk
# ------------------------------------------------------------------ #
def chunked_jobs():
    """Two traces of three jobs each: two first-round chunks of three."""
    return [
        workload_job(CONFIG.variant(scheme=scheme), name, "tiny", 3)
        for name in ("records", "crc32")
        for scheme in ("baseline", "cnt", "dbi")
    ]


def one_doomed_job(jobs, site, skip=(), **knobs):
    """The first seed whose ``site`` fault fires on exactly one job, not
    one of ``skip``: the plan and that job (fingerprints hash the source
    tree, so no fixed seed works for every revision)."""
    for seed in range(200):
        candidate = FaultPlan(seed=seed, **{site: 0.2}, **knobs)
        doomed = [
            job for job in jobs if candidate.fires_at(site, job.fingerprint)
        ]
        if len(doomed) == 1 and doomed[0] not in skip:
            return candidate, doomed[0]
    raise AssertionError(f"no seed dooms exactly one job at {site}")


class TestChunkBlastRadius:
    def test_a_job_error_does_not_stop_its_chunk(self):
        jobs = chunked_jobs()
        reference = reference_canonicals(jobs)
        plan, doomed = one_doomed_job(jobs, "crash")
        with faults.injected(plan):  # in-process: raises FaultInjected
            outcomes = list(execute_chunk(jobs, [0] * len(jobs)))
        for job, outcome, expected in zip(jobs, outcomes, reference):
            if job == doomed:
                assert isinstance(outcome, FaultInjected)
            else:
                result = ExecResult.from_payload(job, outcome, "run")
                assert result.canonical() == expected

    def test_a_sticky_crash_fails_only_its_own_job(self, monkeypatch):
        jobs = chunked_jobs()
        reference = reference_canonicals(jobs)
        plan, doomed = one_doomed_job(jobs, "crash", fires=99)
        (chunk,) = [c for c in trace_chunks(jobs, 2) if doomed in c]
        assert len(chunk) > 1
        monkeypatch.setenv(faults.ENV_VAR, plan.describe())
        faults.uninstall()  # both parent and (forked) workers re-resolve
        keep = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, keep_going=True
        )
        engine = ExecEngine(jobs=2, resilience=keep)
        results = engine.run_jobs(jobs)
        assert [r.job.label for r in results if not r.ok] == [doomed.label]
        assert [record.label for record in engine.failures] == [doomed.label]
        for result, expected in zip(results, reference):
            if result.job != doomed:
                assert result.canonical() == expected

    def test_a_crash_charges_only_the_job_it_hit(self, monkeypatch, tmp_path):
        jobs = chunked_jobs()
        reference = reference_canonicals(jobs)
        fronts = [chunk[0] for chunk in trace_chunks(jobs, 2)]
        # A job behind others in its chunk: they finished before it crashed.
        plan, doomed = one_doomed_job(jobs, "crash", skip=fronts)
        starts = tmp_path / "starts"
        start_job = faults.on_job_start

        def counted_start(key, attempt=0):
            # One append, before the hook may crash the worker it runs in.
            with open(starts, "a", encoding="utf-8") as log:
                log.write(f"{key}\n")
            start_job(key, attempt)

        monkeypatch.setattr(faults, "on_job_start", counted_start)
        with faults.injected(plan):
            engine = ExecEngine(jobs=2, resilience=FAST)
            results = engine.run_jobs(jobs)
        assert [r.canonical() for r in results] == reference
        ran = Counter(starts.read_text(encoding="utf-8").split())
        assert ran == Counter(
            {job.fingerprint: 1 + (job == doomed) for job in jobs}
        )
        assert engine.counters.retries == 1

    def test_a_hung_job_times_out_alone_and_heals(self, monkeypatch):
        jobs = chunked_jobs()
        reference = reference_canonicals(jobs)
        plan, hung = one_doomed_job(jobs, "hang", hang_s=5.0)
        (chunk,) = [c for c in trace_chunks(jobs, 2) if hung in c]
        monkeypatch.setenv(faults.ENV_VAR, plan.describe())
        faults.uninstall()
        config = ResilienceConfig(
            backoff_base_s=0.0, backoff_jitter=0.0, job_timeout_s=0.5
        )
        engine = ExecEngine(jobs=2, resilience=config)
        results = engine.run_jobs(jobs)  # deadline: 0.5 s per job < 5 s
        assert [r.canonical() for r in results] == reference
        # Only the hung job passed its deadline, so only it was charged.
        assert len(chunk) > 1
        assert engine.counters.timeouts == 1
        assert engine.counters.rebuilds == 1


# ------------------------------------------------------------------ #
# manifest poisoning
# ------------------------------------------------------------------ #
class TestManifestPoison:
    def test_poisoned_manifest_skips_cleanly_in_skip_mode(self, tmp_path):
        from repro.obs import probe

        jobs = cheap_jobs(2)
        manifest = tmp_path / "run.jsonl"
        with faults.injected("seed=1,poison=1.0"):
            obs = Obs(manifest=manifest)
            engine = ExecEngine(obs=obs, resilience=FAST)
            engine.run_jobs(jobs)
            obs.record_summary(engine.counters.to_dict(), wall_s=0.0)
            obs.close()
        with probe.recording(probe.ObsScope()) as scope:
            entries = read_manifest(manifest)
        types = [entry.get("event", entry["type"]) for entry in entries]
        assert types[0] == "hello"
        assert types.count("run") == len(jobs)
        assert types.count("summary") == 1
        # One poison line precedes every frame.
        assert scope.counters["obs.torn_lines"] == len(entries)


# ------------------------------------------------------------------ #
# hypothesis chaos schedules
# ------------------------------------------------------------------ #
class TestChaosSchedules:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        crash=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        corrupt=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_transient_schedules_always_heal_byte_identical(
        self, tmp_path_factory, seed, crash, corrupt
    ):
        jobs = cheap_jobs(3)
        reference = reference_canonicals(jobs)
        cache_dir = tmp_path_factory.mktemp("chaos")
        plan = FaultPlan(seed=seed, crash=crash, corrupt=corrupt)
        with faults.injected(plan):
            engine = ExecEngine(cache_dir=cache_dir, resilience=FAST)
            results = engine.run_jobs(jobs)
        assert [r.canonical() for r in results] == reference
        expected_retries = sum(
            plan.fires_at("crash", job.fingerprint) for job in jobs
        )
        assert engine.counters.retries == expected_retries
        # Whatever was corrupted on write quarantines and heals on reread.
        second = ExecEngine(cache_dir=cache_dir, resilience=FAST)
        again = second.run_jobs(jobs)
        assert [r.canonical() for r in again] == reference
        assert list(cache_dir.rglob("*.tmp.*")) == []


# ------------------------------------------------------------------ #
# the retry budget: one attempt count per job, on every local path
# ------------------------------------------------------------------ #
#: The simulator-source hash the budget examples were written at.  A
#: fault plan picks its jobs by fingerprint, and fingerprints hash the
#: simulator sources, so pinning it keeps the examples' schedules fixed.
BUDGET_CODE = "12b6e85ba6a0d210bdefa2f977321ffcb2a47c97e6d7b5608bb4be786dd3fc18"


class TestRetryBudget:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fires=st.sampled_from([1, 2]),
        max_retries=st.sampled_from([0, 1, 2]),
        # 4 workers outnumber the cores of a 2-core host: outcomes race
        # with crashes there too.
        jobs=st.sampled_from([1, 2, 4]),
        rebuilds=st.sampled_from([0, 1]),
    )
    # A crashed pool falls back to serial: two of the six jobs crash.
    @example(seed=3, fires=1, max_retries=1, jobs=2, rebuilds=0)
    @example(seed=3, fires=2, max_retries=1, jobs=2, rebuilds=0)
    def test_a_job_never_outruns_its_retry_budget(
        self, tmp_path_factory, seed, fires, max_retries, jobs, rebuilds
    ):
        batch = cheap_jobs(6)
        starts = tmp_path_factory.mktemp("budget") / "starts"
        start_job = faults.on_job_start

        def counted_start(key, attempt=0):
            # One append, before the hook may crash the worker it runs in.
            fd = os.open(starts, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{key}\n".encode())
            finally:
                os.close(fd)
            start_job(key, attempt)

        events = []
        policy = ResilienceConfig(
            backoff_base_s=0.0,
            backoff_jitter=0.0,
            max_retries=max_retries,
            keep_going=True,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(job_module, "code_fingerprint", lambda: BUDGET_CODE)
            reference = reference_canonicals(batch)
            patch.setattr(backends, "POOL_REBUILDS", rebuilds)
            patch.setattr(faults, "on_job_start", counted_start)
            with faults.injected(FaultPlan(seed=seed, crash=0.3, fires=fires)):
                engine = ExecEngine(jobs=jobs, resilience=policy)
                emit = engine.emit
                engine.emit = lambda event: (events.append(event), emit(event))
                results = engine.run_jobs(batch)
        ran = Counter(starts.read_text(encoding="utf-8").split())
        retries = Counter(
            event.job.fingerprint for event in events if event.kind == "retry"
        )
        for job in batch:
            assert retries[job.fingerprint] <= max_retries, job.label
            # Every attempt that ran was charged, and no other.
            assert ran[job.fingerprint] == retries[job.fingerprint] + 1, job.label
        for record in engine.failures:
            assert record.attempts == ran[record.fingerprint], record.label
        if not engine.failures:
            assert [result.canonical() for result in results] == reference
