"""Local execution and engine dispatch, plus the store janitor.

Covers how the engine picks its path (``jobs``, ``broker``), the
broker parameter validation, result equivalence across serial and pool
execution, the pool's trace-affine chunking, the one-trace memo bound
of in-process and chunk execution, the pool's shutdown, and the
:mod:`repro.exec.store` satellites: the generalized TTL janitor and the
cache-read-error counter.
"""

import os
import time

import pytest

from repro import faults
from repro.backends.array import Recorder, substrate_key
from repro.core.config import CNTCacheConfig
from repro.exec import (
    BrokerConfig,
    EngineError,
    ExecEngine,
    audit_job,
    l2_job,
    oracle_job,
    trace_job,
    workload_job,
)
from repro.exec import backends, worker
from repro.exec.backends import trace_chunks
from repro.exec.broker import BrokerStore
from repro.exec.events import EngineCounters
from repro.exec.result import ExecResult
from repro.exec.store import (
    STALE_CORRUPT_TTL_S,
    STALE_LEASE_TTL_S,
    STALE_TMP_TTL_S,
    ResultStore,
    sweep_stale,
)
from repro.exec.worker import clear_memos, execute_chunk
from repro.obs import Obs

CONFIG = CNTCacheConfig()
SCHEMES = ("baseline", "invert", "cnt", "dbi")


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


# ------------------------------------------------------------------ #
# engine dispatch
# ------------------------------------------------------------------ #
class TestEngineDispatch:
    def test_explicit_backends_agree_with_the_default(self):
        jobs = cheap_jobs(3)
        reference = [r.canonical() for r in ExecEngine().run_jobs(jobs)]
        pool = ExecEngine(jobs=2)
        assert [r.canonical() for r in pool.run_jobs(jobs)] == reference

    def test_a_healthy_pool_is_joined_before_the_batch_returns(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        ExecEngine(jobs=2).run_jobs(cheap_jobs(3))
        assert set(multiprocessing.active_children()) - before == set()

    def test_broker_config_implies_the_broker_backend(self, tmp_path):
        engine = ExecEngine(broker=BrokerConfig(root=tmp_path))
        assert engine.broker.root == tmp_path
        assert engine.cache_dir == tmp_path / "cache"

    def test_broker_accepts_a_bare_path(self, tmp_path):
        engine = ExecEngine(broker=tmp_path / "b")
        assert engine.broker.root == tmp_path / "b"
        assert engine.cache_dir == tmp_path / "b" / "cache"

    def test_conflicting_cache_dir_rejected(self, tmp_path):
        with pytest.raises(EngineError):
            ExecEngine(
                broker=BrokerConfig(root=tmp_path / "b"),
                cache_dir=tmp_path / "elsewhere",
            )

    def test_matching_cache_dir_accepted(self, tmp_path):
        engine = ExecEngine(
            broker=BrokerConfig(root=tmp_path / "b"),
            cache_dir=tmp_path / "b" / "cache",
        )
        assert engine.cache_dir == tmp_path / "b" / "cache"


# ------------------------------------------------------------------ #
# trace-affine pool dispatch
# ------------------------------------------------------------------ #
def scheme_jobs(name, seed=3, **geometry):
    """One workload job per scheme over one trace."""
    return [
        workload_job(CONFIG.variant(scheme=scheme, **geometry), name, "tiny", seed)
        for scheme in SCHEMES
    ]


def probed_run(jobs, workers):
    """Resolve ``jobs`` on empty memos: canonicals plus the probe counters
    summed over every process (forked workers inherit this one's memos)."""
    clear_memos()
    obs = Obs()
    try:
        results = ExecEngine(jobs=workers, obs=obs).run_jobs(jobs)
    finally:
        clear_memos()
    return [result.canonical() for result in results], obs.counters


class TestTraceChunks:
    def test_groups_by_trace_in_plan_order_longest_first(self):
        records = scheme_jobs("records")
        crc = scheme_jobs("crc32")[:2]
        interleaved = [records[0], crc[0], records[1], crc[1], *records[2:]]
        assert trace_chunks(interleaved, 1) == [records, crc]

    def test_a_group_longer_than_its_share_is_cut_for_every_worker(self):
        jobs = scheme_jobs("records") + scheme_jobs("records", seed=4)[:1]
        chunks = trace_chunks(jobs, 2)  # share: ceil(5 / 2) = 3
        assert chunks == [jobs[:3], jobs[3:4], jobs[4:]]
        assert trace_chunks(jobs, 8) == [[job] for job in jobs]


class TestTraceAffinity:
    def test_the_pool_builds_each_trace_and_records_like_serial(self):
        # Interleaved over two traces, with two geometries per trace.
        jobs = [
            job
            for pair in zip(
                scheme_jobs("records") + scheme_jobs("records", size=8192),
                scheme_jobs("crc32") + scheme_jobs("crc32", size=8192),
            )
            for job in pair
        ]
        jobs += [
            oracle_job(CONFIG, "crc32", "tiny", 3),
            trace_job("records", "tiny", 3),
        ]
        serial, serial_counters = probed_run(jobs, 1)
        pool, pool_counters = probed_run(jobs, 2)
        assert pool == serial
        assert pool_counters["workload.builds"] == 2
        # The oracle job comes back to its trace's first geometry, yet
        # each (trace, geometry) pair records once.
        pairs = {
            (job.workload, job.size, job.seed, substrate_key(job.config))
            for job in jobs
            if job.config is not None
        }
        assert len(pairs) == 4
        assert serial_counters["workload.substrate_records"] == len(pairs)
        assert (
            pool_counters["workload.substrate_records"]
            == serial_counters["workload.substrate_records"]
        )

    def test_an_audit_job_folds_the_substrate_its_group_recorded(
        self, monkeypatch
    ):
        recordings = []
        record = Recorder.record

        def counted(recorder, trace):
            recordings.append(recorder)
            return record(recorder, trace)

        monkeypatch.setattr(Recorder, "record", counted)
        jobs = [
            workload_job(CONFIG, "crc32", "tiny", 3),
            audit_job(CONFIG, "crc32", "tiny", 3),
        ]
        clear_memos()
        try:
            audit = ExecEngine().run_jobs(jobs)[1]
        finally:
            clear_memos()
        assert len(recordings) == 1
        assert audit.values["decisions"] > 0

    def test_a_single_trace_batch_splits_over_both_workers(self):
        jobs = scheme_jobs("records")
        serial, _ = probed_run(jobs, 1)
        pool, counters = probed_run(jobs, 2)
        assert pool == serial
        assert counters["workload.builds"] == 2


# ------------------------------------------------------------------ #
# the one-trace memo bound
# ------------------------------------------------------------------ #
TRACES = ("records", "crc32", "bitcount")


def three_trace_jobs():
    """Every memo-filling kind over three traces, interleaved job by job."""
    groups = [
        scheme_jobs(name)[:2]
        + [
            oracle_job(CONFIG, name, "tiny", 3),
            l2_job(CONFIG, name, "tiny", 3),
            trace_job(name, "tiny", 3),
        ]
        for name in TRACES
    ]
    return [job for row in zip(*groups) for job in row]


def watch_memos(monkeypatch, module, name):
    """Record, as each job starts, its trace and the traces memoized."""
    starts = []
    original = getattr(module, name)

    def watched(job, attempt=0):
        starts.append((job.trace_key, set(worker._RUNS)))
        return original(job, attempt)

    monkeypatch.setattr(module, name, watched)
    return starts


class TestOneTraceBound:
    @pytest.fixture(autouse=True)
    def cold_memos(self):
        clear_memos()
        yield
        clear_memos()

    def test_a_serial_batch_holds_one_trace(self, monkeypatch):
        jobs = three_trace_jobs()
        worker.build_run("stream", "tiny", 3)  # left over from a last batch
        starts = watch_memos(monkeypatch, backends, "execute_job")
        ExecEngine().run_jobs(jobs)
        assert len(starts) == len(jobs)
        assert all(held <= {key} for key, held in starts)
        assert set(worker._RUNS) == {starts[-1][0]}

    def test_a_direct_chunk_call_holds_one_trace(self, monkeypatch):
        jobs = three_trace_jobs()
        serial = [result.canonical() for result in ExecEngine().run_jobs(jobs)]
        starts = watch_memos(monkeypatch, worker, "execute_payload")
        outcomes = list(execute_chunk(jobs, [0] * len(jobs)))
        assert len(starts) == len(jobs)
        assert all(held <= {key} for key, held in starts)
        assert [
            ExecResult.from_payload(job, outcome, "run").canonical()
            for job, outcome in zip(jobs, outcomes)
        ] == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_trace_builds_once_per_batch(self, workers):
        _, counters = probed_run(three_trace_jobs(), workers)
        assert counters["workload.builds"] == len(TRACES)

    def test_a_released_trace_is_rebuilt_with_identical_results(self):
        jobs = three_trace_jobs()
        obs = Obs()
        first = ExecEngine(obs=obs).run_jobs(jobs)
        assert obs.counters["workload.builds"] == len(TRACES)
        (held,) = worker._RUNS
        released = [job for job in jobs if job.trace_key != held][0].trace_key
        again = [job for job in jobs if job.trace_key == released]
        obs = Obs()
        second = ExecEngine(obs=obs).run_jobs(again)
        assert obs.counters["workload.builds"] == 1
        by_job = dict(zip(jobs, first))
        assert [result.canonical() for result in second] == [
            by_job[job].canonical() for job in again
        ]


# ------------------------------------------------------------------ #
# the cache janitor (store satellites)
# ------------------------------------------------------------------ #
def age(path, seconds):
    """Backdate a file's mtime, as if it had been left behind long ago."""
    past = time.time() - seconds
    os.utime(path, (past, past))


class TestJanitor:
    def test_sweep_stale_is_ttl_gated(self, tmp_path):
        fresh = tmp_path / "fresh.tmp.1"
        stale = tmp_path / "stale.tmp.2"
        fresh.write_text("x")
        stale.write_text("x")
        age(stale, 7200)
        assert sweep_stale(tmp_path, "*.tmp.*", 3600.0) == 1
        assert fresh.exists()
        assert not stale.exists()

    def test_sweep_stale_on_a_missing_directory_is_zero(self, tmp_path):
        assert sweep_stale(tmp_path / "nope", "*", 1.0) == 0

    def test_engine_init_sweeps_stale_litter_classes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        shard = cache_dir / "ab"
        shard.mkdir(parents=True)
        stale_tmp = shard / "deadbeef.json.tmp.99"
        stale_corrupt = shard / "cafebabe.json.corrupt"
        stale_tmp.write_text("{")
        stale_corrupt.write_text("{")
        age(stale_tmp, STALE_TMP_TTL_S + 60)
        age(stale_corrupt, STALE_CORRUPT_TTL_S + 60)
        engine = ExecEngine(cache_dir=cache_dir)
        assert not stale_tmp.exists()
        assert not stale_corrupt.exists()
        assert engine.counters.tmp_swept == 1
        assert engine.counters.corrupt_swept == 1

    def test_fresh_quarantine_files_survive_the_sweep(self, tmp_path):
        cache_dir = tmp_path / "cache"
        shard = cache_dir / "ab"
        shard.mkdir(parents=True)
        fresh_corrupt = shard / "cafebabe.json.corrupt"
        fresh_corrupt.write_text("{")
        engine = ExecEngine(cache_dir=cache_dir)
        assert fresh_corrupt.exists()  # evidence kept until the TTL
        assert engine.counters.corrupt_swept == 0


    @pytest.mark.parametrize(
        "subdir, name",
        [
            ("jobs", "ab.json.tmp.7.8"),
            ("leases", "ab.json.tmp.7.8"),
            ("quarantine", "ab.json.tmp.7.8"),
            ("reclaims", "ab.2.json.tmp.7.8"),
            ("telemetry", ".collector-state.json.tmp.7.8"),
        ],
    )
    def test_broker_sweep_reaps_orphaned_tmps(self, tmp_path, subdir, name):
        counters = EngineCounters()
        store = BrokerStore(BrokerConfig(root=tmp_path), emit=counters.apply)
        (tmp_path / subdir).mkdir(exist_ok=True)
        stale = tmp_path / subdir / name
        fresh = stale.with_name(name.replace(".7.8", ".9.9"))
        stale.write_text("{")
        fresh.write_text("{")
        age(stale, STALE_LEASE_TTL_S + 60)
        store.sweep()
        assert not stale.exists()
        assert fresh.exists()
        assert counters.lease_swept == 1


class TestCacheReadErrors:
    def test_oserror_counts_and_reports_instead_of_raising(
        self, tmp_path, monkeypatch
    ):
        import repro.records as records_module

        job = cheap_jobs(1)[0]
        cache_dir = tmp_path / "cache"
        ExecEngine(cache_dir=cache_dir).run_jobs([job])  # fill the cache

        def denied(path):
            raise PermissionError(f"injected EACCES for {path}")

        monkeypatch.setattr(records_module, "_load_text", denied)
        lines: list[str] = []
        engine = ExecEngine(cache_dir=cache_dir, progress=lines.append)
        results = engine.run_jobs([job])  # falls back to executing
        assert results[0].ok
        assert engine.counters.cache_read_errors == 1
        assert engine.counters.cache_hits == 0
        assert any("cache read failed" in line for line in lines)

    def test_unreadable_cache_is_a_miss_not_a_quarantine(
        self, tmp_path, monkeypatch
    ):
        import repro.records as records_module

        job = cheap_jobs(1)[0]
        cache_dir = tmp_path / "cache"
        ExecEngine(cache_dir=cache_dir).run_jobs([job])
        monkeypatch.setattr(
            records_module,
            "_load_text",
            lambda path: (_ for _ in ()).throw(OSError("io stall")),
        )
        engine = ExecEngine(cache_dir=cache_dir)
        engine.run_jobs([job])
        # An I/O error is environmental: the entry must NOT be moved to
        # quarantine (it may be perfectly intact).
        store = ResultStore(cache_dir)
        assert list(cache_dir.glob("*/*.corrupt")) == []
        assert store.path_for(job.fingerprint).exists()
