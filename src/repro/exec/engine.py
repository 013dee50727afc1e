"""The execution engine: memoized, cached, optionally distributed runs.

:class:`ExecEngine` is the single authority experiments go through to get
simulation results (lint rule R006 enforces this for
``repro/harness/experiments.py``).  For every batch of requested jobs it:

1. plans — deduplicates the batch against itself *and* against every job
   this engine already resolved (so experiments sharing a baseline run
   simulate it once);
2. resolves — in-memory memo first, then the content-addressed on-disk
   cache (``cache_dir``, a :class:`repro.exec.store.ResultStore`), keyed
   by :attr:`SimJob.fingerprint` and versioned by the engine schema +
   code fingerprint;
3. executes the remainder: in this process or on worker processes it
   owns (:func:`repro.exec.backends.execute_local`, chosen by ``jobs``
   and the batch size), or — given a ``broker`` —
   through the distributed mode, where this engine coordinates a fleet
   of ``cntcache worker`` processes through a shared filesystem broker
   (:mod:`repro.exec.broker`).  Results travel as JSON-exact payloads
   (or through the shared cache), so every path is bit-identical to
   serial execution.

Observability: every job transition is one :class:`ExecEvent` passed to
:meth:`ExecEngine.emit`, which folds it into :attr:`ExecEngine.counters`
(and the ``exec.*`` probe counters) and hands it to each attached
channel: the ``obs`` session and the telemetry stream, which both write
its one frame record (:func:`repro.obs.telemetry.lifecycle_frame`), and
the ``progress`` callback (see :mod:`repro.exec.events`).  Attaching an
``obs`` session (:class:`repro.obs.Obs`) also turns the probes on for
the duration of every batch: instrumented simulation code publishes
``cache.*``/``codec.*``/``workload.*`` traffic (captured per job in the
workers and shipped home through the result payload).

The cache layout and its atomicity/quarantine discipline are documented
in :mod:`repro.exec.store`; a mismatching schema tag or code fingerprint
is a plain miss, so editing simulator code invalidates stale entries
automatically.
"""

from __future__ import annotations

import math
import time
import weakref
from collections.abc import Callable, Iterable, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exec.backends import _Pool, execute_local
from repro.exec.events import (
    RESOLUTIONS,
    EngineCounters,
    ExecEvent,
    progress_line,
)
from repro.exec.job import SimJob
from repro.exec.planner import plan_jobs
from repro.exec.result import ExecResult
from repro.exec.store import ResultStore
from repro.exec.worker import execute_job
from repro.obs import probe, trace
from repro.resilience import (
    FailureRecord,
    ResilienceConfig,
    classify_transient,
    failure_for,
)

if TYPE_CHECKING:
    from repro.exec.broker import BrokerConfig
    from repro.obs.telemetry import TelemetryWriter


class EngineError(RuntimeError):
    """Raised on invalid engine configuration or use."""


def _coordinator_telemetry(
    telemetry: str | Path | TelemetryWriter | None,
    broker: BrokerConfig | None,
) -> TelemetryWriter:
    """The coordinator's telemetry writer, with a minted trace id.

    ``telemetry`` defaults to the broker's telemetry directory.  The
    telemetry module loads here, only for engines that stream frames.
    """
    from repro.obs.telemetry import (
        TelemetryWriter,
        default_identity,
        make_trace_id,
        telemetry_dir,
    )

    if telemetry is None:
        assert broker is not None
        telemetry = telemetry_dir(broker.root)
    if not isinstance(telemetry, TelemetryWriter):
        telemetry = TelemetryWriter(
            telemetry,
            identity=default_identity("coordinator"),
            role="coordinator",
        )
    if telemetry.trace_id is None:
        telemetry.trace_id = make_trace_id(telemetry.identity)
    return telemetry


class ExecEngine:
    """Plan, deduplicate, cache and execute :class:`SimJob` batches."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        progress: Callable[[str], None] | None = None,
        obs=None,
        resilience: ResilienceConfig | None = None,
        broker: BrokerConfig | str | Path | None = None,
        telemetry: str | Path | TelemetryWriter | None = None,
    ) -> None:
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise EngineError(f"jobs must be a positive int, got {jobs!r}")
        if resilience is None:
            resilience = ResilienceConfig()
        elif not isinstance(resilience, ResilienceConfig):
            raise EngineError(
                f"resilience must be a ResilienceConfig, got {resilience!r}"
            )
        if broker is not None:
            # The broker module loads only for engines configured with one.
            from repro.exec.broker import BrokerConfig

            if isinstance(broker, (str, Path)):
                broker = BrokerConfig(root=broker)
            elif not isinstance(broker, BrokerConfig):
                raise EngineError(
                    f"broker must be a BrokerConfig or directory, got {broker!r}"
                )
            # The broker's cache *is* the result transport: workers write
            # there and the coordinator adopts from there, so a divergent
            # cache_dir would split the single source of truth in two.
            shared = broker.cache_dir
            if cache_dir is None:
                cache_dir = shared
            elif Path(cache_dir).resolve() != shared.resolve():
                raise EngineError(
                    "a broker engine shares the broker's cache "
                    f"({shared}); drop cache_dir or point it there"
                )
        self.jobs = jobs
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.progress = progress
        #: Broker configuration: set, the engine coordinates a fleet
        #: instead of executing locally.
        self.broker = broker
        #: Optional :class:`repro.obs.Obs` session; when set, probes are
        #: enabled around every batch and job records are reported to it.
        self.obs = obs
        #: Fault-tolerance policy (see :mod:`repro.resilience`).
        self.resilience = resilience
        self.counters = EngineCounters()
        #: Every :class:`FailureRecord` this engine collected (keep-going).
        self.failures: list[FailureRecord] = []
        # Telemetry is opt-in and otherwise zero-cost: a broker engine
        # streams into the broker's telemetry/ bus automatically (that is
        # what `cntcache top` tails); any engine can point it elsewhere
        # with an explicit directory.  `None` here means no frames, no
        # trace ids, no wall-clock reads — byte-for-byte the old engine.
        self.telemetry: TelemetryWriter | None = None
        #: Fleet correlation id for this coordinator's published jobs
        #: (``None`` without telemetry — serial runs stay wall-clock-free).
        self.trace_id: str | None = None
        if telemetry is not None or broker is not None:
            self.telemetry = _coordinator_telemetry(telemetry, broker)
            self.trace_id = self.telemetry.trace_id
        #: Running accesses/energy tallies for telemetry heartbeats only;
        #: per-job fJ totals stay unsummed until report time (D005/R001:
        #: order-safe math.fsum instead of bare float accumulation).
        self._tele_accesses = 0
        self._tele_energy: list[float] = []
        #: fingerprint -> resolved result (the cross-batch memo).
        self._memo: dict[str, ExecResult] = {}
        #: fingerprint -> failed placeholder, valid for the current batch
        #: only — a later batch gets a fresh shot at the job.
        self._failed: dict[str, ExecResult] = {}
        #: The shared on-disk result store (None = memo-only engine).
        self.store: ResultStore | None = None
        if self.cache_dir is not None:
            # It reports through a weak proxy: a bound ``self.emit`` would
            # put every engine in a reference cycle that only the cyclic
            # collector frees, holding its whole memo until then.
            engine = weakref.proxy(self)
            self.store = ResultStore(self.cache_dir, lambda e: engine.emit(e))
            self.store.sweep()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @contextmanager
    def observing(self, obs):
        """Temporarily attach an obs session (``None`` = leave as-is)."""
        if obs is None:
            yield self
            return
        previous = self.obs
        self.obs = obs
        try:
            yield self
        finally:
            self.obs = previous

    def run_jobs(self, jobs: Iterable[SimJob]) -> list[ExecResult]:
        """Resolve a batch; returns results aligned with the input order.

        Transient job failures (crashed workers, broken pools, timeouts)
        are retried per :attr:`resilience`; a job that exhausts its
        attempts raises :class:`~repro.resilience.JobFailure` — or, with
        ``keep_going``, resolves to a failed placeholder
        (``result.ok is False``, ``result.failure`` carries the record)
        while the rest of the batch completes normally.
        """
        ordered = list(jobs)
        with probe.recording(self.obs):
            with probe.timer("exec.batch"), trace.span(
                "exec.batch", jobs=len(ordered)
            ):
                return self._resolve(ordered)

    def _resolve(self, ordered: list[SimJob]) -> list[ExecResult]:
        plan = plan_jobs(ordered)
        self.emit(ExecEvent("requested", n=len(plan.requested)))
        self._failed.clear()

        pending: list[SimJob] = []
        for job in plan.unique:
            memo = self._memo.get(job.fingerprint)
            if memo is not None:
                self.emit(ExecEvent("memo", job, memo))
                continue
            cached = None if self.store is None else self.store.read(job)
            if cached is None:
                self.emit(ExecEvent("miss", job))
                pending.append(job)
            else:
                self._memo[job.fingerprint] = cached
                self.emit(ExecEvent("cache_hit", job, cached))

        self._execute(pending)
        return [
            self._memo.get(job.fingerprint)
            or self._failed[job.fingerprint]
            for job in ordered
        ]

    def run_map(self, jobs: Mapping) -> dict:
        """Resolve a ``{key: SimJob}`` mapping into ``{key: ExecResult}``.

        The declarative form the experiments use: declare every job of the
        experiment keyed by its table coordinates, submit once, consume.
        """
        keys = list(jobs)
        results = self.run_jobs([jobs[key] for key in keys])
        return dict(zip(keys, results))

    def run_job(self, job: SimJob) -> ExecResult:
        """Resolve a single job."""
        return self.run_jobs([job])[0]

    def stats(self, job: SimJob):
        """Shorthand: the :class:`EnergyStats` of one resolved job."""
        result = self.run_job(job)
        if result.stats is None:
            raise EngineError(f"job {job.label} produced no EnergyStats")
        return result.stats

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, pending: list[SimJob]) -> None:
        if not pending:
            return
        if self.broker is None:
            execute_local(self, pending)
            return
        # Looked up at call time (the broker module loads only for a
        # broker engine, and tests can patch the drain).
        from repro.exec.broker import drain

        drain(self, pending)

    def _retry_or_fail(
        self,
        job: SimJob,
        attempts: dict[str, int],
        remaining: list[SimJob],
        error: BaseException,
    ) -> None:
        """One failed attempt: grant a retry (count and announce it, and
        re-queue the job into ``remaining``) or record the failure."""
        attempt = attempts[job.fingerprint]
        if not classify_transient(error) or attempt >= self.resilience.max_retries:
            self._fail(job, error, attempt + 1)
            return
        attempts[job.fingerprint] = attempt + 1
        self.emit(
            ExecEvent(
                "retry",
                job,
                generation=attempt + 1,
                detail={
                    "of": self.resilience.max_retries,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
        )
        remaining.append(job)

    def _fail(self, job: SimJob, error: BaseException, attempts: int) -> None:
        """A job exhausted its attempts: record it, or raise (fail-fast)."""
        record = FailureRecord.from_error(job, error, attempts)
        placeholder = (
            ExecResult.failed(job, record) if self.resilience.keep_going else None
        )
        self.emit(ExecEvent("fail", job, placeholder, detail=record.to_dict()))
        if placeholder is None:
            raise failure_for(record) from error
        self.failures.append(record)
        self._failed[job.fingerprint] = placeholder

    def _store(
        self,
        job: SimJob,
        result: ExecResult,
        queue_wait_s: float = 0.0,
        absorb: bool = False,
    ) -> None:
        if queue_wait_s and probe.ENABLED:
            probe.timing("exec.queue_wait", queue_wait_s)
        # Serial results recorded their probe traffic and trace events
        # live; worker results carry them in the payload snapshots, which
        # merge into the parent scope and sink here, exactly once.
        if absorb and probe.ENABLED:
            probe.absorb(result.obs)
        if absorb and trace.ACTIVE:
            trace.absorb(result.trace)
        self._memo[job.fingerprint] = result
        if self.store is not None:
            self.store.write(job, result)
        self.emit(ExecEvent("run", job, result, queue_wait_s=queue_wait_s))

    def _adopt(self, job: SimJob, result: ExecResult) -> None:
        """Install a result another process produced (distributed path).

        The broker coordinator reads completed results back from the
        shared store; they count as executed work (someone simulated
        them for this batch) but are *not* re-written to the cache —
        the worker's write is the authoritative copy.
        """
        self._memo[job.fingerprint] = result
        self.emit(ExecEvent("adopt", job, result))

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def emit(self, event: ExecEvent) -> None:
        """Record one transition: fold it into :attr:`counters`, then hand
        it to every attached channel (obs session, telemetry, progress)."""
        self.counters.apply(event)
        if self.trace_id is not None and event.job is not None:
            from repro.obs.telemetry import span_for

            event.trace_id = self.trace_id
            event.span_id = span_for(self.trace_id, event.job.fingerprint)
        if self.obs is not None:
            self.obs.record(event)
        if self.telemetry is not None:
            self._stream(event)
        if self.progress is not None:
            line = progress_line(event, self.counters)
            if line is not None:
                self.progress(line)

    def _stream(self, event: ExecEvent) -> None:
        """The telemetry channel: the event's frame record, then — for a
        resolution, when one is due — a gauge heartbeat.

        Local executions stream ``run`` and adopted fleet results
        ``adopt`` (the worker already streamed the ``finish``), so the
        collector's energy accounting stays exactly-once.
        """
        from repro.obs.telemetry import lifecycle_frame

        assert self.telemetry is not None
        frame = lifecycle_frame(event)
        if frame is not None:
            self.telemetry.write(frame)
        result = event.result
        if event.kind not in RESOLUTIONS or result is None:
            return
        if event.kind in ("run", "adopt"):
            self._tele_accesses += result.accesses
            if result.stats is not None:
                self._tele_energy.append(result.stats.total_fj)
        if self.telemetry.due:
            counters = self.counters
            self.telemetry.heartbeat(
                "running",
                job=event.job.label,
                kind=event.job.kind,
                jobs_done=counters.resolved,
                executed=counters.executed,
                cache_hits=counters.cache_hits,
                memo_hits=counters.memo_hits,
                failures=counters.failures,
                accesses=self._tele_accesses,
                energy_fj=math.fsum(self._tele_energy),
            )

    def close_telemetry(self) -> None:
        """Stream the final ``exit`` frames and close the writer (no-op
        without telemetry; called by the CLI when a run ends)."""
        if self.telemetry is None:
            return
        resolved = self.counters.resolved
        self.telemetry.lifecycle(
            "exit", jobs_done=resolved, failures=self.counters.failures
        )
        self.telemetry.heartbeat(
            "exited",
            force=True,
            jobs_done=resolved,
            accesses=self._tele_accesses,
            energy_fj=math.fsum(self._tele_energy),
        )
        self.telemetry.close()

    def summary(self) -> str:
        """One-line counters summary."""
        return f"exec: {self.counters.describe()}"


# --------------------------------------------------------------------- #
# selftest: in-process == subprocess == cache read-back
# --------------------------------------------------------------------- #
def run_selftest(
    size: str = "tiny",
    seed: int = 3,
    progress: Callable[[str], None] | None = None,
) -> list[str]:
    """Assert result parity across every execution mode; returns failures.

    For a representative job of every kind, the measurement must be
    byte-identical (``ExecResult.canonical``) when executed in-process,
    in a worker subprocess, and after an on-disk cache round-trip.  This
    is the determinism contract the local workers and the result cache
    both rest on; the subprocess leg runs on one of the loop's own
    workers, through the pipe that carries every parallel job.

    Every simulating candidate (workload, oracle, l2, audit) is
    additionally re-executed under ``backend="scalar"`` and its canonical
    measurement must match the default engine's byte for byte — the
    cross-backend leg of the same contract.  The scalar mirror of an
    ``l2`` job filters its own L1 stream through the reference substrate
    cache, and that of an ``oracle`` job replays the reference substrate,
    so the default engine's substrate projections are cross-checked too.
    """
    import tempfile
    from dataclasses import replace

    from repro.core.config import CNTCacheConfig
    from repro.exec.job import (
        audit_job,
        l2_job,
        oracle_job,
        trace_job,
        workload_job,
    )

    config = CNTCacheConfig()
    candidates = [
        workload_job(config, "stream", size, seed),
        workload_job(config.variant(scheme="baseline"), "stream", size, seed),
        oracle_job(config, "crc32", size, seed),
        # A 1 KiB L1 evicts dirty lines even at the smallest size, so
        # the L2 stream carries writebacks as well as refills.
        l2_job(config, "stream", size, seed, l1_size=1024),
        audit_job(config, "records", size, seed),
        trace_job("crc32", size, seed),
    ]
    failures: list[str] = []
    pool = _Pool(1)
    (worker,) = pool.workers
    try:
        for job in candidates:
            started = time.perf_counter()
            inproc = execute_job(job)
            # The transport parallel runs take: a chunk, one outcome each.
            worker.conn.send(([job], [0]))
            outcome = worker.conn.recv()
            if isinstance(outcome, Exception):
                raise outcome
            sub = ExecResult.from_payload(job, outcome, "run")
            with tempfile.TemporaryDirectory() as tmp:
                writer = ExecEngine(cache_dir=tmp)
                writer._memo[job.fingerprint] = inproc
                writer.store.write(job, inproc)
                reader = ExecEngine(cache_dir=tmp)
                cached = reader.run_job(job)
            ok = (
                inproc.canonical() == sub.canonical() == cached.canonical()
                and cached.source == "cache"
            )
            if not ok:
                failures.append(
                    f"{job.label}: in-process/subprocess/cache results differ"
                )
            if job.kind in ("workload", "oracle", "l2", "audit"):
                mirrored = execute_job(replace(job, backend="scalar"))
                if mirrored.canonical() != inproc.canonical():
                    ok = False
                    failures.append(
                        f"{job.label}: default engine diverges from the "
                        "scalar oracle"
                    )
            if progress is not None:
                verdict = "ok" if ok else "FAIL"
                progress(
                    f"selftest {job.label:<40} {verdict} "
                    f"({time.perf_counter() - started:.2f}s)"
                )
    finally:
        pool.close()
    return failures
