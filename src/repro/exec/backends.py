"""Execution backends: how a batch of pending jobs actually runs.

The engine's resolve pipeline (dedup -> memo -> cache) is backend
independent; only the final step — executing whatever the cache could
not serve — varies.  This registry names those strategies, mirroring
:mod:`repro.backends` (the *simulation* backend registry) in shape:

``local-serial``
    In-process execution with bounded retries; what ``jobs=1`` always
    did, and the degradation target every other backend falls back to.
    It runs a batch in :func:`trace_chunks` order, so it records each
    (trace, geometry) substrate once and holds one trace's memos at a
    time.
``local-pool``
    ``ProcessPoolExecutor`` rounds with retries, timeouts, pool rebuilds
    and serial fallback; what ``jobs > 1`` selects.  The first round
    sends every job of one workload trace to one worker
    (:func:`trace_chunks`), so the pool builds each trace and records
    each substrate once, as a serial run does.
``broker``
    The distributed mode (:mod:`repro.exec.broker`): the engine becomes
    a coordinator publishing claimable job records into a filesystem
    broker directory, and any number of ``cntcache worker`` processes
    drain them through the shared result cache.

Every backend routes outcomes through the same engine helpers
(``_store`` / ``_fail`` / ``_should_retry``) and reports its own
transitions (timeouts, pool rebuilds, serial fallback) through
``engine.emit``, so the resilience policy
(:class:`repro.resilience.ResilienceConfig`) and the failure taxonomy
transfer unchanged — a retry is a retry whether the attempt died in a
pool worker or on a leased broker worker.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends.array import substrate_key
from repro.exec.events import ExecEvent
from repro.exec.result import ExecResult
from repro.exec.worker import (
    execute_chunk,
    execute_job,
    hold_trace,
    init_worker_observability,
)
from repro.obs import probe, trace
from repro.resilience import backoff_delay

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.exec.engine import ExecEngine
    from repro.exec.job import SimJob


class ExecBackendError(ValueError):
    """Raised on unknown exec-backend lookups."""


@dataclass(frozen=True)
class ExecBackendSpec:
    """One registered execution backend.

    ``name``
        Registry key (``--exec-backend`` on the CLI).
    ``summary``
        One line on the execution strategy.
    ``factory``
        Zero-argument callable building the backend instance.
    ``distributed``
        True when execution leaves this process tree (results are
        adopted from a shared store rather than transported in-memory).
    """

    name: str
    summary: str
    factory: Callable[[], "ExecBackend"]
    distributed: bool = False


class ExecBackend:
    """Protocol: execute ``pending`` jobs on behalf of ``engine``.

    Implementations must resolve *every* pending job — into
    ``engine._memo`` via ``engine._store``/``engine._adopt``, or into
    ``engine._failed`` via ``engine._fail`` (keep-going) — or raise.
    """

    name = "abstract"

    def execute(self, engine: "ExecEngine", pending: "list[SimJob]") -> None:
        """Resolve every job in ``pending`` through ``engine``."""
        raise NotImplementedError


class LocalSerialBackend(ExecBackend):
    """In-process execution with bounded retries on transient errors."""

    name = "local-serial"

    def execute(self, engine: "ExecEngine", pending: "list[SimJob]") -> None:
        """Run each job in this process, retrying transient failures.

        Jobs run one trace at a time (:func:`trace_chunks`), and each
        trace's memos are dropped when the next one starts
        (:func:`~repro.exec.worker.hold_trace`).
        """
        for chunk in trace_chunks(pending, 1):
            hold_trace(chunk[0].trace_key)
            for job in chunk:
                self._execute(engine, job)

    @staticmethod
    def _execute(engine: "ExecEngine", job: "SimJob") -> None:
        attempt = 0
        while True:
            try:
                result = execute_job(job, attempt=attempt)
            # Sanctioned broad catch: every error is classified and
            # either retried or surfaced as a structured failure.
            except Exception as error:  # lint: disable=R007
                if engine._should_retry(job, attempt, error):
                    attempt += 1
                    time.sleep(
                        backoff_delay(engine.resilience, job.fingerprint, attempt)
                    )
                    continue
                engine._fail(job, error, attempt + 1)
                return
            engine._store(job, result)
            return


def trace_chunks(pending: "list[SimJob]", workers: int) -> "list[list[SimJob]]":
    """Cut ``pending`` into trace-affine chunks for ``workers`` workers.

    Jobs group by the trace every kind rebuilds, ``(workload, size,
    seed)``, and a group orders its jobs by the geometry they record
    (:func:`~repro.backends.array.substrate_key`), keeping plan order
    among equals, so a run records each (trace, geometry) substrate once.
    A group longer than ``ceil(len(pending) / workers)`` is cut into
    consecutive pieces of at most that length, so a batch over one trace
    still uses every worker.  Chunks come longest first; ties keep plan
    order.
    """
    groups: dict[tuple[str, str, int], list[SimJob]] = {}
    for job in pending:
        groups.setdefault(job.trace_key, []).append(job)
    for group in groups.values():
        group.sort(key=_geometry)
    cap = math.ceil(len(pending) / workers)
    chunks = [
        group[start : start + cap]
        for group in groups.values()
        for start in range(0, len(group), cap)
    ]
    chunks.sort(key=len, reverse=True)  # stable, also when reversed
    return chunks


def _geometry(job: "SimJob") -> tuple:
    """The substrate a job's config records (``()`` for a trace job)."""
    return () if job.config is None else substrate_key(job.config)


class LocalPoolBackend(ExecBackend):
    """Worker-pool execution: retries, timeouts, rebuilds, fallback.

    Jobs run in rounds of chunks, one :func:`execute_chunk` task each.
    The first round sends :func:`trace_chunks`, so one worker's memos
    build each trace and record each substrate once, as a serial run
    does, and a worker drops a trace's memos when its next chunk is over
    another (:func:`~repro.exec.worker.execute_chunk`); retry rounds
    send one job per chunk, so a sticky failure charges no chunk-mates.  A round harvests results in submission
    order; a failure classified transient re-queues its job for the
    next round (up to ``max_retries``).  A timeout (``job_timeout_s``
    per job of the chunk) or a ``BrokenProcessPool`` charges every job
    of its chunk and *condemns* the pool — finished chunks are still
    harvested, the rest re-queue, and the pool is rebuilt
    (``pool_rebuilds`` times) before the engine degrades to serial
    in-process execution for whatever remains.
    """

    name = "local-pool"

    def execute(self, engine: "ExecEngine", pending: "list[SimJob]") -> None:
        """Run the jobs in worker-pool rounds (see the class docstring)."""
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        config = engine.resilience
        chunks = trace_chunks(pending, engine.jobs)
        workers = min(engine.jobs, len(chunks))
        # Force-enable probes/tracing in the workers iff they are on
        # here; per-job captures come back inside the result payloads.
        initializer = initargs = None
        if probe.ENABLED or trace.ACTIVE:
            initializer = init_worker_observability
            initargs = (probe.ENABLED, trace.ACTIVE, trace.EVERY, trace.CAPACITY)
        attempts: dict[str, int] = {job.fingerprint: 0 for job in pending}
        rebuilds_left = config.pool_rebuilds
        pool = self._make_pool(workers, initializer, initargs)
        try:
            while chunks:
                remaining: list[SimJob] = []
                condemned = False
                done_at: dict[int, float] = {}
                queued_at = time.perf_counter()
                futures = [
                    pool.submit(
                        execute_chunk,
                        chunk,
                        [attempts[job.fingerprint] for job in chunk],
                    )
                    for chunk in chunks
                ]
                for future in futures:
                    future.add_done_callback(
                        lambda f, d=done_at: d.setdefault(
                            id(f), time.perf_counter()
                        )
                    )
                for chunk, future in zip(chunks, futures):
                    if condemned and not future.done():
                        # The pool is already condemned; don't wait on it.
                        future.cancel()
                        remaining.extend(chunk)
                        continue
                    budget = (
                        None
                        if config.job_timeout_s is None
                        else config.job_timeout_s * len(chunk)
                    )
                    outcomes: list[dict | Exception]
                    try:
                        outcomes = future.result(timeout=budget)
                    except FuturesTimeoutError:
                        condemned = True
                        timeout = TimeoutError(
                            f"a chunk of {len(chunk)} job(s) exceeded its "
                            f"{budget}s budget ({config.job_timeout_s}s "
                            "per job)"
                        )
                        for job in chunk:
                            engine.emit(ExecEvent("timeout", job))
                        outcomes = [timeout for _ in chunk]
                    except BrokenProcessPool as error:
                        condemned = True
                        outcomes = [error for _ in chunk]
                    # Sanctioned broad catch: the chunk's transport failed
                    # — classify it per job, retry or record, never swallow.
                    except Exception as error:  # lint: disable=R007
                        outcomes = [error for _ in chunk]
                    finished = done_at.get(id(future), time.perf_counter())
                    self._harvest(
                        engine,
                        chunk,
                        outcomes,
                        finished - queued_at,
                        attempts,
                        remaining,
                    )
                chunks = [[job] for job in remaining]
                if condemned:
                    pool.shutdown(wait=False, cancel_futures=True)
                    if remaining and rebuilds_left > 0:
                        rebuilds_left -= 1
                        engine.emit(ExecEvent("pool_rebuild"))
                        pool = self._make_pool(workers, initializer, initargs)
                    elif remaining:
                        engine.emit(ExecEvent("serial_fallback"))
                        LocalSerialBackend().execute(engine, remaining)
                        chunks = []
                elif remaining:
                    # Pure retries (no pool break): back off before the
                    # next round, by the slowest job's ladder.
                    time.sleep(
                        max(
                            backoff_delay(
                                config,
                                job.fingerprint,
                                attempts[job.fingerprint],
                            )
                            for job in remaining
                        )
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _harvest(
        engine: "ExecEngine",
        chunk: "list[SimJob]",
        outcomes: "list[dict | Exception]",
        turnaround_s: float,
        attempts: dict[str, int],
        remaining: "list[SimJob]",
    ) -> None:
        """Store or re-queue each job of a chunk, in chunk order."""
        results = [
            outcome
            if isinstance(outcome, Exception)
            else ExecResult.from_payload(job, outcome, "run")
            for job, outcome in zip(chunk, outcomes)
        ]
        # A worker runs a chunk front to back, so job i waited for a
        # slot the chunk's turnaround minus the wall time of jobs i..end.
        waits: list[float] = []
        tail_s = turnaround_s
        for result in reversed(results):
            if isinstance(result, ExecResult):
                tail_s -= result.wall_s
            waits.append(max(0.0, tail_s))
        waits.reverse()
        for job, result, wait in zip(chunk, results, waits):
            if isinstance(result, Exception):
                engine._retry_or_fail(job, attempts, remaining, result)
            else:
                engine._store(job, result, queue_wait_s=wait, absorb=True)

    @staticmethod
    def _make_pool(
        workers: int, initializer, initargs
    ) -> ProcessPoolExecutor:
        """Build a worker pool, arming observability when requested."""
        from concurrent.futures import ProcessPoolExecutor

        if initializer is None:
            return ProcessPoolExecutor(max_workers=workers)
        return ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        )


class BrokerExecBackend(ExecBackend):
    """Coordinator side of the distributed broker (lazy import)."""

    name = "broker"

    def execute(self, engine: "ExecEngine", pending: "list[SimJob]") -> None:
        """Publish the jobs to the engine's broker and drain the fleet."""
        from repro.exec.broker import drain

        drain(engine, pending)


#: The registry, keyed by backend name (stable, user-facing).
_EXEC_BACKENDS: dict[str, ExecBackendSpec] = {
    "local-serial": ExecBackendSpec(
        name="local-serial",
        summary="in-process execution with bounded retries",
        factory=LocalSerialBackend,
    ),
    "local-pool": ExecBackendSpec(
        name="local-pool",
        summary="ProcessPoolExecutor rounds with timeouts/rebuilds/fallback",
        factory=LocalPoolBackend,
    ),
    "broker": ExecBackendSpec(
        name="broker",
        summary="filesystem work broker drained by cntcache worker fleets",
        factory=BrokerExecBackend,
        distributed=True,
    ),
}


def exec_backends() -> tuple[ExecBackendSpec, ...]:
    """Every registered execution backend, in registration order."""
    return tuple(_EXEC_BACKENDS.values())


def exec_backend_names() -> tuple[str, ...]:
    """The registered execution-backend names."""
    return tuple(_EXEC_BACKENDS)


def make_exec_backend(name: str) -> ExecBackend:
    """Build the execution backend registered under ``name``."""
    try:
        info = _EXEC_BACKENDS[name]
    except KeyError:
        raise ExecBackendError(
            f"unknown exec backend {name!r}; known: {exec_backend_names()}"
        ) from None
    return info.factory()


__all__ = [
    "BrokerExecBackend",
    "ExecBackend",
    "ExecBackendError",
    "ExecBackendSpec",
    "LocalPoolBackend",
    "LocalSerialBackend",
    "exec_backend_names",
    "exec_backends",
    "make_exec_backend",
    "trace_chunks",
]
