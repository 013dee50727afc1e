"""Local execution: one round loop, in this process or on a worker pool.

The engine's resolve pipeline (dedup -> memo -> cache) leaves a list of
pending jobs; :func:`execute_local` runs them unless the engine has a
broker (:mod:`repro.exec.broker`, the distributed mode).  It runs them
in rounds, and every job carries one attempt count through all of them:

* A round runs on a ``ProcessPoolExecutor`` while the batch has one
  (``jobs > 1`` and more than one pending job), else in this process.
* The first round goes in :func:`trace_chunks` order, so each trace is
  built and each (trace, geometry) substrate recorded once, whether a
  pool worker or this process runs it.  Retry rounds keep trace order.
* A failed attempt goes through ``engine._retry_or_fail``: a transient
  error re-queues the job for the next round (up to ``max_retries``),
  anything else records the failure.  The loop backs off once between
  rounds, by the slowest job's ladder.
* A timeout (``job_timeout_s`` per job of a chunk) or a
  ``BrokenProcessPool`` *condemns* the pool.  Finished chunks are still
  harvested; a lost chunk charges the jobs of it that started, and the
  rest go back uncharged.  The pool is rebuilt :data:`POOL_REBUILDS`
  times, then the loop runs the remaining rounds in this process.

Outcomes go through the same engine helpers the broker uses
(``_store`` / ``_fail`` / ``_retry_or_fail``), and the loop reports its
own transitions (timeouts, pool rebuilds, serial fallback) through
``engine.emit``, so the resilience policy
(:class:`repro.resilience.ResilienceConfig`) and the failure taxonomy
are the same on every path.
"""

from __future__ import annotations

import math
import signal
import time
from typing import TYPE_CHECKING

from repro import faults
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
    from repro.exec.engine import ExecEngine
    from repro.exec.job import SimJob

#: Times a condemned pool is rebuilt per batch before the loop runs the
#: rest of the batch in this process.
POOL_REBUILDS = 1


def execute_local(engine: "ExecEngine", pending: "list[SimJob]") -> None:
    """Resolve every job of ``pending`` through ``engine`` (see above)."""
    attempts = {job.fingerprint: 0 for job in pending}
    slots = {job.fingerprint: slot for slot, job in enumerate(pending)}
    workers = engine.jobs if len(pending) > 1 else 1
    chunks = trace_chunks(pending, workers)
    workers = min(workers, len(chunks))
    pool = _Pool(workers, len(pending)) if workers > 1 else None
    rebuilds_left = POOL_REBUILDS
    try:
        while chunks:
            remaining: list[SimJob] = []
            if pool is None:
                _run_in_process(engine, chunks, attempts, remaining)
            elif pool.run(engine, chunks, attempts, slots, remaining):
                pool = None
                if remaining and rebuilds_left > 0:
                    rebuilds_left -= 1
                    engine.emit(ExecEvent("pool_rebuild"))
                    pool = _Pool(workers, len(pending))
                elif remaining:
                    engine.emit(ExecEvent("serial_fallback"))
            if remaining:
                time.sleep(
                    max(
                        backoff_delay(
                            engine.resilience,
                            job.fingerprint,
                            attempts[job.fingerprint],
                        )
                        for job in remaining
                    )
                )
            chunks = trace_chunks(remaining, 1)
            if pool is not None:
                # One job per chunk: a sticky failure charges no chunk-mates.
                chunks = [[job] for chunk in chunks for job in chunk]
        if pool is not None:
            # The last round left the pool healthy: join its workers, so
            # none outlives the batch.
            pool.executor.shutdown(wait=True)
            pool = None
    finally:
        if pool is not None:  # a failure is propagating: don't wait
            pool.executor.shutdown(wait=False, cancel_futures=True)


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


def _run_in_process(
    engine: "ExecEngine",
    chunks: "list[list[SimJob]]",
    attempts: dict[str, int],
    remaining: "list[SimJob]",
) -> None:
    """One round in this process, holding one trace's memos at a time
    (:func:`~repro.exec.worker.hold_trace`)."""
    for chunk in chunks:
        hold_trace(chunk[0].trace_key)
        for job in chunk:
            try:
                result = execute_job(job, attempt=attempts[job.fingerprint])
            # Sanctioned broad catch: every error is classified and
            # either retried or surfaced as a structured failure.
            except Exception as error:  # lint: disable=R007
                engine._retry_or_fail(job, attempts, remaining, error)
            else:
                engine._store(job, result)


#: A pool worker's start marks (set by :func:`_init_pool_worker`).
_STARTED = None


def _init_pool_worker(started, observe: tuple | None) -> None:
    """Pool initializer: keep the start marks, arm observability."""
    global _STARTED
    _STARTED = started
    if observe is not None:
        init_worker_observability(*observe)


def _run_chunk(
    chunk: "list[SimJob]", attempts: list[int], slots: dict[str, int], mark: int
) -> list[dict | Exception]:
    """Pool entry point: :func:`~repro.exec.worker.execute_chunk`, with
    each job's slot set to ``mark`` as its attempt begins."""

    def begin(fingerprint: str, attempt: int) -> None:
        # A pool teardown's SIGTERM waits for the mark and the start hook
        # together, so an attempt is marked exactly when its hook ran.  The
        # hook returns at once unless a fault plan makes it hang.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            _STARTED[slots[fingerprint]] = mark
            faults.on_job_start(fingerprint, attempt)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})

    return execute_chunk(chunk, attempts, begin)


class _Pool:
    """A worker pool, and the marks its workers leave as jobs start.

    A chunk lost with its worker (a crash, a timeout) returns no
    outcomes; the marks tell which of its jobs had started, so only
    those are charged an attempt.
    """

    def __init__(self, workers: int, slots: int) -> None:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing.sharedctypes import RawArray

        # Force-enable probes/tracing in the workers iff they are on
        # here; per-job captures come back inside the result payloads.
        observe = None
        if probe.ENABLED or trace.ACTIVE:
            observe = (probe.ENABLED, trace.ACTIVE, trace.EVERY, trace.CAPACITY)
        #: Slot -> the last round that started the job there (0: none).
        self.started = RawArray("i", slots)
        self.rounds = 0
        self.executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_pool_worker,
            initargs=(self.started, observe),
        )

    def run(
        self,
        engine: "ExecEngine",
        chunks: "list[list[SimJob]]",
        attempts: dict[str, int],
        slots: dict[str, int],
        remaining: "list[SimJob]",
    ) -> bool:
        """Run one round of ``chunks``; True if it condemned the pool.

        A condemned pool is shut down here: a broken one is joined, so
        its start marks are final; one holding a hung worker is
        abandoned, not waited on.
        """
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        config = engine.resilience
        self.rounds += 1
        # What condemned the pool (None: nothing yet).
        cause: BaseException | None = None
        broken = False
        # Chunks whose outcomes never came back, each with its error.
        lost: list[tuple[list[SimJob], BaseException]] = []
        done_at: dict[int, float] = {}
        queued_at = time.perf_counter()
        submitted = []
        for chunk in chunks:
            try:
                future = self.executor.submit(
                    _run_chunk,
                    chunk,
                    [attempts[job.fingerprint] for job in chunk],
                    {job.fingerprint: slots[job.fingerprint] for job in chunk},
                    self.rounds,
                )
            except BrokenProcessPool as error:
                # A worker died while the round was being submitted.
                broken = True
                cause = cause or error
                lost.append((chunk, error))
                continue
            future.add_done_callback(
                lambda f, d=done_at: d.setdefault(id(f), time.perf_counter())
            )
            submitted.append((chunk, future))
        for chunk, future in submitted:
            if cause is not None and not future.done():
                # The pool is already condemned; don't wait on it.
                future.cancel()
                lost.append((chunk, cause))
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
                for job in chunk:
                    engine.emit(ExecEvent("timeout", job))
                timeout = TimeoutError(
                    f"a chunk of {len(chunk)} job(s) exceeded its "
                    f"{budget}s budget ({config.job_timeout_s}s per job)"
                )
                cause = cause or timeout
                lost.append((chunk, timeout))
                continue
            except BrokenProcessPool as error:
                broken = True
                cause = cause or error
                lost.append((chunk, error))
                continue
            # Sanctioned broad catch: the chunk's transport failed
            # — classify it per job, retry or record, never swallow.
            except Exception as error:  # lint: disable=R007
                outcomes = [error for _ in chunk]
            finished = done_at.get(id(future), time.perf_counter())
            _harvest(
                engine, chunk, outcomes, finished - queued_at, attempts, remaining
            )
        if cause is not None:
            self.executor.shutdown(wait=broken, cancel_futures=True)
        for chunk, error in lost:
            for job in chunk:
                if self.started[slots[job.fingerprint]] == self.rounds:
                    engine._retry_or_fail(job, attempts, remaining, error)
                else:
                    remaining.append(job)  # never started: nothing to charge
        return cause is not None


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


__all__ = ["POOL_REBUILDS", "execute_local", "trace_chunks"]
