"""Local execution: one round loop, in this process or on owned workers.

The engine's resolve pipeline (dedup -> memo -> cache) leaves a list of
pending jobs; :func:`execute_local` runs them unless the engine has a
broker (:mod:`repro.exec.broker`, the distributed mode).  It runs them
in rounds, and every job carries one attempt count through all of them:

* A round runs on worker processes the loop owns while the batch has
  them (``jobs > 1`` and more than one pending job), else in this
  process.  A worker is one forked process with one pipe: it takes a
  chunk and sends back each job's outcome as the job finishes, so the
  loop knows which job it is running (the front unanswered one) and
  since when.
* The first round goes in :func:`trace_chunks` order, so each trace is
  built and each (trace, geometry) substrate recorded once, whether a
  worker or this process runs it.  Retry rounds keep trace order.
* A failed attempt goes through ``engine._retry_or_fail``: a transient
  error re-queues the job for the next round (up to ``max_retries``),
  anything else records the failure.  The loop backs off once between
  rounds, by the slowest job's ladder.
* A worker is *lost* when its pipe hits EOF (a crash) or its job
  outlives ``job_timeout_s`` (the loop kills it).  Only the job it was
  running is charged; outcomes already back are kept, the rest of its
  chunk goes back uncharged, and the other workers finish the round.
  After a round that lost a worker the loop starts replacements,
  :data:`POOL_REBUILDS` times, then runs the remaining rounds in this
  process.
* No worker outlives the batch: on-time workers are stopped with a
  ``None`` sentinel, the rest killed, and every one is joined.

Outcomes go through the same engine helpers the broker uses
(``_store`` / ``_fail`` / ``_retry_or_fail``), and the loop reports its
own transitions (timeouts, pool rebuilds, serial fallback) through
``engine.emit``, so the resilience policy
(:class:`repro.resilience.ResilienceConfig`) and the failure taxonomy
are the same on every path.
"""

from __future__ import annotations

import math
import time
from contextlib import suppress
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
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from repro.exec.engine import ExecEngine
    from repro.exec.job import SimJob

#: Times a round that lost workers is followed by replacements, per
#: batch, before the loop runs the rest of the batch in this process.
POOL_REBUILDS = 1


def execute_local(engine: "ExecEngine", pending: "list[SimJob]") -> None:
    """Resolve every job of ``pending`` through ``engine`` (see above)."""
    attempts = {job.fingerprint: 0 for job in pending}
    workers = engine.jobs if len(pending) > 1 else 1
    chunks = trace_chunks(pending, workers)
    workers = min(workers, len(chunks))
    pool = _Pool(workers) if workers > 1 else None
    rebuilds_left = POOL_REBUILDS
    try:
        while chunks:
            remaining: list[SimJob] = []
            if pool is None:
                _run_in_process(engine, chunks, attempts, remaining)
            elif pool.run(engine, chunks, attempts, remaining) and remaining:
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    engine.emit(ExecEvent("pool_rebuild"))
                    pool.fill()
                else:
                    engine.emit(ExecEvent("serial_fallback"))
                    pool.close()
                    pool = None
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
    finally:
        if pool is not None:
            pool.close()


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


def _serve(conn: "Connection", observe: tuple | None) -> None:
    """A worker's life: run each chunk it is sent, sending back one
    outcome per job (:func:`~repro.exec.worker.execute_chunk`), until
    the ``None`` sentinel."""
    if observe is not None:
        init_worker_observability(*observe)
    while (task := conn.recv()) is not None:
        for outcome in execute_chunk(*task):
            conn.send(outcome)


class _Worker:
    """One owned worker: its process, its pipe and the jobs it owes."""

    def __init__(self, process: "BaseProcess", conn: "Connection") -> None:
        self.process = process
        self.conn = conn
        #: The unanswered jobs of its chunk; the front one is running.
        self.owed: list[SimJob] = []
        #: When the front owed job began (``time.perf_counter``).
        self.began = 0.0


class _Pool:
    """The worker processes one batch owns."""

    def __init__(self, size: int) -> None:
        self.size = size
        # Force-enable probes/tracing in the workers iff they are on
        # here; per-job captures come back inside the result payloads.
        self.observe: tuple | None = None
        if probe.ENABLED or trace.ACTIVE:
            self.observe = (probe.ENABLED, trace.ACTIVE, trace.EVERY, trace.CAPACITY)
        self.workers: list[_Worker] = []
        self.fill()

    def fill(self) -> None:
        """Start workers until the pool is at its size."""
        import multiprocessing

        while len(self.workers) < self.size:
            ours, theirs = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=_serve, args=(theirs, self.observe), daemon=True
            )
            process.start()
            theirs.close()  # the worker's EOF is then ours to see
            self.workers.append(_Worker(process, ours))

    def close(self) -> None:
        """Stop every worker and join it: an idle one takes the sentinel
        (its pipe never reads EOF, since later forks hold copies of this
        end), a busy one (a failure is propagating) is killed."""
        for worker in self.workers:
            if worker.owed:
                worker.process.kill()
            else:
                with suppress(OSError):
                    worker.conn.send(None)
        for worker in self.workers:
            worker.process.join()
            worker.conn.close()
        self.workers = []

    def run(
        self,
        engine: "ExecEngine",
        chunks: "list[list[SimJob]]",
        attempts: dict[str, int],
        remaining: "list[SimJob]",
    ) -> bool:
        """Run one round of ``chunks``; True if it lost a worker.

        Job *i* of a chunk begins when the outcome of job *i - 1* comes
        back, or job 0 when the chunk is sent: its ``job_timeout_s``
        deadline and its queue wait count from there.
        """
        from multiprocessing.connection import wait

        timeout_s = engine.resilience.job_timeout_s
        queue = chunks[::-1]  # the next chunk is popped off the end
        queued_at = time.perf_counter()
        lost = False

        def lose(worker: _Worker) -> "SimJob":
            # Kill and reap it, re-queue the jobs of its chunk that never
            # began, and return the one it was running.
            nonlocal lost
            lost = True
            self.workers.remove(worker)
            worker.process.kill()  # a no-op on a crashed worker
            worker.process.join()
            worker.conn.close()
            remaining.extend(worker.owed[1:])
            return worker.owed[0]

        def feed(worker: _Worker) -> None:
            if not queue:
                return
            worker.owed = queue.pop()
            worker.began = time.perf_counter()
            try:
                worker.conn.send(
                    (worker.owed, [attempts[job.fingerprint] for job in worker.owed])
                )
            except OSError:  # it died idle, before any job of the chunk
                remaining.append(lose(worker))

        for worker in list(self.workers):
            feed(worker)
        while busy := [worker for worker in self.workers if worker.owed]:
            wait_s = None
            if timeout_s is not None:
                due = min(worker.began for worker in busy) + timeout_s
                wait_s = max(0.0, due - time.perf_counter())
            ready = wait([worker.conn for worker in busy], wait_s)
            for worker in busy:
                if worker.conn not in ready:
                    if (
                        timeout_s is not None
                        and time.perf_counter() - worker.began >= timeout_s
                        and not worker.conn.poll()
                    ):
                        job = lose(worker)
                        engine.emit(ExecEvent("timeout", job))
                        error = TimeoutError(
                            f"{job.label} exceeded its {timeout_s}s budget"
                        )
                        engine._retry_or_fail(job, attempts, remaining, error)
                    continue
                try:
                    outcome = worker.conn.recv()
                except (EOFError, OSError):
                    job = lose(worker)
                    crash = EOFError(
                        f"worker {worker.process.pid} died with exit code "
                        f"{worker.process.exitcode}"
                    )
                    engine._retry_or_fail(job, attempts, remaining, crash)
                    continue
                # Sanctioned broad catch: the outcome did not survive the
                # pipe — classify it as the job's error, retry or record.
                except Exception as error:  # lint: disable=R007
                    outcome = error
                job = worker.owed.pop(0)
                began, worker.began = worker.began, time.perf_counter()
                if isinstance(outcome, Exception):
                    engine._retry_or_fail(job, attempts, remaining, outcome)
                else:
                    result = ExecResult.from_payload(job, outcome, "run")
                    engine._store(
                        job, result, queue_wait_s=began - queued_at, absorb=True
                    )
                if not worker.owed:
                    feed(worker)
        # Chunks no worker was left to take never began.
        remaining.extend(job for chunk in reversed(queue) for job in chunk)
        return lost


__all__ = ["POOL_REBUILDS", "execute_local", "trace_chunks"]
