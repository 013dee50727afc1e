"""Execution backends: how a batch of pending jobs actually runs.

The engine's resolve pipeline (dedup -> memo -> cache) is backend
independent; only the final step — executing whatever the cache could
not serve — varies.  This registry names those strategies, mirroring
:mod:`repro.backends` (the *simulation* backend registry) in shape:

``local-serial``
    In-process execution with bounded retries; what ``jobs=1`` always
    did, and the degradation target every other backend falls back to.
``local-pool``
    ``ProcessPoolExecutor`` rounds with retries, per-job timeouts, pool
    rebuilds and serial fallback; what ``jobs > 1`` always did.
``broker``
    The distributed mode (:mod:`repro.exec.broker`): the engine becomes
    a coordinator publishing claimable job records into a filesystem
    broker directory, and any number of ``cntcache worker`` processes
    drain them through the shared result cache.

Every backend routes outcomes through the same engine helpers
(``_store`` / ``_fail`` / ``_should_retry``), so the resilience policy
(:class:`repro.resilience.ResilienceConfig`) and the failure taxonomy
transfer unchanged — a retry is a retry whether the attempt died in a
pool worker or on a leased broker worker.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.exec.result import ExecResult
from repro.exec.worker import (
    execute_job,
    execute_payload,
    init_worker_observability,
)
from repro.obs import probe, trace
from repro.resilience import backoff_delay

if TYPE_CHECKING:
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
        """Run each job in this process, retrying transient failures."""
        config = engine.resilience
        for job in pending:
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
                            backoff_delay(config, job.fingerprint, attempt)
                        )
                        continue
                    engine._fail(job, error, attempt + 1)
                    break
                engine._store(job, result)
                break


class LocalPoolBackend(ExecBackend):
    """Worker-pool execution: retries, timeouts, rebuilds, fallback.

    Jobs run in rounds.  A round submits everything still unresolved
    and harvests results in submission order; a failure classified
    transient re-queues its job for the next round (up to
    ``max_retries``).  A timeout or a ``BrokenProcessPool`` *condemns*
    the pool — finished futures are still harvested, the rest re-queue,
    and the pool is rebuilt (``pool_rebuilds`` times) before the engine
    degrades to serial in-process execution for whatever remains.
    """

    name = "local-pool"

    def execute(self, engine: "ExecEngine", pending: "list[SimJob]") -> None:
        """Run the jobs in worker-pool rounds (see the class docstring)."""
        config = engine.resilience
        workers = min(engine.jobs, len(pending))
        # Force-enable probes/tracing in the workers iff they are on
        # here; per-job captures come back inside the result payloads.
        initializer = initargs = None
        if probe.ENABLED or trace.ACTIVE:
            initializer = init_worker_observability
            initargs = (probe.ENABLED, trace.ACTIVE, trace.EVERY, trace.CAPACITY)
        attempts: dict[str, int] = {job.fingerprint: 0 for job in pending}
        remaining = list(pending)
        rebuilds_left = config.pool_rebuilds
        pool = self._make_pool(workers, initializer, initargs)
        try:
            while remaining:
                batch, remaining = remaining, []
                condemned = False
                done_at: dict[int, float] = {}
                queued_at = time.perf_counter()
                futures = [
                    pool.submit(execute_payload, job, attempts[job.fingerprint])
                    for job in batch
                ]
                for future in futures:
                    future.add_done_callback(
                        lambda f, d=done_at: d.setdefault(
                            id(f), time.perf_counter()
                        )
                    )
                for job, future in zip(batch, futures):
                    if condemned and not future.done():
                        # The pool is already condemned; don't wait on it.
                        future.cancel()
                        remaining.append(job)
                        continue
                    try:
                        payload = future.result(timeout=config.job_timeout_s)
                    except FuturesTimeoutError:
                        condemned = True
                        engine.counters.timeouts += 1
                        probe.counter("exec.timeouts")
                        engine._retry_or_fail(
                            job,
                            attempts,
                            remaining,
                            TimeoutError(
                                f"{job.label} exceeded the "
                                f"{config.job_timeout_s}s job timeout"
                            ),
                        )
                        continue
                    except BrokenProcessPool as error:
                        condemned = True
                        engine._retry_or_fail(job, attempts, remaining, error)
                        continue
                    # Sanctioned broad catch: a worker raised a real job
                    # error — classify it, retry or record, never swallow.
                    except Exception as error:  # lint: disable=R007
                        engine._retry_or_fail(job, attempts, remaining, error)
                        continue
                    result = ExecResult.from_payload(job, payload, "run")
                    finished = done_at.get(id(future), time.perf_counter())
                    # Turnaround minus worker wall time approximates the
                    # time the job sat waiting for a worker slot.
                    queue_wait = max(
                        0.0, finished - queued_at - result.wall_s
                    )
                    engine._store(
                        job, result, queue_wait_s=queue_wait, absorb=True
                    )
                if condemned:
                    pool.shutdown(wait=False, cancel_futures=True)
                    if remaining and rebuilds_left > 0:
                        rebuilds_left -= 1
                        engine.counters.pool_rebuilds += 1
                        probe.counter("exec.pool_rebuilds")
                        pool = self._make_pool(workers, initializer, initargs)
                    elif remaining:
                        engine.counters.serial_fallbacks += 1
                        probe.counter("exec.serial_fallbacks")
                        LocalSerialBackend().execute(engine, remaining)
                        remaining = []
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
    def _make_pool(
        workers: int, initializer, initargs
    ) -> ProcessPoolExecutor:
        """Build a worker pool, arming observability when requested."""
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
]
