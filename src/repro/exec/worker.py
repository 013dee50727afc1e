"""Job execution: the one place a :class:`SimJob` turns into numbers.

:func:`execute_job` runs in whatever process calls it — the engine's
local loop (:func:`repro.exec.backends.execute_local`) calls it directly
in process and runs :func:`execute_chunk` in the worker processes it
owns.  A chunk is a list of jobs over one workload trace
(:func:`repro.exec.backends.trace_chunks`), so one worker's memos serve
the whole group.

A built workload run is memoized in this process (:func:`build_run`),
and everything derived from it hangs on the run: its preload digest,
its L1-filtered streams and the substrate of its last geometry
(:meth:`~repro.workloads.program.WorkloadRun.substrate`), so a sweep of
N configs over one workload builds its trace once and consecutive
workload and oracle jobs of one (trace, geometry) group record the
cache once.  The in-process rounds and :func:`execute_chunk` hold one
trace at a time: when they move on to a job of another trace they drop the
last one's memos (:func:`hold_trace`), so a process's memory is bounded
by its largest trace, not by the sum of the traces it ran.

The job kinds' modules (runner, oracle, L1 filter, audit, the default
simulation engine) are imported here at module level: running them is
this module's purpose, and a worker forked from a parent that imported
it inherits them instead of importing them again in every worker.  Call
sites still look their entry points up on those modules at call time.

Everything here is deterministic: traces are rebuilt from
(name, size, seed), the simulator is seeded from the config, and results
travel as JSON-exact payloads — a worker-process result is bit-identical
to an in-process run (asserted by ``cntcache selftest``).
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from repro import api, faults
from repro.analysis import accuracy
from repro.backends import array  # noqa: F401  (the default engine, see above)
from repro.backends import folds_substrates
from repro.exec.job import SimJob
from repro.exec.result import ExecResult
from repro.harness import multilevel, oracle, runner
from repro.obs import probe, trace
from repro.workloads.program import WorkloadRun, get_workload

#: Per-process workload memo: (name, size, seed) -> built run, with the
#: substrate, preload digest and L1 streams derived from it.
_RUNS: dict[tuple[str, str, int], WorkloadRun] = {}


def build_run(name: str, size: str, seed: int) -> WorkloadRun:
    """Build (or reuse) the deterministic trace of one workload."""
    key = (name, size, seed)
    run = _RUNS.get(key)
    if run is None:
        with probe.timer("phase.workload_build"):
            run = get_workload(name).build(size, seed=seed)
        _RUNS[key] = run
        probe.counter("workload.builds")
    else:
        probe.counter("workload.memo_hits")
    return run


def hold_trace(key: tuple[str, str, int]) -> None:
    """Drop the memos of every trace but ``key`` (the one-trace bound).

    Callers run jobs grouped by trace and call this when they move on to
    another one, so the process holds at most one trace's run with its
    substrate, digest and streams.  A later job over a dropped trace
    rebuilds it; the rebuild is deterministic and counted by
    ``workload.builds``.
    """
    kept = _RUNS.pop(key, None)
    _RUNS.clear()
    if kept is not None:
        _RUNS[key] = kept


def clear_memos() -> None:
    """Drop every per-process memo: each trace, with its substrate,
    preload digest and L1 streams (tests and perfbench start cold)."""
    _RUNS.clear()


# --------------------------------------------------------------------- #
# kind dispatch
# --------------------------------------------------------------------- #
def _substrate(run: WorkloadRun, job: SimJob):
    """The run's recorded substrate at the job's geometry, when its
    engine folds one."""
    assert job.config is not None
    return run.substrate(job.config) if folds_substrates(job.backend) else None


def _execute_workload(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    sim = runner.replay(
        job.config,
        run.trace,
        run.preloads,
        backend=job.backend,
        substrate=_substrate(run, job),
    )
    return ExecResult(
        job=job,
        stats=sim.stats,
        values={
            "checksum": run.checksum,
            "preload_digest": run.image_digest,
        },
    )


def _execute_oracle(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    bound = oracle.oracle_bound(
        job.config,
        run.trace,
        run.preloads,
        backend=job.backend,
        substrate=_substrate(run, job),
    )
    return ExecResult(job=job, values={"oracle_fj": bound, "accesses": run.stats.accesses})


def _execute_l2(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    geometry = dict(job.params)
    stream_key = (job.params, job.backend)
    stream = run.streams.get(stream_key)
    if stream is None:
        # The substrate-L1 replay is memoized infrastructure, not the
        # measurement; pause probes so cache.* counters stay per-job
        # deterministic whatever the worker-process topology.
        with probe.timer("phase.l1_filter"), probe.paused():
            stream = multilevel.l1_filtered_stream(
                run.trace,
                run.preloads,
                l1_size=geometry["l1_size"],
                l1_assoc=geometry["l1_assoc"],
                line_size=geometry["l1_line_size"],
                backend=job.backend,
            )
        run.streams[stream_key] = stream
    values = {
        "stream_accesses": len(stream),
        "stream_writes": sum(1 for access in stream if access.is_write),
    }
    if not stream:
        return ExecResult(job=job, stats=None, values=values)
    sim = runner.replay(job.config, stream, run.preloads, backend=job.backend)
    return ExecResult(job=job, stats=sim.stats, values=values)


def _execute_audit(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    assert job.config is not None
    audit = accuracy.audit_predictions(
        api.make_cache(config=job.config, backend=job.backend),
        run.trace,
        run.preloads,
        substrate=_substrate(run, job),
    )
    values = {
        name: value
        for name, value in audit.as_dict().items()
        if name != "accuracy"  # derived; recomputed from the counters
    }
    values["correct"] = audit.correct
    values["accesses"] = run.stats.accesses
    return ExecResult(job=job, values=values)


def _execute_trace(job: SimJob) -> ExecResult:
    run = build_run(job.workload, job.size, job.seed)
    stats = run.stats
    return ExecResult(
        job=job,
        values={
            "accesses": stats.accesses,
            "reads": stats.reads,
            "writes": stats.writes,
            "bytes_read": stats.bytes_read,
            "bytes_written": stats.bytes_written,
            "one_bits": stats.one_bits,
            "total_bits": stats.total_bits,
            "distinct_lines": stats.distinct_lines,
            "footprint_bytes": stats.footprint_bytes,
            "checksum": run.checksum,
            "preload_digest": run.image_digest,
        },
    )


_DISPATCH = {
    "workload": _execute_workload,
    "oracle": _execute_oracle,
    "l2": _execute_l2,
    "audit": _execute_audit,
    "trace": _execute_trace,
}


def execute_job(job: SimJob, attempt: int = 0) -> ExecResult:
    """Run one job in this process; wall time is measured around the kind.

    With probes enabled, the job runs inside a nested capture scope and
    the snapshot rides home on :attr:`ExecResult.obs` — the payload-dict
    transport that makes per-job counters process-safe.  Tracing works
    the same way: a per-job :class:`~repro.obs.trace.TraceSink` captures
    the access/span events and its tagged snapshot rides home on
    :attr:`ExecResult.trace`.  ``attempt`` is the engine's retry index;
    it only feeds the fault-injection hook
    (:func:`repro.faults.on_job_start`), never the measurement.
    """
    faults.on_job_start(job.fingerprint, attempt)
    started = time.perf_counter()
    with probe.capture() as scope:
        with trace.capture() as sink:
            with trace.span(f"job.{job.kind}", label=job.label):
                with probe.timer(f"phase.{job.kind}"):
                    result = _DISPATCH[job.kind](job)
        if sink is not None:
            snapshot = sink.snapshot()
            snapshot["label"] = job.label
            snapshot["job_kind"] = job.kind
            snapshot["workload"] = job.workload
            snapshot["fingerprint"] = job.fingerprint
            snapshot["scheme"] = None if job.config is None else job.config.scheme
            result.trace = snapshot
            probe.gauge("trace.events", len(snapshot["events"]))
            probe.gauge("trace.dropped", snapshot["dropped"])
    result.wall_s = time.perf_counter() - started
    if scope is not None:
        result.obs = scope.snapshot()
    return result


def init_worker_observability(
    probe_on: bool,
    trace_on: bool = False,
    every: int = 1,
    capacity: int | None = None,
) -> None:
    """Arm the probe/trace switchboards in a fresh worker process.

    The local loop ships the parent's switchboard state to each worker
    it starts, and the worker runs this once, before any job executes.
    """
    if probe_on:
        probe.enable_in_worker()
    if trace_on:
        trace.enable_in_worker(every=every, capacity=capacity)


def execute_payload(job: SimJob, attempt: int = 0) -> dict:
    """Run a job, return its serialized payload.

    Returning the payload (not the :class:`ExecResult`) forces every
    parallel result through the same lossless serialization as the disk
    cache, so parallel and serial runs cannot diverge silently.
    """
    return execute_job(job, attempt=attempt).payload()


def execute_chunk(
    jobs: list[SimJob], attempts: list[int]
) -> Iterator[dict | Exception]:
    """Worker entry point: run a chunk of jobs, yielding each job's
    outcome as the job finishes.

    Each outcome is the job's payload (see :func:`execute_payload`) or
    the exception it raised; one job's error never stops the rest of
    its chunk.  ``attempts[i]`` is the engine's retry index of
    ``jobs[i]``.  The worker holds one trace (:func:`hold_trace`): it
    drops the memos of the last chunk's trace, and of any trace the
    chunk itself leaves, when it moves on to another.
    """
    held = None
    for job, attempt in zip(jobs, attempts):
        if job.trace_key != held:
            held = job.trace_key
            hold_trace(held)
        try:
            outcome: dict | Exception = execute_payload(job, attempt)
        # Sanctioned broad catch: every error is classified and either
        # retried or surfaced as a structured failure (by the engine,
        # once the error travels home as this job's outcome).
        except Exception as error:  # lint: disable=R007
            outcome = error
        yield outcome
