"""Job/plan execution engine: deduplicated, parallel, cached experiment runs.

Experiments *declare* the simulations they need as frozen, content-hashed
:class:`SimJob` values; a :class:`~repro.exec.planner.Planner` dedupes
them and an :class:`ExecEngine` resolves them — via in-memory memo, the
content-addressed on-disk cache, or actual (optionally multi-process)
execution.  Execution is self-healing: transient failures retry with
backoff, broken pools rebuild (then degrade to serial), and keep-going
batches collect structured :class:`FailureRecord` results — see
:mod:`repro.resilience` and docs/RESILIENCE.md.  See docs/EXECUTION.md
for the job model, hash scheme, cache layout and invalidation rules.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.exec.broker import (
        BrokerConfig,
        BrokerError,
        WorkerStats,
        run_worker,
    )
    from repro.exec.engine import EngineError, ExecEngine, run_selftest
    from repro.exec.events import EngineCounters, ExecEvent
    from repro.exec.job import (
        ENGINE_SCHEMA,
        JOB_KINDS,
        JobError,
        SimJob,
        audit_job,
        code_fingerprint,
        job_from_payload,
        l2_job,
        normalize_config,
        oracle_job,
        trace_job,
        workload_job,
    )
    from repro.exec.planner import Plan, Planner, plan_jobs
    from repro.exec.result import ExecResult, ResultError
    from repro.exec.store import ResultStore
    from repro.exec.worker import execute_job, execute_payload
    from repro.resilience import (
        FailureRecord,
        JobFailure,
        PermanentJobFailure,
        PoisonJobError,
        ResilienceConfig,
        TransientJobFailure,
    )

__all__ = [
    "ENGINE_SCHEMA",
    "JOB_KINDS",
    "BrokerConfig",
    "BrokerError",
    "EngineCounters",
    "EngineError",
    "ExecEngine",
    "ExecEvent",
    "ExecResult",
    "FailureRecord",
    "JobError",
    "JobFailure",
    "PermanentJobFailure",
    "Plan",
    "Planner",
    "PoisonJobError",
    "ResilienceConfig",
    "ResultError",
    "ResultStore",
    "SimJob",
    "TransientJobFailure",
    "WorkerStats",
    "audit_job",
    "code_fingerprint",
    "execute_job",
    "execute_payload",
    "job_from_payload",
    "l2_job",
    "normalize_config",
    "oracle_job",
    "plan_jobs",
    "run_selftest",
    "run_worker",
    "trace_job",
    "workload_job",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ENGINE_SCHEMA": "repro.exec.job",
        "JOB_KINDS": "repro.exec.job",
        "BrokerConfig": "repro.exec.broker",
        "BrokerError": "repro.exec.broker",
        "EngineCounters": "repro.exec.events",
        "EngineError": "repro.exec.engine",
        "ExecEngine": "repro.exec.engine",
        "ExecEvent": "repro.exec.events",
        "ExecResult": "repro.exec.result",
        "FailureRecord": "repro.resilience",
        "JobError": "repro.exec.job",
        "JobFailure": "repro.resilience",
        "PermanentJobFailure": "repro.resilience",
        "Plan": "repro.exec.planner",
        "Planner": "repro.exec.planner",
        "PoisonJobError": "repro.resilience",
        "ResilienceConfig": "repro.resilience",
        "ResultError": "repro.exec.result",
        "ResultStore": "repro.exec.store",
        "SimJob": "repro.exec.job",
        "TransientJobFailure": "repro.resilience",
        "WorkerStats": "repro.exec.broker",
        "audit_job": "repro.exec.job",
        "code_fingerprint": "repro.exec.job",
        "execute_job": "repro.exec.worker",
        "execute_payload": "repro.exec.worker",
        "job_from_payload": "repro.exec.job",
        "l2_job": "repro.exec.job",
        "normalize_config": "repro.exec.job",
        "oracle_job": "repro.exec.job",
        "plan_jobs": "repro.exec.planner",
        "run_selftest": "repro.exec.engine",
        "run_worker": "repro.exec.broker",
        "trace_job": "repro.exec.job",
        "workload_job": "repro.exec.job",
    },
)
