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

from repro.exec.backends import (
    ExecBackendError,
    ExecBackendSpec,
    exec_backend_names,
    exec_backends,
    make_exec_backend,
)
from repro.exec.broker import (
    BrokerConfig,
    BrokerError,
    WorkerStats,
    run_worker,
)
from repro.exec.engine import (
    EngineCounters,
    EngineError,
    ExecEngine,
    run_selftest,
)
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
    "ExecBackendError",
    "ExecBackendSpec",
    "ExecEngine",
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
    "exec_backend_names",
    "exec_backends",
    "execute_job",
    "execute_payload",
    "job_from_payload",
    "l2_job",
    "make_exec_backend",
    "normalize_config",
    "oracle_job",
    "plan_jobs",
    "run_selftest",
    "run_worker",
    "trace_job",
    "workload_job",
]
