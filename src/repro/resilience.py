"""Fault-tolerant execution policy: taxonomy, retries, backoff, records.

``repro.resilience`` is the policy layer behind the engine's
self-healing behaviour (see docs/RESILIENCE.md):

* an **error taxonomy** — :func:`classify_transient` splits job errors
  into *transient* (a crashed worker, a timeout, an ``OSError``, an
  injected fault — worth retrying) and *permanent*
  (a malformed job, a simulator invariant error — retrying cannot
  help), surfaced as :class:`TransientJobFailure` /
  :class:`PermanentJobFailure`;
* a **retry policy** — :class:`ResilienceConfig` bounds retries, adds
  exponential backoff with deterministic jitter
  (:func:`backoff_delay`), caps per-job wall-clock time on a worker and
  selects fail-fast vs keep-going batch semantics;
* **structured failure records** — :class:`FailureRecord`, the
  JSON-ready shape a failed job leaves behind in keep-going batches and
  in its ``fail`` frame record (schema :data:`repro.schemas.TELEMETRY`).

Everything here is deterministic: the jitter is a hash of the job
fingerprint and attempt index, never ``random``, so two runs of the
same faulted batch behave identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.faults import FaultInjected

#: Error types worth retrying: infrastructure died, not the job itself.
#: ``OSError`` covers the broken-pipe/connection-reset family a dying
#: worker leaves behind; ``EOFError`` is a worker's pipe closing under
#: the job it was running (a crash).
TRANSIENT_ERRORS: tuple[type[BaseException], ...] = (
    TimeoutError,
    OSError,
    EOFError,
    FaultInjected,
)


def classify_transient(error: BaseException) -> bool:
    """True if ``error`` is transient (retryable), False if permanent."""
    return isinstance(error, TRANSIENT_ERRORS)


@dataclass(frozen=True)
class ResilienceConfig:
    """The engine's fault-tolerance knobs (defaults = self-healing on).

    ``max_retries``
        Extra attempts granted to a job whose failure classified as
        transient (permanent failures never retry).
    ``backoff_base_s`` / ``backoff_max_s`` / ``backoff_jitter``
        Exponential backoff between attempts: ``base * 2**(attempt-1)``
        capped at ``backoff_max_s``, stretched by up to ``jitter``
        (deterministically, per job fingerprint).
    ``job_timeout_s``
        Per-job wall-clock deadline on a local worker (``None`` = wait
        forever).  A job begins when its worker sends back the outcome
        of the job before it in the chunk (see
        :func:`repro.exec.backends.trace_chunks`), or when the chunk is
        sent.  A job past its deadline is charged one transient failure
        and its worker is killed; the rest of the chunk goes back
        uncharged.  In-process rounds cannot preempt a running job, so
        the deadline is unenforced there.
    ``keep_going``
        When True a batch never raises on job failure: exhausted jobs
        resolve to failed placeholder results carrying a
        :class:`FailureRecord`, and the batch completes.  When False
        (the default) the first exhausted job raises a
        :class:`JobFailure`.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.25
    job_timeout_s: float | None = None
    keep_going: bool = False

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_retries, int)
            or isinstance(self.max_retries, bool)
            or self.max_retries < 0
        ):
            raise ValueError(
                f"max_retries must be an int >= 0, got {self.max_retries!r}"
            )
        for name, value in (
            ("backoff_base_s", self.backoff_base_s),
            ("backoff_max_s", self.backoff_max_s),
        ):
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if (
            not isinstance(self.backoff_jitter, (int, float))
            or not 0.0 <= self.backoff_jitter <= 1.0
        ):
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter!r}"
            )
        if self.job_timeout_s is not None and (
            not isinstance(self.job_timeout_s, (int, float))
            or self.job_timeout_s <= 0
        ):
            raise ValueError(
                f"job_timeout_s must be > 0 or None, got {self.job_timeout_s!r}"
            )
        if not isinstance(self.keep_going, bool):
            raise ValueError(f"keep_going must be a bool, got {self.keep_going!r}")


def backoff_delay(
    config: ResilienceConfig, fingerprint: str, attempt: int
) -> float:
    """Seconds to wait before ``attempt`` (1-based) of one job.

    Exponential in the attempt index, capped, with deterministic jitter
    drawn from a hash of (fingerprint, attempt) — reproducible, yet
    decorrelated across the jobs of a retrying batch.
    """
    if attempt < 1:
        return 0.0
    base = config.backoff_base_s * (2.0 ** (attempt - 1))
    delay = min(config.backoff_max_s, base)
    digest = hashlib.sha256(f"{fingerprint}|{attempt}".encode()).digest()
    draw = int.from_bytes(digest[:8], "big") / 2.0**64
    return delay * (1.0 + config.backoff_jitter * draw)


@dataclass(frozen=True)
class FailureRecord:
    """What a job that exhausted its attempts leaves behind (JSON-ready)."""

    fingerprint: str
    label: str
    kind: str
    workload: str
    error: str
    message: str
    attempts: int
    transient: bool

    @classmethod
    def from_error(
        cls, job, error: BaseException, attempts: int
    ) -> "FailureRecord":
        """Build the record for ``job`` failing with ``error``."""
        return cls(
            fingerprint=job.fingerprint,
            label=job.label,
            kind=job.kind,
            workload=job.workload,
            error=type(error).__name__,
            message=str(error),
            attempts=attempts,
            transient=classify_transient(error),
        )

    def to_dict(self) -> dict:
        """JSON-ready dump (the fields of a ``fail`` frame record)."""
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "kind": self.kind,
            "workload": self.workload,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "transient": self.transient,
        }

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        nature = "transient" if self.transient else "permanent"
        return (
            f"{self.label}: {nature} {self.error} after "
            f"{self.attempts} attempt(s): {self.message}"
        )


class PoisonJobError(RuntimeError):
    """A broker job outlived or killed K consecutive workers.

    Raised (or recorded, under keep-going) when a job exhausts its
    lease generations in the distributed backend: every worker that
    claimed it crashed, hung past its lease, or died before completing.
    Deliberately *permanent* — the evidence says the job takes workers
    down with it, so handing it to yet another fresh worker would only
    grow the body count.  The broker quarantines the job record instead.
    """


class JobFailure(RuntimeError):
    """A job exhausted its attempts (fail-fast batches raise this)."""

    def __init__(self, record: FailureRecord) -> None:
        super().__init__(record.describe())
        #: The structured record behind the exception.
        self.record = record


class TransientJobFailure(JobFailure):
    """Every attempt hit a transient error — the infrastructure is sick."""


class PermanentJobFailure(JobFailure):
    """The job itself is broken — retrying could never have helped."""


def failure_for(record: FailureRecord) -> JobFailure:
    """The taxonomy-correct :class:`JobFailure` subclass for ``record``."""
    if record.transient:
        return TransientJobFailure(record)
    return PermanentJobFailure(record)


__all__ = [
    "TRANSIENT_ERRORS",
    "FailureRecord",
    "JobFailure",
    "PermanentJobFailure",
    "PoisonJobError",
    "ResilienceConfig",
    "TransientJobFailure",
    "backoff_delay",
    "classify_transient",
    "failure_for",
]
