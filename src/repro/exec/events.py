"""One record per job transition, and the folds that count it.

Every transition a job, a batch or a broker lease goes through is one
:class:`ExecEvent`, emitted once to its process's ``emit`` callable
(:meth:`repro.exec.engine.ExecEngine.emit` in a coordinator, the loop's
closure in :func:`repro.exec.broker.run_worker`; the result and broker
stores take it too).  Every accounting channel is a reader of the event:
:meth:`EngineCounters.apply` is the only writer of the counters and of
their ``exec.*`` probe counters (:data:`COUNTED`),
:meth:`repro.exec.broker.WorkerStats.apply` is the worker-side fold,
:func:`repro.obs.telemetry.lifecycle_frame` maps it to its one on-disk
record (the frame that run manifests and telemetry streams both write)
and :func:`progress_line` to its ``--progress`` line (``None`` where the
kind has none).  docs/OBSERVABILITY.md tabulates
every kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs import probe

if TYPE_CHECKING:
    from repro.exec.job import SimJob
    from repro.exec.result import ExecResult


@dataclass(slots=True)
class ExecEvent:
    """One transition, as every channel sees it.

    ``result`` is a resolution's result (a keep-going ``fail`` carries
    the failed placeholder, a fail-fast one none); ``n`` is what the
    event counts (batch, publish and sweep sizes); ``generation`` is the
    lease generation, or a ``retry``'s attempt number; ``detail`` holds
    the kind's evidence — for broker kinds, exactly the fields of their
    frame record.
    """

    kind: str
    job: SimJob | None = None
    result: ExecResult | None = None
    n: int = 1
    generation: int = 0
    queue_wait_s: float = 0.0
    trace_id: str | None = None
    span_id: str | None = None
    detail: dict[str, Any] | None = None


#: Event kind -> the (EngineCounters field, registered probe counter)
#: pairs it bumps by ``event.n``.  Kinds absent here count nothing.
COUNTED: dict[str, tuple[tuple[str, str | None], ...]] = {
    "requested": (("requested", "exec.requested"),),
    "memo": (("memo_hits", "exec.memo_hits"),),
    "cache_hit": (("unique", None), ("cache_hits", "exec.cache_hits")),
    "miss": (("unique", None),),
    "run": (("executed", "exec.executed"),),
    "adopt": (("executed", "exec.executed"),),
    "retry": (("retries", "exec.retries"),),
    "timeout": (("timeouts", "exec.timeouts"),),
    "pool_rebuild": (("rebuilds", "exec.rebuilds"),),
    "serial_fallback": (("serial_fallbacks", "exec.serial_fallbacks"),),
    "fail": (("failures", "exec.failures"),),
    "cache_corrupt": (("cache_corrupt", "exec.cache_corrupt"),),
    "cache_read_error": (("cache_read_errors", "exec.cache_read_errors"),),
    "cache_write_error": (("cache_write_errors", "exec.cache_write_errors"),),
    "tmp_swept": (("tmp_swept", None),),
    "corrupt_swept": (("corrupt_swept", None),),
    "lease_swept": (("lease_swept", None),),
    "publish": (("published", "exec.broker_published"),),
    "claim": (("claims", "exec.lease_acquired"),),
    "renew": (("lease_renewals", "exec.lease_renewals"),),
    "steal": (("reclaims", "exec.reclaims"),),
    "reclaim": (("reclaims", "exec.reclaims"),),
    "worker_lost": (("workers_lost", "exec.workers_lost"),),
    "quarantined": (("quarantined", "exec.quarantined"),),
}

#: Kinds that resolve a job: each prints one ``[exec N]`` progress line.
RESOLUTIONS = frozenset({"memo", "cache_hit", "run", "adopt", "fail"})

#: Progress lines of the other kinds, formatted over the job label, the
#: event generation and ``detail``.
PROGRESS: dict[str, str] = {
    "retry": "[exec] retry {generation}/{of} {label}: {error}",
    "cache_corrupt": "[exec] quarantined corrupt cache entry {entry}",
    "cache_read_error": "[exec] cache read failed for {label}: {reason}",
    "cache_write_error": "[exec] cache write failed for {label}: {error}",
    "skip": "[broker] skipping unusable chunk record {chunk:.12}: {reason}",
    "steal": (
        "[broker] reclaimed expired lease {fingerprint:.12} "
        "from {lost_worker} (generation {generation})"
    ),
    "quarantine": "[broker] quarantined poison job {label}: {reason}",
    "claim": "[worker {worker}] claimed {label} (generation {generation})",
    "attempt_failed": (
        "[worker {worker}] transient {error} on {label}; "
        "lease released for retry"
    ),
}


@dataclass
class EngineCounters:
    """Running totals of everything the engine resolved (a fold of events)."""

    requested: int = 0
    unique: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    rebuilds: int = 0
    serial_fallbacks: int = 0
    failures: int = 0
    cache_corrupt: int = 0
    cache_read_errors: int = 0
    cache_write_errors: int = 0
    tmp_swept: int = 0
    corrupt_swept: int = 0
    lease_swept: int = 0
    # broker backend (coordinator side unless noted)
    published: int = 0
    claims: int = 0  # worker side: leases acquired
    lease_renewals: int = 0  # worker side: heartbeat renewals
    reclaims: int = 0
    workers_lost: int = 0
    quarantined: int = 0

    def apply(self, event: ExecEvent) -> None:
        """Fold one event in; the only writer of every field here."""
        n = event.n
        totals = self.__dict__
        for name, metric in COUNTED.get(event.kind, ()):
            totals[name] += n
            if metric is not None and n:
                probe.counter(metric, n)

    @property
    def resolved(self) -> int:
        """Total resolutions, however they were served."""
        return self.memo_hits + self.cache_hits + self.executed

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of resolutions served without simulating (0 if none)."""
        resolved = self.resolved
        if not resolved:
            return 0.0
        return (self.memo_hits + self.cache_hits) / resolved

    def to_dict(self) -> dict:
        """JSON-ready totals (manifest summaries, ``profile --json``)."""
        fields = list(self.__dict__.items())  # declaration order
        rates = [("resolved", self.resolved), ("cache_hit_rate", self.cache_hit_rate)]
        return dict(fields[:5] + rates + fields[5:])

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        return summary_line(
            f"{self.requested} requested, {self.unique} unique, "
            f"{self.memo_hits} memo hit(s), {self.cache_hits} cache "
            f"hit(s), {self.executed} simulated",
            ("retried", self.retries),
            ("timed out", self.timeouts),
            ("pool rebuild(s)", self.rebuilds),
            ("serial fallback(s)", self.serial_fallbacks),
            ("failed", self.failures),
            ("corrupt cache entr(ies)", self.cache_corrupt),
            ("cache read error(s)", self.cache_read_errors),
            ("reclaimed", self.reclaims),
            ("worker(s) lost", self.workers_lost),
            ("quarantined", self.quarantined),
        )


def summary_line(head: str, *extras: tuple[str, int]) -> str:
    """``head``, then ``"<count> <name>"`` for every nonzero extra."""
    return ", ".join([head, *(f"{n} {name}" for name, n in extras if n)])


def progress_line(event: ExecEvent, counters: EngineCounters) -> str | None:
    """The ``--progress`` line of ``event`` (``None``: it prints none).

    A resolution prints ``[exec N]`` with ``N`` the resolutions so far
    (``counters`` must already hold the event).
    """
    kind, job = event.kind, event.job
    if kind in RESOLUTIONS:
        result = event.result
        if result is None:
            return None  # a fail-fast failure raises instead
        rate = result.accesses_per_s
        rate_text = f"{rate / 1000:.1f}k acc/s" if rate else "-"
        source = "memo" if kind == "memo" else result.source
        return (
            f"[exec {counters.resolved}] {source:<5} "
            f"{result.wall_s:7.3f}s {rate_text:>12}  {job.label}"
        )
    template = PROGRESS.get(kind)
    detail = event.detail or {}
    if template is None or (kind == "attempt_failed" and not detail["transient"]):
        return None
    fields = {
        "label": None if job is None else job.label,
        "generation": event.generation,
    }
    fields.update(detail)
    return template.format_map(fields)


__all__ = [
    "COUNTED",
    "PROGRESS",
    "RESOLUTIONS",
    "EngineCounters",
    "ExecEvent",
    "progress_line",
    "summary_line",
]
