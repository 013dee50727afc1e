"""Execution results: what a :class:`~repro.exec.job.SimJob` produced.

An :class:`ExecResult` separates the *measurement* (``stats`` and
``values``, which must be bit-identical however the job ran — in-process,
in a worker process, or read back from the disk cache) from the
*observability* metadata (``wall_s``, ``source``), which naturally varies
between runs and is excluded from :meth:`ExecResult.canonical`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json

from repro.core.stats import EnergyStats
from repro.exec.job import SimJob
from repro.resilience import FailureRecord


class ResultError(ValueError):
    """Raised on malformed result payloads."""


#: Where a result came from (observability only — never hashed).
#: ``broker`` marks a result a *fleet worker* simulated and the
#: coordinator adopted from the shared cache (distributed backend).
#: ``failed`` marks a keep-going placeholder: the job exhausted its
#: attempts and carries a :class:`~repro.resilience.FailureRecord`
#: instead of a measurement.
SOURCES = ("run", "memo", "cache", "broker", "failed")

#: The keys of a :meth:`ExecResult.payload` document, no more, no fewer.
_PAYLOAD_KEYS = frozenset({"stats", "values", "wall_s", "obs", "trace"})


@dataclass
class ExecResult:
    """The outcome of one executed job.

    ``stats``
        Full :class:`EnergyStats` for ``workload``/``l2`` jobs (``None``
        for kinds that measure no cache energy, and for ``l2`` jobs whose
        filtered stream is empty).
    ``values``
        Kind-specific scalars (oracle bound, audit counters, trace
        characterisation, workload checksum, preload digest...).
    ``wall_s`` / ``source``
        Per-job observability: execution wall time and whether the result
        was simulated (``run``), deduplicated in memory (``memo``) or read
        from the on-disk cache (``cache``).
    ``obs``
        The per-job probe snapshot (counters/timers/events captured by
        :func:`repro.obs.probe.capture` while the job ran) — ``{}`` when
        the job ran with probes disabled.  Like ``wall_s``/``source`` it
        is transport-only observability, excluded from :meth:`canonical`.
    ``trace``
        The per-job trace snapshot (the events captured by
        :func:`repro.obs.trace.capture` while the job ran, tagged with
        the job's label/kind/workload/fingerprint/scheme) — ``{}`` when
        the job ran with tracing disabled.  Transport-only, excluded
        from :meth:`canonical`.
    ``failure``
        ``None`` for real measurements; the structured
        :class:`~repro.resilience.FailureRecord` of a job that exhausted
        its attempts in a keep-going batch (``source == "failed"``,
        ``stats is None``, empty ``values``).
    """

    job: SimJob
    stats: EnergyStats | None = None
    values: dict = field(default_factory=dict)
    wall_s: float = 0.0
    source: str = "run"
    obs: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    failure: FailureRecord | None = None

    @classmethod
    def failed(cls, job: SimJob, record: FailureRecord) -> "ExecResult":
        """The keep-going placeholder for a job that could not resolve."""
        return cls(job=job, source="failed", failure=record)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    @property
    def ok(self) -> bool:
        """True for real measurements, False for failed placeholders."""
        return self.failure is None

    @property
    def accesses(self) -> int:
        """Demand accesses simulated (0 when the job metered none)."""
        if self.stats is not None:
            return self.stats.accesses
        value = self.values.get("accesses", 0)
        return int(value)

    @property
    def accesses_per_s(self) -> float:
        """Simulation throughput of this job (0 when unknown)."""
        if self.wall_s <= 0:
            return 0.0
        return self.accesses / self.wall_s

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def payload(self) -> dict:
        """JSON-ready measurement + wall time; inverse of :meth:`from_payload`.

        This is both the worker -> parent transport format and the on-disk
        cache format, so every execution mode funnels through the same
        (lossless) serialization.  Failed placeholders are not
        measurements and must never enter either channel.
        """
        if self.failure is not None:
            raise ResultError(
                f"failed results are not serializable: {self.failure.label}"
            )
        return {
            "stats": None if self.stats is None else self.stats.to_dict(),
            "values": dict(self.values),
            "wall_s": self.wall_s,
            "obs": dict(self.obs),
            "trace": dict(self.trace),
        }

    @classmethod
    def from_payload(
        cls, job: SimJob, payload: dict, source: str = "run"
    ) -> "ExecResult":
        """Rebuild a result from :meth:`payload` output."""
        if not isinstance(payload, dict) or payload.keys() != _PAYLOAD_KEYS:
            raise ResultError(f"malformed result payload: {payload!r}")
        if source not in SOURCES:
            raise ResultError(f"unknown source {source!r}; known: {SOURCES}")
        stats = payload["stats"]
        values = payload["values"]
        obs = payload["obs"]
        trace = payload["trace"]
        if not isinstance(values, dict):
            raise ResultError("result values must be a dict")
        if not isinstance(obs, dict):
            raise ResultError("result obs snapshot must be a dict")
        if not isinstance(trace, dict):
            raise ResultError("result trace snapshot must be a dict")
        return cls(
            job=job,
            stats=None if stats is None else EnergyStats.from_dict(stats),
            values=dict(values),
            wall_s=float(payload["wall_s"]),
            source=source,
            obs=dict(obs),
            trace=dict(trace),
        )

    def canonical(self) -> str:
        """Deterministic JSON of the measurement only (no wall/source).

        Two executions of the same job are *correct* iff their canonical
        strings are byte-identical — the property ``--selftest`` and the
        determinism suite assert across process and cache boundaries.
        """
        return json.dumps(
            {
                "stats": None if self.stats is None else self.stats.to_dict(),
                "values": self.values,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
