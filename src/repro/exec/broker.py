"""The filesystem work broker: shared-cache distributed execution.

The broker (``ExecEngine(broker=...)``, ``--broker DIR``) turns one
directory — typically on a filesystem every participant can reach —
into a crash-tolerant work queue next to the content-addressed result
cache::

    <root>/cache/                the shared ResultStore (source of truth)
    <root>/jobs/<fp>.json        claimable job records (describe() docs)
    <root>/leases/<fp>.json      lease files (exclusive claim, heartbeat renew)
    <root>/quarantine/<fp>.json  poison jobs (outlived K straight workers)

Lifecycle
---------
A *coordinator* (an :class:`~repro.exec.engine.ExecEngine` running
:func:`drain`) publishes one job record per unresolved job, optionally
spawns a local worker fleet, and polls the shared cache for results.  A
*worker* (:func:`run_worker`, the ``cntcache worker`` subcommand) claims
a job by creating its lease file exclusively (a hard link that fails
when the name exists — the filesystem arbitrates the race), renews the
lease's deadline from a heartbeat thread while the job simulates,
writes the result into the shared cache, and removes job record and
lease.

Crash recovery is lease-based and **at-least-once**: a worker that is
SIGKILLed mid-job stops heartbeating, its lease deadline passes, and the
next claimer *steals* the expired lease (an ``os.replace`` to a private
name, so exactly one stealer wins) and re-claims the job at the next
lease *generation*.  Double execution is safe — results are
content-addressed, so the second writer publishes a byte-identical
document — lost work is not, and the generation counter is the fuse: a
job whose leases expire ``max_generations`` times is *quarantined* as a
poison job (it keeps killing or outliving its workers) and surfaces as
a permanent :class:`~repro.resilience.PoisonJobError` failure at the
coordinator, riding the existing :class:`~repro.resilience.FailureRecord`
machinery.

Deadlines are wall-clock (the one ``time.time`` sanctioned in
``repro.exec``): lease files are compared across *processes and hosts*,
where monotonic clocks don't travel.  TTL slack is expected to absorb
NTP-level skew; renewal only ever extends a deadline.  Nothing here
feeds measurement results — leases are pure coordination.

Resume is free: job records and the cache live on disk, so a restarted
coordinator republishes (idempotently) only what its own resolve
pipeline still misses, adopts what workers finished in the meantime as
cache hits, and the drain continues where it stopped.
"""

from __future__ import annotations

import math
import os
import re
import socket
import subprocess
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TypeVar

import repro.exec.worker as _worker
from repro import faults, records
from repro.exec.events import (
    EngineCounters,
    ExecEvent,
    progress_line,
    summary_line,
)
from repro.exec.job import SimJob, job_from_payload
from repro.exec.store import STALE_LEASE_TTL_S, ResultStore, sweep_stale
from repro.obs import probe
from repro.obs.telemetry import (
    TelemetryWriter,
    lifecycle_frame,
    span_for,
    telemetry_dir,
)
from repro.resilience import (
    PoisonJobError,
    ResilienceConfig,
    classify_transient,
)
from repro.schemas import BROKER

#: Version tag of the broker's job-record/lease/quarantine layout.
BROKER_SCHEMA = BROKER.tag

_T = TypeVar("_T")


class BrokerError(RuntimeError):
    """Raised on invalid broker configuration or an unrecoverable drain."""


def _wall_now() -> float:
    """Wall-clock seconds; lease deadlines cross process/host boundaries
    where monotonic clocks are meaningless.  Coordination only — never a
    measurement input."""
    return time.time()  # lint: disable=D001


#: The evidence fields of a reclaim and of a quarantine record: what
#: their frame records carry.
RECLAIM_FIELDS = ("fingerprint", "generation", "lost_worker", "by")
QUARANTINE_FIELDS = ("fingerprint", "label", "generation", "reason")


def _evidence(record: dict) -> dict:
    """``record`` if the fields the coordinator uses have their types."""
    if not (
        isinstance(record.get("fingerprint"), str)
        and type(record.get("generation")) is int
        and isinstance(record.get("lost_worker", ""), str)
    ):
        raise ValueError(f"malformed record: {record!r}")
    return record


def default_worker_id() -> str:
    """A stable, filesystem-safe worker identity: ``<hostname>-<pid>``.

    Deterministic in the process (no uuid/random — lint D002): two
    workers can only collide by sharing a hostname *and* a pid, i.e. by
    being the same process.
    """
    raw = f"{socket.gethostname()}-{os.getpid()}"
    return re.sub(r"[^A-Za-z0-9._-]", "-", raw)


@dataclass(frozen=True)
class BrokerConfig:
    """One broker directory and its coordination policy.

    ``lease_ttl_s``
        How long a claim lives without renewal.  The crash-detection
        latency: a SIGKILLed worker's job becomes stealable one TTL
        after its last heartbeat.
    ``heartbeat_s``
        Renewal interval (default ``lease_ttl_s / 3`` — two missed
        beats of slack before expiry).
    ``poll_s``
        Idle poll interval for both coordinator and workers.
    ``max_generations``
        Lease generations before a job is quarantined as poison
        (default ``resilience.max_retries + 1`` — the retry budget,
        transferred).
    ``spawn`` / ``worker_respawns``
        Whether :func:`drain` runs a local fleet of ``engine.jobs``
        worker subprocesses, and how many replacement workers it may
        start after crashes before giving up.
    ``idle_timeout_s``
        How long a worker with nothing claimable waits before exiting
        cleanly.
    """

    root: str | Path
    lease_ttl_s: float = 30.0
    heartbeat_s: float | None = None
    poll_s: float = 0.2
    max_generations: int | None = None
    spawn: bool = True
    worker_respawns: int = 32
    idle_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if not str(self.root):
            raise BrokerError("root must be a non-empty directory path")
        if (
            not isinstance(self.lease_ttl_s, (int, float))
            or self.lease_ttl_s <= 0
        ):
            raise BrokerError(
                f"lease_ttl_s must be > 0, got {self.lease_ttl_s!r}"
            )
        if not isinstance(self.poll_s, (int, float)) or self.poll_s <= 0:
            raise BrokerError(f"poll_s must be > 0, got {self.poll_s!r}")
        if (
            not isinstance(self.idle_timeout_s, (int, float))
            or self.idle_timeout_s <= 0
        ):
            raise BrokerError(
                f"idle_timeout_s must be > 0, got {self.idle_timeout_s!r}"
            )
        if not isinstance(self.spawn, bool):
            raise BrokerError(f"spawn must be a bool, got {self.spawn!r}")
        if self.heartbeat_s is not None and not (
            isinstance(self.heartbeat_s, (int, float))
            and 0 < self.heartbeat_s < self.lease_ttl_s
        ):
            raise BrokerError(
                f"heartbeat_s must be in (0, lease_ttl_s), got {self.heartbeat_s!r}"
            )
        if self.max_generations is not None and (
            not isinstance(self.max_generations, int)
            or isinstance(self.max_generations, bool)
            or self.max_generations < 1
        ):
            raise BrokerError(
                f"max_generations must be an int >= 1, got {self.max_generations!r}"
            )
        if (
            not isinstance(self.worker_respawns, int)
            or isinstance(self.worker_respawns, bool)
            or self.worker_respawns < 0
        ):
            raise BrokerError(
                f"worker_respawns must be an int >= 0, got {self.worker_respawns!r}"
            )

    @property
    def cache_dir(self) -> Path:
        """The shared result store — the broker's single source of truth."""
        return Path(self.root) / "cache"

    @property
    def jobs_dir(self) -> Path:
        """Claimable job records, one ``<fingerprint>.json`` each."""
        return Path(self.root) / "jobs"

    @property
    def leases_dir(self) -> Path:
        """Live claims: one lease file per job being worked on."""
        return Path(self.root) / "leases"

    @property
    def quarantine_dir(self) -> Path:
        """Poison-job records (jobs that outlived the generation fuse)."""
        return Path(self.root) / "quarantine"

    @property
    def reclaims_dir(self) -> Path:
        """Durable reclaim evidence: one record per stolen expired lease.

        The stealing worker writes it, the coordinator consumes it — a
        reclaim is counted exactly once even when the re-executed job
        finishes between two coordinator polls (a generation bump alone
        is unobservable for sub-poll jobs).
        """
        return Path(self.root) / "reclaims"

    @property
    def heartbeat_interval(self) -> float:
        """Lease renewal period (explicit, or a third of the TTL)."""
        return (
            self.heartbeat_s
            if self.heartbeat_s is not None
            else self.lease_ttl_s / 3.0
        )

    def generations(self, resilience: ResilienceConfig) -> int:
        """The poison fuse: lease generations before quarantine."""
        if self.max_generations is not None:
            return self.max_generations
        return resilience.max_retries + 1


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one job, for one generation."""

    fingerprint: str
    worker: str
    generation: int
    deadline: float
    renewals: int = 0

    @property
    def expired(self) -> bool:
        """True once the deadline passed: the claim is stealable."""
        return _wall_now() > self.deadline

    def to_dict(self) -> dict:
        """JSON-ready lease document; inverse of :meth:`from_dict`."""
        return {"schema": BROKER_SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        """Inverse of :meth:`to_dict` (``ValueError`` on a bad field)."""
        lease = cls(**{k: v for k, v in payload.items() if k != "schema"})
        if not (
            isinstance(lease.fingerprint, str)
            and isinstance(lease.worker, str)
            and type(lease.generation) is int
            and type(lease.renewals) is int
            and type(lease.deadline) in (int, float)
        ):
            raise ValueError(f"malformed lease: {payload!r}")
        return lease


@dataclass(frozen=True)
class Claim:
    """A successfully acquired job: what :meth:`BrokerStore.claim` returns.

    ``trace_id``/``span_id`` are the correlation ids the coordinator
    stamped into the job record (``None`` for records published before
    telemetry, or by a coordinator running without it); the worker
    propagates them into its telemetry frames and the result's trace
    snapshot.  Pure observability — they never enter the job identity.
    """

    job: SimJob
    lease: Lease
    trace_id: str | None = None
    span_id: str | None = None


#: Worker event kind -> the :class:`WorkerStats` field it bumps.
WORKER_COUNTED = {
    "claim": "claimed",
    "finish": "executed",
    "attempt_failed": "failures",
    "quarantine": "quarantined",
    "steal": "reclaims",
    "renew": "renewals",
}


@dataclass
class WorkerStats:
    """What one :func:`run_worker` loop did: a fold of its events (the
    exit summary and the gauges of its telemetry heartbeats)."""

    claimed: int = 0
    executed: int = 0
    failures: int = 0
    quarantined: int = 0
    reclaims: int = 0
    renewals: int = 0
    accesses: int = 0
    busy_s: float = 0.0
    #: Per-job fJ totals, order-safely summed at report time (D005).
    energy_parts: list[float] = field(default_factory=list)

    def apply(self, event: ExecEvent) -> None:
        """Fold one worker event in (:data:`WORKER_COUNTED`)."""
        name = WORKER_COUNTED.get(event.kind)
        if name is None:
            return
        setattr(self, name, getattr(self, name) + 1)
        result = event.result
        if event.kind == "finish" and result is not None:
            self.accesses += result.accesses
            self.busy_s += result.wall_s
            if result.stats is not None:
                self.energy_parts.append(result.stats.total_fj)

    def gauges(self) -> dict:
        """The worker's heartbeat gauges."""
        rate = self.accesses / self.busy_s if self.busy_s > 0 else 0.0
        return {
            "jobs_done": self.executed,
            "claimed": self.claimed,
            "failures": self.failures,
            "accesses": self.accesses,
            "accesses_per_s": round(rate, 1),
            "energy_fj": math.fsum(self.energy_parts),
        }

    def describe(self) -> str:
        """One human-readable exit line for the worker CLI."""
        return summary_line(
            f"{self.claimed} claimed, {self.executed} executed",
            ("failed attempt(s)", self.failures),
            ("quarantined", self.quarantined),
            ("reclaimed", self.reclaims),
            ("heartbeat renewal(s)", self.renewals),
        )


class BrokerStore:
    """Filesystem operations on one broker directory (both roles use it).

    Every mutation is a single atomic filesystem arbitration, no locks:
    documents are published with :func:`repro.records.write_atomic`,
    claims with an exclusive hard link, steals with ``os.replace`` to a
    private name.  A bad record is a skip, each bad file counted once
    per process in ``exec.broker_skips``.  Every transition (publish,
    claim, steal, renewal, quarantine...) goes to ``emit`` as one
    :class:`~repro.exec.events.ExecEvent` (default: a private counter
    fold).
    """

    def __init__(
        self,
        config: BrokerConfig,
        resilience: ResilienceConfig | None = None,
        emit: Callable[[ExecEvent], None] | None = None,
        cache: ResultStore | None = None,
    ) -> None:
        self.config = config
        self.resilience = (
            ResilienceConfig() if resilience is None else resilience
        )
        self.emit = EngineCounters().apply if emit is None else emit
        self.cache = ResultStore(config.cache_dir, self.emit) if cache is None else cache
        self.max_generations = config.generations(self.resilience)
        #: fingerprint -> (trace_id, span_id) read off published records,
        #: so claims carry the coordinator's correlation ids.
        self.trace_context: dict = {}
        #: Fingerprints this process decided never to claim again
        #: (foreign code versions, quarantined jobs) — stops the claim
        #: scan from re-parsing them every poll.
        self._skip: set[str] = set()
        #: (device, inode, mtime, size) of each bad file counted, so a
        #: re-read (next poll, a steal's rename) does not count it again.
        self._counted: set[tuple[int, int, int, int]] = set()
        for directory in (
            config.cache_dir,
            config.jobs_dir,
            config.leases_dir,
            config.quarantine_dir,
            config.reclaims_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- #
    # paths
    # -------------------------------------------------------------- #
    def job_path(self, fingerprint: str) -> Path:
        """Where the job record for ``fingerprint`` lives."""
        return self.config.jobs_dir / f"{fingerprint}.json"

    def lease_path(self, fingerprint: str) -> Path:
        """Where the lease for ``fingerprint`` lives."""
        return self.config.leases_dir / f"{fingerprint}.json"

    def quarantine_path(self, fingerprint: str) -> Path:
        """Where the quarantine record for ``fingerprint`` lives."""
        return self.config.quarantine_dir / f"{fingerprint}.json"

    # -------------------------------------------------------------- #
    # coordinator side: publish
    # -------------------------------------------------------------- #
    def publish(self, jobs: list[SimJob], trace_id: str | None = None) -> int:
        """Publish claimable records for ``jobs``; returns how many are new.

        Idempotent: an existing record (same content-addressed name) is
        left untouched, so a resumed coordinator republishes nothing a
        previous drain already posted.  Jobs with a readable cached
        result or a quarantine record are already settled and skipped.
        With a ``trace_id``, every new record is stamped with it plus the
        job's derived span id (:func:`repro.obs.telemetry.span_for`) so
        workers propagate the coordinator's correlation ids; records are
        still claimable by fleets that ignore the fields.
        """
        published = 0
        for job in jobs:
            fingerprint = job.fingerprint
            path = self.job_path(fingerprint)
            if path.exists() or self.quarantine_path(fingerprint).exists():
                continue
            if self.cache.read(job) is not None:
                continue  # finished since the coordinator's own cache read
            record = {
                "schema": BROKER_SCHEMA,
                "fingerprint": fingerprint,
                "label": job.label,
                "job": job.describe(),
            }
            if trace_id is not None:
                record["trace_id"] = trace_id
                record["span_id"] = span_for(trace_id, fingerprint)
            records.write_atomic(path, records.dumps(record))
            published += 1
        evidence = {"jobs": len(jobs), "published": published}
        self.emit(ExecEvent("publish", n=published, detail=evidence))
        return published

    # -------------------------------------------------------------- #
    # worker side: claim / renew / complete
    # -------------------------------------------------------------- #
    def pending(self) -> list[str]:
        """Fingerprints with a published job record, sorted for fairness."""
        try:
            names = sorted(
                path.stem
                for path in self.config.jobs_dir.glob("*.json")
                if path.stem not in self._skip
            )
        except OSError:
            return []
        return names

    def load_job(self, fingerprint: str) -> SimJob | None:
        """Reconstruct the published job, or ``None`` when unusable.

        A bad record (torn, foreign version, another job's hash) is
        skipped for good by this process (a matching fleet may own it).
        """

        def parse(record: dict) -> SimJob:
            job = job_from_payload(record["job"])
            if job.fingerprint != fingerprint:
                raise ValueError("hash mismatch")
            trace_id = record.get("trace_id")
            if trace_id is not None:
                self.trace_context[fingerprint] = (str(trace_id), record.get("span_id"))
            return job

        job = self._read(self.job_path(fingerprint), parse)
        if isinstance(job, records.Skip):
            self._skip.add(fingerprint)
            evidence = {"fingerprint": fingerprint, "reason": job.reason}
            self.emit(ExecEvent("skip", detail=evidence))
            return None
        return job

    def _read(
        self, path: Path, parse: Callable[[dict], _T]
    ) -> _T | records.Skip | None:
        """``parse`` of the record at ``path``, ``None`` if absent, or a
        :class:`~repro.records.Skip` if it is bad or ``parse`` raises
        ``KeyError``/``TypeError``/``ValueError``; each bad file counts
        once per process in ``exec.broker_skips``, however often read."""
        record = records.read_record(path, BROKER_SCHEMA)
        if isinstance(record, dict):
            try:
                return parse(record)
            except (KeyError, TypeError, ValueError) as error:
                record = records.Skip(f"{type(error).__name__}: {error}")
        if record is not None:
            key: tuple[int, int, int, int] | None
            try:
                stat = path.stat()
                key = (stat.st_dev, stat.st_ino, stat.st_mtime_ns, stat.st_size)
            except OSError:
                key = None  # gone already: count it, it cannot be re-read
            if key not in self._counted:
                probe.counter("exec.broker_skips")
                if key is not None:
                    self._counted.add(key)
        return record

    def read_lease(self, fingerprint: str) -> Lease | None:
        """The current lease, or ``None`` (absent, torn, or foreign: no
        live claim either way)."""
        lease = self._read(self.lease_path(fingerprint), Lease.from_dict)
        return lease if isinstance(lease, Lease) else None

    def claim(self, worker_id: str) -> Claim | None:
        """Try to acquire one pending job; ``None`` when nothing claimable.

        Scans published records in fingerprint order.  For each: a live
        lease means someone is working on it; an expired/torn lease is
        *stolen* (renamed to a private name — exactly one stealer wins
        the ``os.replace`` race) and the job re-claimed at the next
        generation; a generation past the poison fuse quarantines the
        job instead.  An absent lease is never stolen: the claim creates
        it at generation 1, and the exclusive create settles any race
        with a peer doing the same (see :meth:`_create_lease`).
        """
        for fingerprint in self.pending():
            claim = self._try_claim(fingerprint, worker_id)
            if claim is not None:
                return claim
        return None

    def _try_claim(self, fingerprint: str, worker_id: str) -> Claim | None:
        lease_path = self.lease_path(fingerprint)
        # None: no lease file (create one below).  A Skip: a torn or
        # foreign lease, stolen like an expired one.
        prior = self._read(lease_path, Lease.from_dict)
        if isinstance(prior, Lease) and not prior.expired:
            return None  # live claim: someone's working on it
        generation = 1
        if prior is not None:
            stolen = self._steal(lease_path, worker_id)
            if stolen is None:
                return None  # lost the steal race
            lost_worker, stolen_generation = stolen
            generation = stolen_generation + 1
            self._record_reclaim(
                fingerprint, generation, lost_worker, worker_id
            )
        job = self.load_job(fingerprint)
        if job is None:
            return None  # completed elsewhere, or unusable (now skipped)
        if self.cache.read(job) is not None:
            # Someone finished it but died before retiring the record.
            self.finish_job(fingerprint)
            return None
        if generation > self.max_generations:
            self.quarantine_job(
                job,
                generation - 1,
                f"{generation - 1} consecutive lease generation(s) expired "
                f"without a result (poison fuse: {self.max_generations})",
            )
            return None
        lease = Lease(
            fingerprint=fingerprint,
            worker=worker_id,
            generation=generation,
            deadline=_wall_now() + self.config.lease_ttl_s,
        )
        if not self._create_lease(lease):
            return None  # lost the claim race
        trace_id, span_id = self.trace_context.get(fingerprint, (None, None))
        self.emit(
            ExecEvent(
                "claim",
                job,
                generation=generation,
                trace_id=trace_id,
                span_id=span_id,
                detail={"worker": worker_id},
            )
        )
        return Claim(
            job=job, lease=lease, trace_id=trace_id, span_id=span_id
        )

    def _steal(self, lease_path: Path, worker_id: str) -> tuple[str, int] | None:
        """Atomically take an expired lease; ``(lost worker, generation)``.

        ``os.replace`` to a name private to this worker: of N concurrent
        stealers exactly one succeeds, the rest get ``FileNotFoundError``.
        A torn (unparseable) stolen lease counts as generation 1 by an
        unknown worker — the ladder restarts conservatively rather than
        never.
        """
        private = lease_path.with_name(
            f"{lease_path.name}.steal.{worker_id}"
        )
        try:
            os.replace(lease_path, private)
        except OSError:
            return None
        stolen = self._read(private, Lease.from_dict)
        try:
            private.unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # leftover steal litter; the janitor TTL-sweeps it
        if not isinstance(stolen, Lease):
            return ("unknown", 1)
        return (stolen.worker, stolen.generation)

    def _record_reclaim(
        self, fingerprint: str, generation: int, lost_worker: str, by: str
    ) -> None:
        """Persist one reclaim for the coordinator to consume, and emit
        the ``steal``."""
        evidence = dict(
            zip(RECLAIM_FIELDS, (fingerprint, generation, lost_worker, by))
        )
        path = self.config.reclaims_dir / f"{fingerprint}.{generation}.json"
        try:
            records.write_atomic(
                path, records.dumps({"schema": BROKER_SCHEMA, **evidence})
            )
        except OSError:  # lint: disable=R007
            pass  # counting evidence only; the reclaim itself happened
        self.emit(ExecEvent("steal", detail=evidence))

    def consume_reclaims(self) -> list[dict]:
        """Take (and delete) every readable reclaim record, exactly once.

        The unlink is the claim on the record: whoever removes it counts
        it, so two coordinators on one broker directory never double
        count an event.
        """
        consumed = []
        for path in sorted(self.config.reclaims_dir.glob("*.json")):
            record = self._read(path, _evidence)  # bad: left for the janitor
            if not isinstance(record, dict):
                continue
            try:
                path.unlink()
            except OSError:  # lint: disable=R007
                continue  # consumed by someone else, or counted next poll
            consumed.append(record)
        return consumed

    def _create_lease(self, lease: Lease) -> bool:
        """Exclusive acquisition; False when someone beat us.

        The lease is written whole under a private name and hard-linked
        into place.  Like an ``O_EXCL`` create the link fails when the
        name exists; unlike one, no reader ever sees the file before its
        content (an empty lease reads as torn, and a torn lease is
        stolen).
        """
        path = self.lease_path(lease.fingerprint)
        private = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        data = faults.mangle_lease_write(
            lease.fingerprint, records.dumps(lease.to_dict())
        )
        private.write_text(data, encoding="utf-8")
        try:
            os.link(private, path)
        except FileExistsError:
            return False
        finally:
            private.unlink(missing_ok=True)
        return True

    def renew(self, claim: Claim) -> bool:
        """Heartbeat: extend the claim's deadline; False when it was lost.

        Read-check-then-replace: if the on-disk lease no longer names
        this worker at this generation, a stealer decided we were dead
        and owns the job now — the renewal is refused and the caller
        should treat its own execution as a benign duplicate (results
        are content-addressed, so finishing anyway is safe).
        """
        current = self.read_lease(claim.lease.fingerprint)
        if current is None or (
            current.worker != claim.lease.worker
            or current.generation != claim.lease.generation
        ):
            return False
        renewed = replace(
            current,
            deadline=_wall_now() + self.config.lease_ttl_s,
            renewals=current.renewals + 1,
        )
        path = self.lease_path(claim.lease.fingerprint)
        data = faults.mangle_lease_write(
            renewed.fingerprint, records.dumps(renewed.to_dict())
        )
        try:
            records.write_atomic(path, data)
        except OSError:
            return False
        self.emit(
            ExecEvent("renew", claim.job, generation=claim.lease.generation)
        )
        return True

    def fail_attempt(self, claim: Claim) -> None:
        """Give up this attempt (transient error): expire our own lease.

        The generation is *kept* — rewriting the lease with an
        already-past deadline makes the job immediately stealable while
        preserving the poison-fuse ladder, exactly as if this worker
        had crashed.
        """
        path = self.lease_path(claim.lease.fingerprint)
        expired = replace(claim.lease, deadline=_wall_now() - 1.0)
        try:
            records.write_atomic(path, records.dumps(expired.to_dict()))
        except OSError:  # lint: disable=R007
            pass  # worst case the lease expires by TTL instead

    def complete(self, claim: Claim) -> None:
        """Retire a finished job: remove its record, then our lease."""
        self.finish_job(claim.lease.fingerprint)
        try:
            self.lease_path(claim.lease.fingerprint).unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # lease already stolen/removed; harmless
        probe.counter("exec.lease_released")

    def finish_job(self, fingerprint: str) -> None:
        """Remove a job record (its result is in the shared cache)."""
        try:
            self.job_path(fingerprint).unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # raced with another finisher: the job is gone either way

    # -------------------------------------------------------------- #
    # quarantine (poison jobs)
    # -------------------------------------------------------------- #
    def quarantine_job(self, job: SimJob, generation: int, reason: str) -> None:
        """Mark ``job`` poison: persist the evidence, retire the record.

        Emits ``quarantine``, which counts nothing on the coordinator:
        it counts the quarantine record once, when it consumes it
        (``quarantined``), however many processes reached the verdict.
        """
        evidence = dict(
            zip(QUARANTINE_FIELDS, (job.fingerprint, job.label, generation, reason))
        )
        record = {"schema": BROKER_SCHEMA, **evidence, "job": job.describe()}
        try:
            records.write_atomic(
                self.quarantine_path(job.fingerprint), records.dumps(record)
            )
        except OSError:  # lint: disable=R007
            pass  # the coordinator watchdog will re-reach the verdict
        self.finish_job(job.fingerprint)
        try:
            self.lease_path(job.fingerprint).unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # racing stealer holds it; it will hit the quarantine too
        self._skip.add(job.fingerprint)
        self.emit(ExecEvent("quarantine", job, detail=evidence))

    def quarantined(self) -> list[dict]:
        """Every readable quarantine record (coordinator consumption)."""
        paths = sorted(self.config.quarantine_dir.glob("*.json"))
        found = [self._read(path, _evidence) for path in paths]
        return [record for record in found if isinstance(record, dict)]

    # -------------------------------------------------------------- #
    # hygiene
    # -------------------------------------------------------------- #
    def sweep(self) -> None:
        """Janitor pass over coordination litter (steal/tmp/stale residue).

        Stale reclaim records (a coordinator that died long before this
        one resumed) are swept too — they are counting evidence, and
        evidence an hour old describes a different run.
        """
        swept = sweep_stale(
            self.config.leases_dir, "*.steal.*", STALE_LEASE_TTL_S
        )
        for directory in (
            self.config.jobs_dir,
            self.config.leases_dir,
            self.config.quarantine_dir,
            self.config.reclaims_dir,
            telemetry_dir(self.config.root),
        ):
            swept += sweep_stale(directory, "*.tmp.*", STALE_LEASE_TTL_S)
        swept += sweep_stale(
            self.config.reclaims_dir, "*.json", STALE_LEASE_TTL_S
        )
        self.emit(ExecEvent("lease_swept", n=swept))


@contextmanager
def _renewing(
    store: BrokerStore, claim: Claim, interval: float, budget_s: float | None
) -> Iterator[None]:
    """Renew ``claim``'s lease every ``interval`` while the block runs.

    Renewal stops when the lease is stolen (we were presumed dead) or
    once a ``budget_s`` wall budget is exhausted — the hang protection:
    a worker stuck inside a job stops refreshing its claim, the lease
    expires, and the fleet reclaims the job even though this process
    never returns.
    """
    done = threading.Event()

    def renew() -> None:
        started = time.monotonic()
        while not done.wait(interval):
            if budget_s is not None and time.monotonic() - started >= budget_s:
                return  # over budget: let the lease lapse (hang guard)
            if not store.renew(claim):
                return  # stolen: the job belongs to someone else now

    name = f"lease-heartbeat-{claim.lease.fingerprint[:8]}"
    thread = threading.Thread(target=renew, daemon=True, name=name)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=5.0)


def run_worker(
    broker: BrokerConfig | str | Path,
    worker_id: str | None = None,
    resilience: ResilienceConfig | None = None,
    idle_timeout_s: float | None = None,
    max_jobs: int | None = None,
    progress: Callable[[str], None] | None = None,
    hard_faults: bool = False,
    stop: threading.Event | None = None,
) -> WorkerStats:
    """One worker loop: claim, heartbeat, execute, publish, repeat.

    Exits cleanly after ``idle_timeout_s`` with nothing claimable, after
    ``max_jobs`` claims, or when ``stop`` is set (the CLI wires SIGTERM
    to it for graceful drain).  ``hard_faults=True`` marks the process a
    fault-injection *worker* (see :func:`repro.faults.mark_worker_process`)
    so injected crashes really ``os._exit`` — reversible, for in-process
    tests.

    Error handling transfers the engine's taxonomy: a transient error
    expires this worker's own lease in place (same fingerprint ladder a
    crash would climb), a permanent error quarantines the job
    immediately — no other worker should die discovering the same bug.
    """
    config = broker if isinstance(broker, BrokerConfig) else BrokerConfig(root=broker)
    resilience = ResilienceConfig() if resilience is None else resilience
    identity = worker_id or default_worker_id()
    # Workers announce themselves on the broker's telemetry bus.  The
    # declared interval is the lease heartbeat period — during a long
    # job the renewal thread is what keeps frames flowing, so that is
    # the largest gap a live worker should ever show.
    telemetry = TelemetryWriter(
        telemetry_dir(config.root),
        identity=identity,
        role="worker",
        declared_interval_s=max(1.0, config.heartbeat_interval),
    )
    counters = EngineCounters()
    stats = WorkerStats()

    def emit(event: ExecEvent) -> None:
        """This worker's one sink list: folds, telemetry, progress."""
        counters.apply(event)
        stats.apply(event)
        frame = lifecycle_frame(event)
        if frame is not None:
            telemetry.write(frame)
        job = event.job
        if event.kind in ("claim", "renew"):
            # A claim announces the job at once; renewals ride the lease
            # heartbeat thread, the only thing running while a long job
            # simulates, so they are what keeps the dashboard live.
            claimed = event.kind == "claim"
            telemetry.heartbeat(
                "running",
                force=claimed,
                job=job.label,
                kind=job.kind,
                generation=event.generation,
                **(stats.gauges() if claimed else {}),
            )
        elif event.kind == "finish" and probe.ENABLED:
            probe.gauge("worker.jobs_done", stats.executed)
            probe.gauge("worker.claimed", stats.claimed)
            probe.gauge("worker.failures", stats.failures)
        if progress is not None:
            line = progress_line(event, counters)
            if line is not None:
                progress(line)

    store = BrokerStore(config, resilience=resilience, emit=emit)
    idle_budget = (
        config.idle_timeout_s if idle_timeout_s is None else idle_timeout_s
    )
    if hard_faults:
        faults.mark_worker_process(True)
    try:
        idle_since = time.monotonic()
        telemetry.heartbeat("idle", force=True, **stats.gauges())
        while stop is None or not stop.is_set():
            claim = store.claim(identity)
            if claim is None:
                if time.monotonic() - idle_since >= idle_budget:
                    break
                telemetry.heartbeat("idle", **stats.gauges())
                time.sleep(config.poll_s)
                continue
            idle_since = time.monotonic()
            generation = claim.lease.generation
            try:
                with _renewing(
                    store, claim, config.heartbeat_interval, resilience.job_timeout_s
                ):
                    result = _worker.execute_job(claim.job, attempt=generation - 1)
            # Sanctioned broad catch: classified below into the same
            # transient/permanent taxonomy the local backends use.
            except Exception as error:  # lint: disable=R007
                transient = classify_transient(error)
                emit(
                    ExecEvent(
                        "attempt_failed",
                        claim.job,
                        generation=generation,
                        trace_id=claim.trace_id,
                        span_id=claim.span_id,
                        detail={
                            "worker": identity,
                            "error": type(error).__name__,
                            "transient": transient,
                        },
                    )
                )
                if transient:
                    store.fail_attempt(claim)
                else:
                    store.quarantine_job(
                        claim.job,
                        generation,
                        f"permanent {type(error).__name__}: {error}",
                    )
            else:
                if claim.trace_id is not None and result.trace:
                    # Correlation ids ride the trace snapshot (transport
                    # observability, excluded from the canonical
                    # measurement) so a fleet's traces stitch into one
                    # timeline.
                    result.trace.setdefault("trace_id", claim.trace_id)
                    result.trace.setdefault("span_id", claim.span_id)
                store.cache.write(claim.job, result)
                store.complete(claim)
                emit(
                    ExecEvent(
                        "finish",
                        claim.job,
                        result,
                        generation=generation,
                        trace_id=claim.trace_id,
                        span_id=claim.span_id,
                    )
                )
            if max_jobs is not None and stats.claimed >= max_jobs:
                break
    finally:
        if hard_faults:
            faults.mark_worker_process(False)
        telemetry.lifecycle("exit", claimed=stats.claimed, executed=stats.executed)
        telemetry.heartbeat("exited", force=True, **stats.gauges())
        telemetry.close()
    return stats


@dataclass
class _Fleet:
    """The coordinator's local worker subprocesses (``spawn=True``)."""

    config: BrokerConfig
    resilience: ResilienceConfig
    count: int
    progress: Callable[[str], None] | None = None
    respawns_left: int = 0
    procs: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.respawns_left = self.config.worker_respawns
        for _ in range(max(1, self.count)):
            self.procs.append(self._spawn())

    def _spawn(self):
        # Spawned workers must outlast any single lease expiry, or an
        # idle fleet could exit while a crashed peer's lease runs down.
        idle = max(
            self.config.idle_timeout_s, 3.0 * self.config.lease_ttl_s + 5.0
        )
        command = [
            sys.executable,
            "-m",
            "repro.harness.cli",
            "worker",
            "--broker",
            str(self.config.root),
            "--lease-ttl",
            str(self.config.lease_ttl_s),
            "--poll",
            str(self.config.poll_s),
            "--idle-timeout",
            str(idle),
            "--max-generations",
            str(self.config.generations(self.resilience)),
        ]
        if self.resilience.job_timeout_s is not None:
            command += ["--job-timeout", str(self.resilience.job_timeout_s)]
        # Workers inherit the parent environment untouched (REPRO_FAULTS
        # and PYTHONPATH included); stdout is discarded so worker chatter
        # can never interleave with the coordinator's rendered output.
        return subprocess.Popen(command, stdout=subprocess.DEVNULL)

    def alive(self) -> int:
        return sum(1 for proc in self.procs if proc.poll() is None)

    def maintain(self, active_jobs: int) -> None:
        """Respawn dead workers while work remains (within budget).

        A worker that died with a nonzero status (injected crash,
        SIGKILL) *and* a clean idle exit both get replaced while jobs
        are unresolved — each replacement spends one respawn.  When the
        whole fleet is dead and the budget is gone, the drain cannot
        finish: raise rather than poll forever.
        """
        if active_jobs <= 0:
            return
        for index, proc in enumerate(self.procs):
            if proc.poll() is None:
                continue
            if self.respawns_left > 0:
                self.respawns_left -= 1
                if self.progress is not None and proc.returncode != 0:
                    self.progress(
                        f"[broker] worker exited with status "
                        f"{proc.returncode}; respawning "
                        f"({self.respawns_left} respawn(s) left)"
                    )
                self.procs[index] = self._spawn()
        if self.alive() == 0 and self.respawns_left <= 0:
            raise BrokerError(
                f"every spawned worker died and the respawn budget is "
                f"exhausted with {active_jobs} job(s) unresolved"
            )

    def shutdown(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()  # SIGTERM: workers drain gracefully
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


def drain(engine, pending: list[SimJob]) -> None:
    """Coordinator loop: publish ``pending``, watch the fleet converge.

    The engine's resolve pipeline already consumed memo and cache hits,
    so ``pending`` is exactly the unfinished remainder — which makes
    coordinator restart a resume for free.  The loop: adopt results as
    they land in the shared cache; convert quarantine records into
    permanent failures; observe lease generations as the liveness
    watchdog (a generation bump = a reclaim from a lost worker); keep
    the local fleet staffed.
    """
    config = engine.broker
    if config is None:
        raise BrokerError("broker backend selected without a BrokerConfig")
    if engine.store is None:
        raise BrokerError("broker engine has no result store")
    telemetry = engine.telemetry
    store = BrokerStore(
        config,
        resilience=engine.resilience,
        emit=engine.emit,
        cache=engine.store,
    )
    store.sweep()
    store.publish(pending, trace_id=engine.trace_id)
    unresolved: dict[str, SimJob] = {job.fingerprint: job for job in pending}
    lost_workers: set[str] = set()

    def account_reclaims() -> None:
        """Emit every durable reclaim record into the engine, once each."""
        for record in store.consume_reclaims():
            lost = record.get("lost_worker") or "unknown"
            evidence = {key: record.get(key) for key in RECLAIM_FIELDS}
            evidence["lost_worker"] = lost
            engine.emit(ExecEvent("reclaim", detail=evidence))
            if lost not in lost_workers:
                lost_workers.add(lost)
                engine.emit(ExecEvent("worker_lost"))
    fleet = (
        _Fleet(
            config,
            engine.resilience,
            count=min(engine.jobs, len(pending)),
            progress=engine.progress,
        )
        if config.spawn
        else None
    )
    try:
        while unresolved:
            progressed = False
            # 1. Adopt whatever the fleet finished into the engine.
            for fingerprint, job in list(unresolved.items()):
                result = store.cache.read(job)
                if result is None:
                    continue
                result.source = "broker"
                engine._adopt(job, result)
                store.finish_job(fingerprint)
                del unresolved[fingerprint]
                progressed = True
            if not unresolved:
                break
            # 2. Quarantine records become permanent structured failures.
            for record in store.quarantined():
                fingerprint = record.get("fingerprint")
                job = unresolved.pop(fingerprint, None)  # type: ignore[arg-type]
                if job is None:
                    continue
                progressed = True
                evidence = {key: record.get(key) for key in QUARANTINE_FIELDS}
                engine.emit(ExecEvent("quarantined", detail=evidence))
                attempts = int(
                    record.get("generation") or store.max_generations
                )
                engine._fail(
                    job,
                    PoisonJobError(
                        record.get("reason") or "poison job quarantined"
                    ),
                    attempts,
                )
            # 3. Liveness accounting: every stolen expired lease left a
            #    durable reclaim record — consume each exactly once.
            account_reclaims()
            # 4. Watchdog: a lease expired at the poison fuse is
            #    quarantined here in case every worker is dead and
            #    nobody else will reach the verdict.
            for fingerprint in list(unresolved):
                lease = store.read_lease(fingerprint)
                if lease is None:
                    continue
                if (
                    lease.expired
                    and lease.generation >= store.max_generations
                ):
                    store.quarantine_job(
                        unresolved[fingerprint],
                        lease.generation,
                        f"{lease.generation} consecutive lease "
                        f"generation(s) expired without a result "
                        f"(poison fuse: {store.max_generations})",
                    )
                    progressed = True  # consumed by step 2 next round
            if fleet is not None:
                fleet.maintain(active_jobs=len(unresolved))
            if telemetry is not None and telemetry.due:
                depth = len(store.pending())
                probe.gauge("broker.queue_depth", depth)
                telemetry.heartbeat(
                    "draining",
                    queue_depth=depth,
                    unresolved=len(unresolved),
                    reclaims=engine.counters.reclaims,
                    quarantined=engine.counters.quarantined,
                )
            if not progressed:
                time.sleep(config.poll_s)
        # Final accounting pass: the loop exits the moment the last job
        # is adopted, which can leave that job's reclaim record unread.
        account_reclaims()
        counters = engine.counters
        evidence = {
            "jobs": len(pending),
            "reclaims": counters.reclaims,
            "workers_lost": counters.workers_lost,
            "quarantined": counters.quarantined,
        }
        engine.emit(ExecEvent("drain", detail=evidence))
        if telemetry is not None:
            telemetry.heartbeat(
                "draining", force=True, queue_depth=0, unresolved=0
            )
    finally:
        if fleet is not None:
            fleet.shutdown()


__all__ = [
    "BROKER_SCHEMA",
    "BrokerConfig",
    "BrokerError",
    "BrokerStore",
    "Claim",
    "Lease",
    "WorkerStats",
    "default_worker_id",
    "drain",
    "run_worker",
]
