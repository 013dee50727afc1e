"""The filesystem work broker: shared-cache distributed execution.

The broker (``ExecEngine(broker=...)``, ``--broker DIR``) turns one
directory — typically on a filesystem every participant can reach —
into a crash-tolerant work queue next to the content-addressed result
cache::

    <root>/cache/                the shared ResultStore (source of truth)
    <root>/jobs/<chunk>.json     claimable chunk records (describe() docs)
    <root>/leases/<chunk>.json   leases: claim, heartbeat, the job it is on
    <root>/quarantine/<fp>.json  poison jobs (outlived K straight workers)
    <root>/reclaims/             one record per stolen expired lease

A *coordinator* (:func:`drain`) publishes its unresolved jobs as the
trace chunks the local loop dispatches
(:func:`~repro.exec.backends.trace_chunks`), one record per chunk named
by the hash of its job fingerprints, and polls the shared cache for
results.  A *worker* (:func:`run_worker`, ``cntcache worker``) claims a
chunk by creating its lease exclusively (a hard link that fails when the
name exists), holds the chunk's trace and runs its jobs that have no
result yet, in order, under one heartbeat thread; each result goes to
the cache as its job ends, and the lease names the job it is on.

Crash recovery is lease-based, per job and **at-least-once**: a
SIGKILLed worker stops heartbeating, its lease expires, and the next
claimer *steals* it (an ``os.replace`` to a private name, so exactly one
stealer wins) and reruns the chunk from the job the lease named, at that
job's next *generation*.  Double execution is safe — results are
content-addressed — and the generation counter is the fuse: a job whose
leases expire ``max_generations`` times is *quarantined* alone and
surfaces as a permanent :class:`~repro.resilience.PoisonJobError`.

Deadlines are wall-clock (the one ``time.time`` sanctioned in
``repro.exec``): lease files are compared across *processes and hosts*,
where monotonic clocks don't travel.  TTL slack is expected to absorb
NTP-level skew; renewal only ever extends a deadline.  Nothing here
feeds measurement results — leases are pure coordination.

Resume is free: chunk records and the cache live on disk, so a
restarted coordinator publishes only the jobs no record lists yet,
adopts what workers finished in the meantime as cache hits, and the
drain continues where it stopped.
"""

from __future__ import annotations

import hashlib
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
from repro.exec.backends import trace_chunks
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

#: Version tag of the broker's chunk-record/lease/quarantine layout.
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


def chunk_id(jobs: list[SimJob]) -> str:
    """A chunk record's name: the hash of its jobs' fingerprints, in order."""
    joined = "\n".join(job.fingerprint for job in jobs)
    return hashlib.sha256(joined.encode()).hexdigest()


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
        latency: a SIGKILLed worker's chunk becomes stealable one TTL
        after its last heartbeat.
    ``heartbeat_s``
        Renewal interval (default ``lease_ttl_s / 3`` — two missed
        beats of slack before expiry).
    ``poll_s``
        Idle poll interval for both coordinator and workers.
    ``max_generations``
        Lease generations of one job before it is quarantined as poison
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
        positive = {
            "lease_ttl_s": self.lease_ttl_s,
            "poll_s": self.poll_s,
            "idle_timeout_s": self.idle_timeout_s,
        }
        for name, value in positive.items():
            if not isinstance(value, (int, float)) or value <= 0:
                raise BrokerError(f"{name} must be > 0, got {value!r}")
        if not isinstance(self.spawn, bool):
            raise BrokerError(f"spawn must be a bool, got {self.spawn!r}")
        heartbeat = self.heartbeat_s
        if heartbeat is not None and not (
            isinstance(heartbeat, (int, float)) and 0 < heartbeat < self.lease_ttl_s
        ):
            raise BrokerError(
                f"heartbeat_s must be in (0, lease_ttl_s), got {heartbeat!r}"
            )
        counts = {"worker_respawns": (self.worker_respawns, 0)}
        if self.max_generations is not None:  # None: the retry budget
            counts = {"max_generations": (self.max_generations, 1), **counts}
        for name, (value, least) in counts.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise BrokerError(f"{name} must be an int >= {least}, got {value!r}")

    @property
    def cache_dir(self) -> Path:
        """The shared result store — the broker's single source of truth."""
        return Path(self.root) / "cache"

    @property
    def jobs_dir(self) -> Path:
        """Claimable chunk records, one ``<chunk id>.json`` each."""
        return Path(self.root) / "jobs"

    @property
    def leases_dir(self) -> Path:
        """Live claims: one lease file per chunk being worked on."""
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
    """One worker's claim on one chunk: the job of it the worker is on
    (``fingerprint``), at that job's ``generation``."""

    chunk: str
    fingerprint: str
    worker: str
    generation: int
    deadline: float
    renewals: int = 0

    @property
    def expired(self) -> bool:
        """True once the deadline passed: the claim is stealable."""
        return _wall_now() > self.deadline

    @property
    def holder(self) -> tuple[str, str, int]:
        """Who holds the chunk and where: (worker, job, generation)."""
        return (self.worker, self.fingerprint, self.generation)

    def to_dict(self) -> dict:
        """JSON-ready lease document; inverse of :meth:`from_dict`."""
        return {"schema": BROKER_SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        """Inverse of :meth:`to_dict` (``ValueError`` on a bad field)."""
        lease = cls(**{k: v for k, v in payload.items() if k != "schema"})
        if not (
            isinstance(lease.chunk, str)
            and isinstance(lease.fingerprint, str)
            and isinstance(lease.worker, str)
            and type(lease.generation) is int
            and type(lease.renewals) is int
            and type(lease.deadline) in (int, float)
        ):
            raise ValueError(f"malformed lease: {payload!r}")
        return lease


@dataclass
class Claim:
    """A leased chunk (:meth:`BrokerStore.claim`): its ``jobs`` from the
    one first leased, the ``job`` the worker is on with its ``lease``
    (moved on by :meth:`BrokerStore.advance`), the record's ``trace_id``,
    when the job ``began`` (the hang budget's start) and the ``lock`` that
    orders heartbeat renewals with the worker's own lease writes."""

    jobs: list[SimJob]
    job: SimJob
    lease: Lease
    trace_id: str | None = None
    began: float = field(default_factory=time.monotonic)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def event(self, kind: str, **fields) -> ExecEvent:
        """A transition of the current job, with its generation and ids."""
        trace_id, job = self.trace_id, self.job
        span = None if trace_id is None else span_for(trace_id, job.fingerprint)
        ids = {"trace_id": trace_id, "span_id": span}
        return ExecEvent(kind, job, generation=self.lease.generation, **ids, **fields)


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
        self.resilience = resilience or ResilienceConfig()
        self.emit = emit or EngineCounters().apply
        self.cache = cache or ResultStore(config.cache_dir, self.emit)
        self.max_generations = config.generations(self.resilience)
        #: Chunk records this process found unusable (torn, foreign code
        #: versions) — stops the claim scan from re-parsing them every poll.
        self._skip: set[str] = set()
        #: (device, inode, mtime, size) of each bad file counted, so a
        #: re-read (next poll, a steal's rename) does not count it again.
        self._counted: set[tuple[int, int, int, int]] = set()
        layout = (config.cache_dir, config.jobs_dir, config.leases_dir)
        for directory in (*layout, config.quarantine_dir, config.reclaims_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -------------------------------------------------------------- #
    # paths
    # -------------------------------------------------------------- #
    def job_path(self, chunk: str) -> Path:
        """Where the record of chunk ``chunk`` lives."""
        return self.config.jobs_dir / f"{chunk}.json"

    def lease_path(self, chunk: str) -> Path:
        """Where the lease on chunk ``chunk`` lives."""
        return self.config.leases_dir / f"{chunk}.json"

    def quarantine_path(self, fingerprint: str) -> Path:
        """Where the quarantine record for ``fingerprint`` lives."""
        return self.config.quarantine_dir / f"{fingerprint}.json"

    # -------------------------------------------------------------- #
    # coordinator side: publish
    # -------------------------------------------------------------- #
    def publish(
        self, jobs: list[SimJob], workers: int = 1, trace_id: str | None = None
    ) -> dict[str, list[SimJob]]:
        """Publish ``jobs`` as trace chunks for ``workers`` workers
        (:func:`~repro.exec.backends.trace_chunks`), one record each.

        Returns the chunk records, new or already on disk, that list any
        of ``jobs``, by chunk id.  A job an existing record lists is not
        published again, so a resumed coordinator posts nothing a
        previous drain already did; nor is one with a readable cached
        result or a quarantine record.  With a ``trace_id``, each new
        record carries it once, so workers propagate the coordinator's
        correlation ids (records are still claimable by fleets that
        ignore the field).
        """
        listed: dict[str, list[SimJob]] = {}
        for chunk in self.pending():
            loaded = self.load_chunk(chunk)
            if loaded is not None:
                listed[chunk] = loaded[0]
        known = {job.fingerprint for chunk in listed.values() for job in chunk}
        fresh = [job for job in jobs if job.fingerprint not in known]
        fresh = [job for job in fresh if not self.settled(job)]
        for chunk in trace_chunks(fresh, workers):
            payloads = [job.describe() for job in chunk]
            record: dict = {"schema": BROKER_SCHEMA, "jobs": payloads}
            if trace_id is not None:
                record["trace_id"] = trace_id
            name = chunk_id(chunk)
            records.write_atomic(self.job_path(name), records.dumps(record))
            listed[name] = chunk
        evidence = {"jobs": len(jobs), "published": len(fresh)}
        self.emit(ExecEvent("publish", n=len(fresh), detail=evidence))
        wanted = {job.fingerprint for job in jobs}
        return {
            name: chunk
            for name, chunk in listed.items()
            if any(job.fingerprint in wanted for job in chunk)
        }

    def settled(self, job: SimJob) -> bool:
        """True once ``job`` has a quarantine record or a readable result."""
        quarantined = self.quarantine_path(job.fingerprint).exists()
        return quarantined or self.cache.read(job) is not None

    # -------------------------------------------------------------- #
    # worker side: claim / renew / advance / complete
    # -------------------------------------------------------------- #
    def pending(self) -> list[str]:
        """Chunk ids with a published record, sorted for fairness."""
        try:
            paths = list(self.config.jobs_dir.glob("*.json"))
        except OSError:
            return []
        return sorted(path.stem for path in paths if path.stem not in self._skip)

    def load_chunk(self, chunk: str) -> tuple[list[SimJob], str | None] | None:
        """The published chunk's jobs and trace id, or ``None`` when unusable.

        A bad record (torn, foreign version, jobs that do not hash to its
        name) is skipped for good by this process (a matching fleet may
        own it).
        """

        def parse(record: dict) -> tuple[list[SimJob], str | None]:
            jobs = [job_from_payload(payload) for payload in record["jobs"]]
            if not jobs or chunk_id(jobs) != chunk:
                raise ValueError("hash mismatch")
            trace_id = record.get("trace_id", "")
            if not isinstance(trace_id, str):
                raise ValueError(f"malformed trace_id: {trace_id!r}")
            return jobs, trace_id or None

        loaded = self._read(self.job_path(chunk), parse)
        if isinstance(loaded, records.Skip):
            self._skip.add(chunk)
            evidence = {"chunk": chunk, "reason": loaded.reason}
            self.emit(ExecEvent("skip", detail=evidence))
            return None
        return loaded

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

    def read_lease(self, chunk: str) -> Lease | None:
        """The current lease, or ``None`` (absent, torn, or foreign: no
        live claim either way)."""
        lease = self._read(self.lease_path(chunk), Lease.from_dict)
        return lease if isinstance(lease, Lease) else None

    def claim(self, worker_id: str) -> Claim | None:
        """Try to lease one pending chunk; ``None`` when nothing claimable.

        Scans records in chunk-id order.  A live lease means someone is
        working on it; an expired/torn one is *stolen* (exactly one
        stealer wins the ``os.replace`` race).  The claim starts at the
        chunk's first unsettled job: at the stolen lease's generation + 1
        if that lease named it (a torn one is taken to), else at 1; a job
        past the poison fuse is quarantined and the next one tried.  An
        absent lease is never stolen: the claim creates it, exclusively
        (:meth:`_create_lease`).
        """
        for chunk in self.pending():
            claim = self._try_claim(chunk, worker_id)
            if claim is not None:
                return claim
        return None

    def _try_claim(self, chunk: str, worker_id: str) -> Claim | None:
        lease_path = self.lease_path(chunk)
        # None: no lease file (create one below).  A Skip: a torn or
        # foreign lease, stolen like an expired one.
        prior = self._read(lease_path, Lease.from_dict)
        if isinstance(prior, Lease) and not prior.expired:
            return None  # live claim: someone's working on it
        loaded = self.load_chunk(chunk)
        if loaded is None:
            return None  # completed elsewhere, or unusable (now skipped)
        jobs, trace_id = loaded
        charged, stolen_gen = None, 0
        if prior is not None:
            stolen = self._steal(lease_path, worker_id)
            if stolen is None:
                return None  # lost the steal race
            lost_worker, charged, stolen_gen = stolen
            named = charged or jobs[0].fingerprint
            self._record_reclaim(named, stolen_gen + 1, lost_worker, worker_id)
        for index, job in enumerate(jobs):
            if self.settled(job):
                continue
            # The stolen lease's job (a torn lease: this one) climbs its ladder.
            generation = stolen_gen + 1 if charged in (None, job.fingerprint) else 1
            charged = ""  # the jobs after it never began
            if generation > self.max_generations:
                self.blow_fuse(job, generation - 1)
                continue
            deadline = _wall_now() + self.config.lease_ttl_s
            lease = Lease(chunk, job.fingerprint, worker_id, generation, deadline)
            if not self._create_lease(lease):
                return None  # lost the claim race
            claim = Claim(jobs[index:], job, lease, trace_id)
            self.emit(claim.event("claim", detail={"worker": worker_id}))
            return claim
        # Every job is settled: someone finished it but died before
        # retiring the record.
        self.retire(chunk)
        return None

    def _steal(
        self, lease_path: Path, worker_id: str
    ) -> tuple[str, str | None, int] | None:
        """Atomically take an expired lease: ``(lost worker, the job it
        named, its generation)``.

        ``os.replace`` to a name private to this worker: of N concurrent
        stealers exactly one succeeds, the rest get ``FileNotFoundError``.
        A torn (unparseable) stolen lease counts as generation 1 of an
        unknown job by an unknown worker — the ladder restarts
        conservatively rather than never.
        """
        private = lease_path.with_name(f"{lease_path.name}.steal.{worker_id}")
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
            return ("unknown", None, 1)
        return (stolen.worker, stolen.fingerprint, stolen.generation)

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
        path = self.lease_path(lease.chunk)
        tag = f"{os.getpid()}.{threading.get_ident()}"
        private = path.with_name(f"{path.name}.tmp.{tag}")
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

    def _holds(self, claim: Claim, live: bool = False) -> Lease | None:
        """The on-disk lease if it is still ``claim``'s (same worker, job
        and generation) — and, with ``live``, not expired, so no stealer
        can be taking it — else ``None``."""
        current = self.read_lease(claim.lease.chunk)
        ours = current is not None and current.holder == claim.lease.holder
        return current if ours and not (live and current.expired) else None

    def _write_lease(self, lease: Lease) -> bool:
        """Replace the lease file with ``lease``; False on an I/O error."""
        data = faults.mangle_lease_write(
            lease.fingerprint, records.dumps(lease.to_dict())
        )
        try:
            records.write_atomic(self.lease_path(lease.chunk), data)
        except OSError:
            return False
        return True

    def renew(self, claim: Claim) -> bool:
        """Heartbeat: extend the claim's deadline; False when it was lost.

        Read-check-then-replace: if the on-disk lease is no longer ours,
        a stealer decided we were dead; the renewal is refused and the
        caller should treat its own execution as a benign duplicate
        (results are content-addressed, so finishing anyway is safe).
        """
        with claim.lock:
            current = self._holds(claim)
            if current is None:
                return False
            deadline = _wall_now() + self.config.lease_ttl_s
            renewed = replace(current, deadline=deadline, renewals=current.renewals + 1)
            if not self._write_lease(renewed):
                return False
            claim.lease = renewed
        self.emit(claim.event("renew"))
        return True

    def advance(self, claim: Claim, job: SimJob) -> bool:
        """Move ``claim``'s lease on to ``job`` at generation 1 (it never
        began); False when the lease is no longer ours or has expired."""
        with claim.lock:
            if self._holds(claim, live=True) is None:
                return False
            deadline = _wall_now() + self.config.lease_ttl_s
            moved = {"fingerprint": job.fingerprint, "generation": 1}
            lease = replace(claim.lease, deadline=deadline, **moved)
            if not self._write_lease(lease):
                return False
            claim.job, claim.lease = job, lease
            claim.began = time.monotonic()
        self.emit(claim.event("claim", detail={"worker": lease.worker}))
        return True

    def fail_attempt(self, claim: Claim) -> None:
        """Give up this attempt (transient error): expire our own lease.

        The lease keeps naming the failed job at its generation — with
        an already-past deadline the chunk is immediately stealable, and
        the job climbs the poison-fuse ladder exactly as if this worker
        had crashed.  An expired lease is left to its stealer.
        """
        if self._holds(claim, live=True) is not None:
            self._write_lease(replace(claim.lease, deadline=_wall_now() - 1.0))

    def release(self, claim: Claim) -> None:
        """Give the chunk back between jobs (a graceful stop): remove our
        live lease with no generation charged; an expired one is left to
        its stealer."""
        if self._holds(claim, live=True) is not None:
            self._unlink(self.lease_path(claim.lease.chunk))

    def complete(self, claim: Claim) -> None:
        """Retire a chunk whose every job is settled."""
        self.retire(claim.lease.chunk)
        probe.counter("exec.lease_released")

    def retire(self, chunk: str) -> None:
        """Remove a chunk's record, then its lease."""
        self._unlink(self.job_path(chunk))
        self._unlink(self.lease_path(chunk))

    @staticmethod
    def _unlink(path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # lint: disable=R007
            pass  # raced with another remover: the file is gone either way

    # -------------------------------------------------------------- #
    # quarantine (poison jobs)
    # -------------------------------------------------------------- #
    def quarantine_job(self, job: SimJob, generation: int, reason: str) -> None:
        """Mark ``job`` poison: persist the evidence.  Its chunk-mates
        are untouched; the record settles the job for every claimer.

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
        self.emit(ExecEvent("quarantine", job, detail=evidence))

    def blow_fuse(self, job: SimJob, generation: int) -> None:
        """Quarantine ``job`` after ``generation`` expired leases."""
        self.quarantine_job(
            job,
            generation,
            f"{generation} consecutive lease generation(s) expired without a "
            f"result (poison fuse: {self.max_generations})",
        )

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

    Renewal stops when the lease is stolen (we were presumed dead), and
    pauses while the current job has run past a ``budget_s`` wall budget
    — the hang protection: a worker stuck inside a job stops refreshing
    its claim, the lease expires, and the fleet reclaims the chunk even
    though this process never returns.
    """
    done = threading.Event()

    def renew() -> None:
        while not done.wait(interval):
            if budget_s is not None and time.monotonic() - claim.began >= budget_s:
                continue  # over budget: let the lease lapse (hang guard)
            if not store.renew(claim):
                return  # stolen: the chunk belongs to someone else now

    name = f"lease-heartbeat-{claim.lease.chunk[:8]}"
    thread = threading.Thread(target=renew, daemon=True, name=name)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join(timeout=5.0)


def _run_chunk(
    store: BrokerStore, claim: Claim, more: Callable[[], bool]
) -> Callable[[Claim], None]:
    """Run a claimed chunk's unsettled jobs in order, each result written
    to the shared cache as its job ends; returns how the claim ends.

    A transient error ends it with :meth:`BrokerStore.fail_attempt` (the
    per-job ladder a crash would climb); a permanent one quarantines the
    job alone and the chunk goes on.  A stop at a job boundary (``more``)
    or a lost lease ends it with :meth:`BrokerStore.release`, the end of
    the chunk with :meth:`BrokerStore.complete`.
    """
    for job in claim.jobs:
        if job is not claim.job:
            if store.settled(job):
                continue
            if not more() or not store.advance(claim, job):
                return store.release
        generation = claim.lease.generation
        try:
            result = _worker.execute_job(job, attempt=generation - 1)
        # Sanctioned broad catch: classified below into the same
        # transient/permanent taxonomy the local loop uses.
        except Exception as error:  # lint: disable=R007
            transient = classify_transient(error)
            name = type(error).__name__
            detail = dict(worker=claim.lease.worker, error=name, transient=transient)
            store.emit(claim.event("attempt_failed", detail=detail))
            if transient:
                return store.fail_attempt
            store.quarantine_job(job, generation, f"permanent {name}: {error}")
            continue
        event = claim.event("finish", result=result)
        if event.trace_id is not None and result.trace:
            # Correlation ids ride the trace snapshot (transport
            # observability, excluded from the canonical measurement) so
            # a fleet's traces stitch into one timeline.
            result.trace.setdefault("trace_id", event.trace_id)
            result.trace.setdefault("span_id", event.span_id)
        store.cache.write(job, result)
        store.emit(event)
    return store.complete


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
    """One worker loop: lease a chunk, heartbeat, run its jobs, repeat.

    A chunk runs under one lease and one heartbeat thread, holding one
    trace (:func:`~repro.exec.worker.hold_trace`; see :func:`_run_chunk`).
    The loop exits after ``idle_timeout_s`` with nothing claimable, or at
    the first job boundary once ``max_jobs`` jobs were claimed or ``stop``
    is set (the CLI wires SIGTERM to it), releasing its chunk uncharged.
    ``hard_faults=True`` marks the process a fault-injection *worker*
    (:func:`repro.faults.mark_worker_process`) so injected crashes really
    ``os._exit`` — reversible, for in-process tests.
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

    stop = threading.Event() if stop is None else stop

    def more() -> bool:
        """False once ``stop`` is set or ``max_jobs`` jobs were claimed."""
        return not stop.is_set() and (max_jobs is None or stats.claimed < max_jobs)

    store = BrokerStore(config, resilience=resilience, emit=emit)
    idle_budget = (
        config.idle_timeout_s if idle_timeout_s is None else idle_timeout_s
    )
    if hard_faults:
        faults.mark_worker_process(True)
    try:
        idle_since = time.monotonic()
        telemetry.heartbeat("idle", force=True, **stats.gauges())
        while more():
            claim = store.claim(identity)
            if claim is None:
                if time.monotonic() - idle_since >= idle_budget:
                    break
                telemetry.heartbeat("idle", **stats.gauges())
                stop.wait(config.poll_s)
                continue
            _worker.hold_trace(claim.job.trace_key)
            with _renewing(
                store, claim, config.heartbeat_interval, resilience.job_timeout_s
            ):
                end = _run_chunk(store, claim, more)
            end(claim)
            idle_since = time.monotonic()
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
        config = self.config
        idle = max(config.idle_timeout_s, 3.0 * config.lease_ttl_s + 5.0)
        command = [sys.executable, "-m", "repro.harness.cli", "worker"]
        command += ["--broker", str(config.root), "--poll", str(config.poll_s)]
        command += ["--lease-ttl", str(config.lease_ttl_s), "--idle-timeout", str(idle)]
        command += ["--max-generations", str(config.generations(self.resilience))]
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
    permanent failures; count reclaims; run the liveness watchdog over
    one lease per open chunk; retire chunks whose jobs are all settled;
    keep the local fleet staffed.
    """
    config = engine.broker
    if config is None:
        raise BrokerError("broker backend selected without a BrokerConfig")
    if engine.store is None:
        raise BrokerError("broker engine has no result store")
    telemetry = engine.telemetry
    store = BrokerStore(config, engine.resilience, engine.emit, engine.store)
    unresolved: dict[str, SimJob] = {job.fingerprint: job for job in pending}
    ours = set(unresolved)
    chunks: dict[str, list[SimJob]] = {}
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

    def retire_settled() -> None:
        """Retire the chunks with no job left to resolve (a worker that
        died after its chunk's last result leaves the record behind)."""
        for name, chunk in list(chunks.items()):
            if any(job.fingerprint in unresolved for job in chunk):
                continue
            del chunks[name]
            if all(job.fingerprint in ours or store.settled(job) for job in chunk):
                store.retire(name)

    # The fleet starts first: its workers' interpreter start-up overlaps
    # the sweep and the publish.
    fleet = None
    if config.spawn:
        count = min(engine.jobs, len(pending))
        fleet = _Fleet(config, engine.resilience, count, engine.progress)
    try:
        store.sweep()
        chunks = store.publish(pending, engine.jobs, trace_id=engine.trace_id)
        listed = {job.fingerprint for chunk in chunks.values() for job in chunk}
        # A chunk runs front to back, so its results land in order; a job
        # no record lists (settled since the engine's cache read) is a lane.
        lanes = [*chunks.values()]
        lanes += ([job] for job in pending if job.fingerprint not in listed)
        while unresolved:
            # 1. Adopt whatever the fleet finished into the engine: each
            #    lane up to its first open job without a result.
            for lane in lanes:
                for job in lane:
                    if job.fingerprint not in unresolved:
                        continue
                    result = store.cache.read(job)
                    if result is None:
                        break
                    result.source = "broker"
                    engine._adopt(job, result)
                    del unresolved[job.fingerprint]
            if not unresolved:
                break
            # 2. Quarantine records become permanent structured failures.
            for record in store.quarantined():
                fingerprint = record.get("fingerprint")
                job = unresolved.pop(fingerprint, None)  # type: ignore[arg-type]
                if job is None:
                    continue
                evidence = {key: record.get(key) for key in QUARANTINE_FIELDS}
                engine.emit(ExecEvent("quarantined", detail=evidence))
                attempts = int(record.get("generation") or store.max_generations)
                reason = record.get("reason") or "poison job quarantined"
                engine._fail(job, PoisonJobError(reason), attempts)
            # 3. Liveness accounting: every stolen expired lease left a
            #    durable reclaim record — consume each exactly once.
            account_reclaims()
            # 4. Watchdog, one lease per open chunk: a job whose lease
            #    expired at the poison fuse is quarantined here in case
            #    every worker is dead and nobody else will reach the
            #    verdict.
            retire_settled()
            for name in chunks:
                lease = store.read_lease(name)
                if lease and lease.expired and lease.fingerprint in unresolved:
                    if lease.generation >= store.max_generations:
                        store.blow_fuse(unresolved[lease.fingerprint], lease.generation)
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
            time.sleep(config.poll_s)
        # Final pass: the loop exits the moment the last job is adopted,
        # which can leave that job's reclaim record unread and its chunk
        # unretired.
        account_reclaims()
        retire_settled()
        counters = engine.counters
        evidence = {
            "jobs": len(pending),
            "reclaims": counters.reclaims,
            "workers_lost": counters.workers_lost,
            "quarantined": counters.quarantined,
        }
        engine.emit(ExecEvent("drain", detail=evidence))
        if telemetry is not None:
            telemetry.heartbeat("draining", force=True, queue_depth=0, unresolved=0)
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
    "chunk_id",
    "default_worker_id",
    "drain",
    "run_worker",
]
