"""The content-addressed result store: one shared cache, many writers.

:class:`ResultStore` owns the on-disk result cache that used to live
inline in :class:`~repro.exec.engine.ExecEngine`.  Factoring it out
matters because the cache is no longer private to one engine: with the
distributed backend (:mod:`repro.exec.broker`) an arbitrary number of
worker processes — possibly on other machines — read and write the same
directory, and the store is their only rendezvous point.

Layout (unchanged from the engine's original cache)::

    <directory>/<fp[:2]>/<fp>.json    one JSON document per result:
        {"schema": ..., "fingerprint": ..., "job": {...}, "payload": {...}}

Entries are written and read through :mod:`repro.records` (atomic
temp-file publish; one validation rule) — concurrent writers of the
same fingerprint race benignly (last writer wins with an identical
document, because results are content-addressed).  A file that fails to
parse is quarantined aside as ``<name>.corrupt``, never deleted in the
hot path: the evidence (torn write? disk fault? foreign writer?)
survives until the startup janitor's TTL reaps it.

The janitor (:meth:`ResultStore.sweep`) reaps orphaned ``*.tmp.*``
files (crashed mid write), aged ``*.corrupt`` quarantine files
(observed, diagnosed or not, either way stale) and — via
:func:`sweep_stale`, which the broker reuses for its own litter — any
other crash residue, each with its own TTL and counter class.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from pathlib import Path

from repro import faults, records
from repro.exec.events import EngineCounters, ExecEvent
from repro.exec.job import ENGINE_SCHEMA, SimJob
from repro.exec.result import ExecResult

#: Orphaned ``*.tmp.*`` cache files older than this are swept on
#: engine startup (crashed writers leave them behind); younger ones may
#: belong to a live concurrent run sharing the cache directory.
STALE_TMP_TTL_S = 3600.0

#: Quarantined ``*.corrupt`` files older than this are swept on engine
#: startup.  A day is long enough to inspect the evidence of a torn
#: write; without a TTL they accumulate forever on a long-lived cache.
STALE_CORRUPT_TTL_S = 86400.0

#: Stale broker-lease litter (``*.steal.*`` rename residue, lease tmp
#: files) older than this is swept when a coordinator starts a drain.
STALE_LEASE_TTL_S = 3600.0


def sweep_stale(directory: Path, pattern: str, ttl_s: float) -> int:
    """Unlink files matching ``pattern`` under ``directory`` older than
    ``ttl_s`` seconds; returns how many were removed.

    The shared janitor primitive: the result store uses it for tmp and
    corrupt-file hygiene, the broker for lease litter.  Younger matches
    are kept — they may belong to a live concurrent run.
    """
    if not directory.is_dir():
        return 0
    # Wall clock by necessity: staleness is judged against file mtimes,
    # which are wall-clock stamps.  Never feeds results.
    cutoff = time.time() - ttl_s  # lint: disable=D001
    swept = 0
    for path in directory.glob(pattern):
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                swept += 1
        except OSError:  # lint: disable=R007
            pass  # vanished mid-sweep (concurrent janitor): fine
    return swept


class ResultStore:
    """The content-addressed on-disk result cache (shared, multi-writer)."""

    def __init__(
        self,
        directory: str | Path,
        emit: Callable[[ExecEvent], None] | None = None,
    ) -> None:
        self.directory = Path(directory)
        #: Where cache transitions go (default: a private counter fold).
        self.emit = EngineCounters().apply if emit is None else emit

    def path_for(self, fingerprint: str) -> Path:
        """Where a result with ``fingerprint`` lives (or would live)."""
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def read(self, job: SimJob) -> ExecResult | None:
        """The cached result of ``job``, or ``None`` on any kind of miss.

        An absent file or a valid document of another schema or
        fingerprint is a plain miss; an unreadable one (``OSError``) is
        counted in ``exec.cache_read_errors`` and announced; anything
        else is quarantined aside as ``<name>.corrupt``.
        """
        path = self.path_for(job.fingerprint)
        entry = records.read_record(path, ENGINE_SCHEMA)
        if isinstance(entry, dict) and entry.get("fingerprint") == job.fingerprint:
            try:
                return ExecResult.from_payload(job, entry["payload"], "cache")
            except (ValueError, KeyError, TypeError) as error:
                entry = records.Skip(f"malformed payload: {error}")
        if isinstance(entry, records.Skip) and entry.cause == records.CORRUPT:
            self.quarantine(path)
        elif isinstance(entry, records.Skip) and entry.cause == records.UNREADABLE:
            self.emit(
                ExecEvent("cache_read_error", job, detail={"reason": entry.reason})
            )
        return None

    def quarantine(self, path: Path) -> None:
        """Move an unparseable cache file aside as ``<name>.corrupt``.

        Quarantining instead of silently overwriting keeps the evidence
        (torn write? disk fault? foreign writer?) while still treating
        the entry as a miss.  The startup janitor reaps quarantine files
        after :data:`STALE_CORRUPT_TTL_S`.
        """
        self.emit(ExecEvent("cache_corrupt", detail={"entry": path.name}))
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:  # lint: disable=R007
            pass  # racing reader already moved or removed it

    def write(self, job: SimJob, result: ExecResult) -> None:
        """Persist ``result`` atomically (:func:`repro.records.write_atomic`).

        Write failures are tolerated and counted — the cache is an
        accelerator, not a correctness dependency.
        """
        path = self.path_for(job.fingerprint)
        document = {
            "schema": ENGINE_SCHEMA,
            "fingerprint": job.fingerprint,
            "job": job.describe(),
            "payload": result.payload(),
        }
        data = faults.mangle_cache_write(job.fingerprint, records.dumps(document))
        try:
            faults.maybe_cache_write_error(job.fingerprint)
            path.parent.mkdir(parents=True, exist_ok=True)
            records.write_atomic(path, data)
        except OSError as error:
            self.emit(
                ExecEvent("cache_write_error", job, detail={"error": str(error)})
            )

    def sweep(self) -> None:
        """The startup janitor: reap aged crash residue, per class.

        * ``*.tmp.*`` older than :data:`STALE_TMP_TTL_S` — a writer
          crashed between ``write_text`` and ``os.replace``;
        * ``*.corrupt`` older than :data:`STALE_CORRUPT_TTL_S` —
          quarantined evidence nobody came back for.

        Counted per class (``tmp_swept`` / ``corrupt_swept``) so a cache
        that keeps accumulating residue is visible in summaries.
        """
        tmp = sweep_stale(self.directory, "*/*.tmp.*", STALE_TMP_TTL_S)
        self.emit(ExecEvent("tmp_swept", n=tmp))
        corrupt = sweep_stale(self.directory, "*/*.corrupt", STALE_CORRUPT_TTL_S)
        self.emit(ExecEvent("corrupt_swept", n=corrupt))


__all__ = [
    "STALE_CORRUPT_TTL_S",
    "STALE_LEASE_TTL_S",
    "STALE_TMP_TTL_S",
    "ResultStore",
    "sweep_stale",
]
