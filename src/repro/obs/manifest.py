"""Run manifests: one JSONL record per resolved job, plus a merger.

A manifest is an append-only JSON-lines file:

* line 1 — a ``header`` entry carrying the manifest schema tag;
* one ``job`` entry per *unique job resolution* (job hash, config digest,
  result source, wall time, queue wait, accesses, energy totals and the
  per-job probe counters/timers that travelled back in the result
  payload);
* one ``failure`` entry per job that exhausted its attempts (the
  :class:`repro.resilience.FailureRecord` fields);
* one ``summary`` entry per engine batch (engine counters, batch wall
  time, session-level probe totals).

:func:`read_manifest` parses and validates one file;
:func:`merge_manifests` concatenates several (a batch of runs) and
:func:`summarize` aggregates any entry stream into a
:class:`ManifestSummary` — the data behind ``cntcache profile``.  Every
rate in the summary is zero-guarded: an empty manifest summarizes to
zeros, never to a ``ZeroDivisionError``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import faults, records
from repro.obs import probe
from repro.schemas import MANIFEST

#: Manifest format tag; bump the version in :mod:`repro.schemas` when
#: entry fields change incompatibly.
MANIFEST_SCHEMA = MANIFEST.tag


class ManifestError(ValueError):
    """Raised on malformed manifest files or entries."""


def config_digest(config) -> str | None:
    """Short content hash of a config (``None`` for config-less jobs)."""
    if config is None:
        return None
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------------------ #
# entry constructors
# ------------------------------------------------------------------ #
def header_entry() -> dict:
    """The mandatory first line of every manifest."""
    return {"type": "header", "schema": MANIFEST_SCHEMA}


def job_entry(
    job,
    result,
    queue_wait_s: float = 0.0,
    trace_id: str | None = None,
    span_id: str | None = None,
) -> dict:
    """One resolved job, JSON-ready.

    ``job`` is a :class:`repro.exec.SimJob`, ``result`` the matching
    :class:`repro.exec.ExecResult`; the per-job probe snapshot (if the
    job ran with probes on) rides along in ``result.obs``.  A broker
    coordinator additionally stamps the fleet ``trace_id`` and the
    job's derived ``span_id`` (see :mod:`repro.obs.telemetry`) so
    manifest entries correlate with worker telemetry and trace
    snapshots; both are omitted for untraced runs.
    """
    stats = result.stats
    obs = result.obs or {}
    entry = {
        "type": "job",
        "fingerprint": job.fingerprint,
        "label": job.label,
        "kind": job.kind,
        "workload": job.workload,
        "size": job.size,
        "seed": job.seed,
        "scheme": None if job.config is None else job.config.scheme,
        "config_digest": config_digest(job.config),
        "source": result.source,
        "wall_s": result.wall_s,
        "queue_wait_s": queue_wait_s,
        "accesses": result.accesses,
        "energy": None if stats is None else stats.to_dict(),
        "total_fj": None if stats is None else stats.total_fj,
        "counters": dict(obs.get("counters", {})),
        "timers": dict(obs.get("timers", {})),
        "events": list(obs.get("events", [])),
        "gauges": dict(obs.get("gauges", {})),
    }
    if trace_id is not None:
        entry["trace_id"] = trace_id
        entry["span_id"] = span_id
    return entry


def broker_entry(event: str, **fields) -> dict:
    """One distributed-broker lifecycle event (``repro.exec.broker``).

    ``event`` is one of ``publish`` (job records posted), ``reclaim``
    (an expired lease stolen from a lost worker), ``quarantine`` (a
    poison job retired) or ``drain`` (the coordinator finished); the
    keyword fields carry the event's evidence (fingerprints, counts,
    generations).  Broker entries are observability only — readers that
    predate them (or :func:`summarize`) skip unknown types untouched.
    """
    return {"type": "broker", "event": event, **fields}


#: Event kind (:mod:`repro.exec.events`) -> the broker entry it writes;
#: the entry's fields are the event's evidence (``event.detail``).
BROKER_ENTRIES = {
    "publish": "publish",
    "reclaim": "reclaim",
    "quarantined": "quarantine",
    "drain": "drain",
}


def entry_for(event) -> dict | None:
    """The manifest entry of one job transition, or ``None`` (memo hits
    write none: they resolve a job already recorded)."""
    kind = event.kind
    if kind in ("cache_hit", "run", "adopt"):
        return job_entry(
            event.job,
            event.result,
            queue_wait_s=event.queue_wait_s,
            trace_id=event.trace_id,
            span_id=event.span_id,
        )
    if kind == "fail":
        return {"type": "failure", **event.detail}
    name = BROKER_ENTRIES.get(kind)
    return None if name is None else broker_entry(name, **event.detail)


def summary_entry(engine: dict, wall_s: float, scope=None) -> dict:
    """One engine batch: counters plus the session scope's probe totals."""
    snapshot = scope.snapshot() if scope is not None else {}
    return {
        "type": "summary",
        "engine": dict(engine),
        "wall_s": wall_s,
        "counters": dict(snapshot.get("counters", {})),
        "timers": dict(snapshot.get("timers", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "dropped_events": snapshot.get("dropped_events", 0),
    }


# ------------------------------------------------------------------ #
# writer
# ------------------------------------------------------------------ #
class ManifestWriter:
    """Append JSONL entries to a manifest file (header written lazily)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.entries_written = 0
        self._file = None

    def write(self, entry: dict) -> None:
        """Append one typed entry (opens the file and emits the header first).

        The entry is serialized before anything is written: a non-finite
        number raises ``ValueError`` (readers would skip the line) and
        leaves the file as it was.
        """
        if not isinstance(entry, dict) or "type" not in entry:
            raise ManifestError(f"manifest entries need a 'type': {entry!r}")
        line = records.dumps(entry)
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
            self._emit(records.dumps(header_entry()))
        poison = faults.poison_manifest_line(
            f"{self.path.name}:{self.entries_written}"
        )
        if poison is not None:
            assert self._file is not None
            self._file.write(poison + "\n")
        self._emit(line)

    def _emit(self, line: str) -> None:
        assert self._file is not None
        self._file.write(line + "\n")
        self._file.flush()
        self.entries_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ------------------------------------------------------------------ #
# reader / merger
# ------------------------------------------------------------------ #
def read_manifest(path: str | Path) -> list[dict]:
    """Parse one manifest; raises :class:`ManifestError` without a header.

    A line that is not a JSON object with a ``type`` is skipped and
    counted under ``obs.torn_lines``, so one bad line cannot blank a run.
    The file is read once; a newline is added so that an unterminated
    final line is kept if it parses whole.
    """
    lines, _, _ = records.parse_lines(Path(path).read_bytes() + b"\n", None)
    entries = [entry for entry in lines if "type" in entry]
    if len(entries) < len(lines):
        probe.counter("obs.torn_lines", len(lines) - len(entries))
    if not entries:
        raise ManifestError(f"{path}: empty manifest")
    head = entries[0]
    if head["type"] != "header" or head.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"{path}: bad header {head!r}; expected schema {MANIFEST_SCHEMA!r}"
        )
    return entries


def merge_manifests(paths: Iterable[str | Path]) -> list[dict]:
    """Concatenate several manifests (a batch) into one entry stream."""
    merged: list[dict] = []
    for path in paths:
        merged.extend(read_manifest(path))
    return merged


# ------------------------------------------------------------------ #
# aggregation
# ------------------------------------------------------------------ #
@dataclass
class ManifestSummary:
    """Aggregated view of one or more manifests (all rates zero-guarded)."""

    jobs: int = 0
    accesses: int = 0
    wall_s: float = 0.0
    queue_wait_s: float = 0.0
    total_fj: float = 0.0
    #: kind -> {"jobs", "wall_s", "accesses"}
    by_kind: dict = field(default_factory=dict)
    #: result source ("run"/"cache"/"memo") -> job count
    by_source: dict = field(default_factory=dict)
    #: scheme -> {"jobs", "total_fj", "accesses", "fj_per_access"}
    by_scheme: dict = field(default_factory=dict)
    #: energy component -> fJ total (over jobs that carried EnergyStats)
    energy_fj: dict = field(default_factory=dict)
    #: merged engine counters from summary entries (zeros when absent)
    engine: dict = field(default_factory=dict)
    #: aggregated probe counters (job + summary entries)
    counters: dict = field(default_factory=dict)
    #: aggregated probe timers, seconds
    timers: dict = field(default_factory=dict)
    #: merged point-in-time gauges (last write wins, summary preferred)
    gauges: dict = field(default_factory=dict)
    #: top-N slowest job entries (trimmed)
    slowest: list = field(default_factory=list)
    #: jobs that exhausted their attempts (``failure`` entries)
    failures: int = 0
    #: trimmed failure records (label, error, attempts, transient)
    failed: list = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of resolutions served without simulating (0 if none)."""
        engine = self.engine
        resolved = (
            engine.get("memo_hits", 0)
            + engine.get("cache_hits", 0)
            + engine.get("executed", 0)
        )
        if resolved:
            hits = engine.get("memo_hits", 0) + engine.get("cache_hits", 0)
            return hits / resolved
        total = sum(self.by_source.values())
        if not total:
            return 0.0
        return (total - self.by_source.get("run", 0)) / total

    @property
    def accesses_per_s(self) -> float:
        """Aggregate simulation throughput (0 when no wall time recorded)."""
        if self.wall_s <= 0:
            return 0.0
        return self.accesses / self.wall_s

    def to_dict(self) -> dict:
        """JSON-ready dump (the ``--json`` trending payload)."""
        return {
            "jobs": self.jobs,
            "accesses": self.accesses,
            "wall_s": self.wall_s,
            "queue_wait_s": self.queue_wait_s,
            "total_fj": self.total_fj,
            "cache_hit_rate": self.cache_hit_rate,
            "accesses_per_s": self.accesses_per_s,
            "by_kind": self.by_kind,
            "by_source": self.by_source,
            "by_scheme": self.by_scheme,
            "energy_fj": self.energy_fj,
            "engine": self.engine,
            "counters": self.counters,
            "timers": self.timers,
            "gauges": self.gauges,
            "slowest": self.slowest,
            "failures": self.failures,
            "failed": self.failed,
        }


def _merge_numeric(into: dict, values: dict) -> None:
    for name, value in values.items():
        into[name] = into.get(name, 0) + value


def _finite(value, default: float = 0.0) -> float:
    """``value`` as a finite float; NaN/inf/garbage clamp to ``default``.

    Manifest entries can come off disk (merged batches, foreign
    writers), so a poisoned ``wall_s`` or ``total_fj`` must degrade to
    zero instead of propagating NaN through every per-kind rate.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        return default
    return value if math.isfinite(value) else default


def summarize(entries: Iterable[dict], top: int = 10) -> ManifestSummary:
    """Aggregate an entry stream (headers are skipped, order irrelevant).

    Counter/timer totals come from ``summary`` entries when present (the
    session scope already folds in every job's traffic, so re-adding the
    per-job copies would double-count); a manifest with job entries only
    falls back to summing those.
    """
    summary = ManifestSummary()
    job_entries: list[dict] = []
    job_counters: dict = {}
    job_timers: dict = {}
    saw_summary = False
    for entry in entries:
        kind = entry.get("type")
        if kind == "job":
            job_entries.append(entry)
        elif kind == "summary":
            saw_summary = True
            _merge_numeric(summary.engine, entry.get("engine", {}))
            _merge_numeric(summary.counters, entry.get("counters", {}))
            _merge_numeric(summary.timers, entry.get("timers", {}))
            summary.gauges.update(entry.get("gauges", {}))
        elif kind == "failure":
            summary.failures += 1
            if len(summary.failed) < max(top, 0):
                summary.failed.append(
                    {
                        "label": entry.get("label"),
                        "error": entry.get("error"),
                        "message": entry.get("message"),
                        "attempts": entry.get("attempts", 0),
                        "transient": entry.get("transient"),
                    }
                )

    job_gauges: dict = {}
    for entry in job_entries:
        wall_s = _finite(entry.get("wall_s", 0.0))
        accesses = int(_finite(entry.get("accesses", 0)))
        summary.jobs += 1
        summary.accesses += accesses
        summary.wall_s += wall_s
        summary.queue_wait_s += _finite(entry.get("queue_wait_s", 0.0))
        _merge_numeric(job_counters, entry.get("counters", {}))
        _merge_numeric(job_timers, entry.get("timers", {}))
        job_gauges.update(entry.get("gauges", {}))

        by_kind = summary.by_kind.setdefault(
            entry.get("kind", "?"), {"jobs": 0, "wall_s": 0.0, "accesses": 0}
        )
        by_kind["jobs"] += 1
        by_kind["wall_s"] += wall_s
        by_kind["accesses"] += accesses

        source = entry.get("source", "?")
        summary.by_source[source] = summary.by_source.get(source, 0) + 1

        energy = entry.get("energy")
        if energy:
            components = {
                name: _finite(value)
                for name, value in energy.items()
                if isinstance(value, (int, float)) and name.endswith("_fj")
            }
            _merge_numeric(summary.energy_fj, components)
            total = _finite(entry.get("total_fj") or 0.0)
            # Report-side aggregation of already-metered energy, not a
            # new energy source.
            summary.total_fj += total  # lint: disable=R001
            scheme = entry.get("scheme") or "?"
            by_scheme = summary.by_scheme.setdefault(
                scheme, {"jobs": 0, "total_fj": 0.0, "accesses": 0}
            )
            by_scheme["jobs"] += 1
            by_scheme["total_fj"] += total
            by_scheme["accesses"] += int(_finite(entry.get("accesses", 0)))

    if not saw_summary:
        summary.counters = job_counters
        summary.timers = job_timers
        summary.gauges = job_gauges

    for by_kind in summary.by_kind.values():
        # A kind whose jobs all resolved instantly (memo/cache hits with
        # zero recorded wall time) must rate as 0, never NaN/inf.
        wall = by_kind["wall_s"]
        by_kind["accesses_per_s"] = (
            by_kind["accesses"] / wall if wall > 0 else 0.0
        )

    for by_scheme in summary.by_scheme.values():
        accesses = by_scheme["accesses"]
        by_scheme["fj_per_access"] = (
            by_scheme["total_fj"] / accesses if accesses else 0.0
        )

    ranked = sorted(
        job_entries,
        key=lambda entry: _finite(entry.get("wall_s", 0.0)),
        reverse=True,
    )
    summary.slowest = [
        {
            "label": entry.get("label"),
            "kind": entry.get("kind"),
            "source": entry.get("source"),
            "wall_s": _finite(entry.get("wall_s", 0.0)),
            "accesses": int(_finite(entry.get("accesses", 0))),
        }
        for entry in ranked[: max(top, 0)]
    ]
    return summary
