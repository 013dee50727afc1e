"""Run manifests: the coordinator's frame stream, read back and summarized.

A manifest (``Obs(manifest=PATH)``, ``cntcache profile --manifest``) is
an ``obs-telemetry-v2`` NDJSON frame stream written to one path by the
telemetry writer (:mod:`repro.obs.telemetry`):

* a ``hello`` frame (process identity);
* one ``lifecycle`` record per job transition, built by
  :func:`repro.obs.telemetry.lifecycle_frame` and named by its event
  kind — a resolution (``cache_hit``, ``run``, ``adopt``) carries the
  job hash, config digest, result source, wall time, queue wait,
  accesses, energy and the per-job probe snapshot; a ``fail`` carries
  the :class:`repro.resilience.FailureRecord` fields;
* one ``summary`` frame per engine batch (engine counters, batch wall
  time, session-level probe totals).

:func:`read_manifest` parses and validates one file (several runs are
one concatenated list) and :func:`summarize` aggregates any record
stream into a :class:`ManifestSummary` — the data behind ``cntcache
profile``.  Every rate in the summary is zero-guarded: an empty manifest
summarizes to zeros, never to a ``ZeroDivisionError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import records
from repro.obs import probe
from repro.obs.telemetry import TELEMETRY_SCHEMA, frame_ok


class ManifestError(ValueError):
    """Raised on a manifest file that holds no valid record."""


def read_manifest(path: str | Path) -> list[dict]:
    """Every valid record of one manifest, in file order.

    A line that is not an ``obs-telemetry-v2`` frame is skipped and
    counted under ``obs.torn_lines``, so one bad line cannot blank a run;
    a file with no valid record (empty, or written in another format)
    raises :class:`ManifestError`.  The file is read once; a newline is
    added so that an unterminated final line is kept if it parses whole.
    """
    lines, _, _ = records.parse_lines(
        Path(path).read_bytes() + b"\n", TELEMETRY_SCHEMA
    )
    frames = [frame for frame in lines if frame_ok(frame)]
    if len(frames) < len(lines):
        probe.counter("obs.torn_lines", len(lines) - len(frames))
    if not frames:
        raise ManifestError(
            f"{path}: no valid record; expected schema {TELEMETRY_SCHEMA!r}"
        )
    return frames


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

    Manifest records come off disk (concatenated runs, foreign
    writers), so a poisoned ``wall_s`` or ``energy_fj`` must degrade to
    zero instead of propagating NaN through every per-kind rate.
    """
    try:
        value = float(value)
    except (TypeError, ValueError):
        return default
    return value if math.isfinite(value) else default


#: The records that resolve a job in the coordinator's stream (a
#: worker's ``finish`` is the same job as the ``adopt`` that follows it).
JOB_EVENTS = frozenset({"cache_hit", "run", "adopt"})


def summarize(entries: Iterable[dict], top: int = 10) -> ManifestSummary:
    """Aggregate a record stream (order irrelevant; records that are not
    job resolutions, failures or batch summaries are skipped).

    Counter/timer totals come from ``summary`` records when present (the
    session scope already folds in every job's traffic, so re-adding the
    per-job copies would double-count); a manifest with job records only
    falls back to summing those.
    """
    summary = ManifestSummary()
    job_entries: list[dict] = []
    job_counters: dict = {}
    job_timers: dict = {}
    saw_summary = False
    for entry in entries:
        kind = entry.get("type")
        event = entry.get("event") if kind == "lifecycle" else None
        if event in JOB_EVENTS:
            job_entries.append(entry)
        elif kind == "summary":
            saw_summary = True
            _merge_numeric(summary.engine, entry.get("engine", {}))
            _merge_numeric(summary.counters, entry.get("counters", {}))
            _merge_numeric(summary.timers, entry.get("timers", {}))
            summary.gauges.update(entry.get("gauges", {}))
        elif event == "fail":
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
            total = _finite(entry.get("energy_fj") or 0.0)
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
