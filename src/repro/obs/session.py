"""The :class:`Obs` session: a live probe scope plus an optional manifest.

An ``Obs`` is what callers hand to the engine and the harness helpers via
the uniform ``obs=`` keyword (see :mod:`repro.harness.runner` for the
convention).  It is an :class:`~repro.obs.probe.ObsScope`, so while it is
recording (the engine pushes it around every batch) all probe traffic
accumulates on it; in addition it collects the records the engine
reports (one :func:`~repro.obs.telemetry.lifecycle_frame` per recorded
job transition, one summary per batch) — in memory always, and written
to a manifest frame stream when a path is attached.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.manifest import ManifestSummary, summarize
from repro.obs.probe import ObsScope
from repro.obs.telemetry import TelemetryWriter, lifecycle_frame


class Obs(ObsScope):
    """One observation session.

    ``manifest``
        ``None`` (in-memory only) or a path: a coordinator
        :class:`~repro.obs.telemetry.TelemetryWriter` writes the records
        there (the file is created on the first record).
    """

    __slots__ = ("entries", "manifest")

    def __init__(self, manifest: str | Path | None = None) -> None:
        super().__init__()
        #: Every record reported to this session, in order.
        self.entries: list[dict] = []
        self.manifest = (
            None
            if manifest is None
            else TelemetryWriter(
                Path(manifest).parent, role="coordinator", path=manifest
            )
        )

    # -------------------------------------------------------------- #
    # reporting (called by the engine)
    # -------------------------------------------------------------- #
    def record(self, event) -> dict | None:
        """Append the record of one job transition (an
        :class:`~repro.exec.events.ExecEvent`), if it has one; returns it."""
        frame = lifecycle_frame(event)
        if frame is not None:
            self._append(frame)
        return frame

    def record_summary(self, engine_counters: dict, wall_s: float) -> dict:
        """Append one batch-summary record (engine counters + scope totals)."""
        frame = self._summary_frame(engine_counters, wall_s)
        self._append(frame)
        return frame

    def _summary_frame(self, engine: dict, wall_s: float) -> dict:
        snapshot = self.snapshot()
        return {
            "type": "summary",
            "engine": dict(engine),
            "wall_s": wall_s,
            "counters": dict(snapshot.get("counters", {})),
            "timers": dict(snapshot.get("timers", {})),
            "gauges": dict(snapshot.get("gauges", {})),
            "dropped_events": snapshot.get("dropped_events", 0),
        }

    def _append(self, frame: dict) -> None:
        self.entries.append(frame)
        if self.manifest is not None:
            self.manifest.write(frame)

    # -------------------------------------------------------------- #
    # consumption
    # -------------------------------------------------------------- #
    def summary(self, top: int = 10) -> ManifestSummary:
        """Aggregate everything this session saw (zero-guarded).

        A session that never recorded a batch summary is summarized as if
        one had been taken now, so live probe totals are never lost.
        """
        entries = list(self.entries)
        if not any(entry.get("type") == "summary" for entry in entries):
            entries.append(self._summary_frame({}, 0.0))
        return summarize(entries, top=top)

    def close(self) -> None:
        """Close the attached manifest writer (if any)."""
        if self.manifest is not None:
            self.manifest.close()

    def __enter__(self) -> "Obs":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
