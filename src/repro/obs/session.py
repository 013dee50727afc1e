"""The :class:`Obs` session: a live probe scope plus an optional manifest.

An ``Obs`` is what callers hand to the engine and the harness helpers via
the uniform ``obs=`` keyword (see :mod:`repro.harness.runner` for the
convention).  It is an :class:`~repro.obs.probe.ObsScope`, so while it is
recording (the engine pushes it around every batch) all probe traffic
accumulates on it; in addition it collects the JSONL manifest entries the
engine reports (one per unique job resolution, one summary per batch) —
in memory always, and mirrored to a manifest file when one is attached.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.manifest import (
    ManifestSummary,
    ManifestWriter,
    entry_for,
    summarize,
    summary_entry,
)
from repro.obs.probe import ObsScope


class Obs(ObsScope):
    """One observation session.

    ``manifest``
        ``None`` (in-memory only), a path (a :class:`ManifestWriter` is
        opened on it), or an existing writer.
    """

    __slots__ = ("entries", "manifest")

    def __init__(
        self, manifest: str | Path | ManifestWriter | None = None
    ) -> None:
        super().__init__()
        #: Every manifest entry reported to this session, in order.
        self.entries: list[dict] = []
        if manifest is None or isinstance(manifest, ManifestWriter):
            self.manifest = manifest
        else:
            self.manifest = ManifestWriter(manifest)

    # -------------------------------------------------------------- #
    # reporting (called by the engine)
    # -------------------------------------------------------------- #
    def record(self, event) -> dict | None:
        """Append the manifest entry of one job transition (an
        :class:`~repro.exec.events.ExecEvent`), if it has one; returns it."""
        entry = entry_for(event)
        if entry is not None:
            self._append(entry)
        return entry

    def record_summary(self, engine_counters: dict, wall_s: float) -> dict:
        """Append one batch-summary entry (engine counters + scope totals)."""
        entry = summary_entry(engine_counters, wall_s, scope=self)
        self._append(entry)
        return entry

    def _append(self, entry: dict) -> None:
        self.entries.append(entry)
        if self.manifest is not None:
            self.manifest.write(entry)

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
            entries.append(summary_entry({}, 0.0, scope=self))
        return summarize(entries, top=top)

    def close(self) -> None:
        """Close the attached manifest writer (if any)."""
        if self.manifest is not None:
            self.manifest.close()

    def __enter__(self) -> "Obs":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
