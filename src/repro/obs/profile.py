"""``cntcache profile``: replay experiments with probes on, break it down.

:func:`profile_experiments` unions the job plans of the requested
experiments (all of them by default), resolves the deduplicated set
through an :class:`~repro.exec.ExecEngine` with an :class:`Obs` session
attached, and aggregates the resulting run manifest into a
:class:`ProfileReport` — wall time per job kind, exec-cache hit rate,
energy per scheme and component, aggregate probe counters/timers and the
top-N slowest jobs.  ``ProfileReport.render()`` is the human table;
``ProfileReport.to_dict()`` is the ``--json`` payload CI trends on.

This profiles the *measurement pipeline* (jobs, caches, phases); for
per-line spatial profiles of a single simulation see
:class:`repro.analysis.profile.LineProfiler`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.obs.manifest import ManifestSummary
from repro.obs.session import Obs
from repro.schemas import PROFILE

#: Report format tag for the ``--json`` output; bump the version in
#: :mod:`repro.schemas` when report fields change incompatibly.
PROFILE_SCHEMA = PROFILE.tag


class ProfileError(ValueError):
    """Raised on invalid profiling requests (unknown experiment ids...)."""


@dataclass
class ProfileReport:
    """The rendered outcome of one profiling run."""

    experiments: list[str]
    size: str
    seed: int
    jobs: int
    wall_s: float
    summary: ManifestSummary
    engine: dict = field(default_factory=dict)
    manifest_path: str | None = None
    #: This process's peak resident set (``ru_maxrss``) in MB; ``--jobs
    #: N`` pool workers are separate processes and are not included.
    peak_rss_mb: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready payload (``cntcache profile --json``)."""
        return {
            "schema": PROFILE_SCHEMA,
            "experiments": list(self.experiments),
            "size": self.size,
            "seed": self.seed,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "peak_rss_mb": self.peak_rss_mb,
            "engine": dict(self.engine),
            "manifest": self.manifest_path,
            "summary": self.summary.to_dict(),
        }

    def render(self) -> str:
        """Aligned text breakdown tables."""
        from repro.harness.tables import render_table

        summary = self.summary
        sections = [
            f"[profile] {len(self.experiments)} experiment(s), "
            f"size={self.size}, seed={self.seed}, jobs={self.jobs}, "
            f"{self.wall_s:.2f}s wall, {self.peak_rss_mb:.1f} MB peak RSS",
        ]

        total_wall = sum(
            row["wall_s"] for row in summary.by_kind.values()
        )
        rows = [
            [
                kind,
                row["jobs"],
                row["wall_s"],
                100.0 * row["wall_s"] / total_wall if total_wall else 0.0,
                row["accesses"],
            ]
            for kind, row in sorted(
                summary.by_kind.items(),
                key=lambda item: item[1]["wall_s"],
                reverse=True,
            )
        ]
        sections.append(
            render_table(
                ["job kind", "jobs", "wall s", "share %", "accesses"],
                rows,
                title="time per job kind",
            )
        )

        engine = self.engine
        executed = engine.get("executed", 0)
        sections.append(
            render_table(
                ["requested", "unique", "memo", "cache", "simulated",
                 "hit rate %", "avg queue s"],
                [[
                    engine.get("requested", 0),
                    engine.get("unique", 0),
                    engine.get("memo_hits", 0),
                    engine.get("cache_hits", 0),
                    executed,
                    100.0 * engine.get("cache_hit_rate", 0.0),
                    summary.queue_wait_s / executed if executed else 0.0,
                ]],
                title="exec engine",
            )
        )

        if summary.by_scheme:
            rows = [
                [
                    scheme,
                    row["jobs"],
                    row["total_fj"] / 1e6,
                    row["fj_per_access"],
                ]
                for scheme, row in sorted(summary.by_scheme.items())
            ]
            sections.append(
                render_table(
                    ["scheme", "jobs", "total nJ", "fJ/access"],
                    rows,
                    title="energy per scheme",
                )
            )

        if summary.energy_fj:
            total = sum(summary.energy_fj.values())
            rows = [
                [name, value / 1e6, 100.0 * value / total if total else 0.0]
                for name, value in sorted(
                    summary.energy_fj.items(),
                    key=lambda item: item[1],
                    reverse=True,
                )
            ]
            sections.append(
                render_table(
                    ["energy component", "nJ", "share %"],
                    rows,
                    title="energy per component",
                )
            )

        if summary.timers:
            rows = [
                [name, seconds]
                for name, seconds in sorted(
                    summary.timers.items(),
                    key=lambda item: item[1],
                    reverse=True,
                )
                # Aggregate queue wait is reported per job in the engine
                # table; as a raw sum it would drown the real phases.
                if name != "exec.queue_wait"
            ]
            sections.append(
                render_table(
                    ["timer", "seconds"],
                    rows,
                    floatfmt=".3f",
                    title="phase timers",
                )
            )

        if summary.slowest:
            rows = [
                [
                    row.get("label") or "-",
                    row.get("kind") or "-",
                    row.get("source") or "-",
                    row.get("wall_s", 0.0),
                    row.get("accesses", 0),
                ]
                for row in summary.slowest
            ]
            sections.append(
                render_table(
                    ["job", "kind", "source", "wall s", "accesses"],
                    rows,
                    floatfmt=".3f",
                    title=f"top {len(rows)} slowest jobs",
                )
            )

        if summary.counters:
            rows = [
                [name, value] for name, value in sorted(summary.counters.items())
            ]
            sections.append(
                render_table(["counter", "value"], rows, title="counters")
            )

        if summary.failures:
            rows = [
                [
                    row.get("label") or "-",
                    row.get("error") or "-",
                    row.get("attempts", 0),
                    "transient" if row.get("transient") else "permanent",
                ]
                for row in summary.failed
            ]
            sections.append(
                render_table(
                    ["failed job", "error", "attempts", "nature"],
                    rows,
                    title=f"failures ({summary.failures} total)",
                )
            )

        return "\n\n".join(sections)


def profile_experiments(
    experiments: Iterable[str] | None = None,
    *,
    size: str = "small",
    seed: int = 7,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    manifest: str | Path | None = None,
    top: int = 10,
    progress: Callable[[str], None] | None = None,
    resilience=None,
) -> ProfileReport:
    """Profile the deduplicated job set of the requested experiments.

    ``experiments=None`` profiles every registered experiment.  The
    manifest (when a path is given) is written as the run progresses;
    the returned report aggregates the same records in memory either way.
    """
    from repro.exec import ExecEngine
    from repro.harness.experiments import EXPERIMENT_PLANS, EXPERIMENTS

    ids = sorted(EXPERIMENTS) if experiments is None else list(experiments)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ProfileError(
            f"unknown experiment(s) {unknown}; known: {sorted(EXPERIMENTS)}"
        )

    union = []
    for experiment_id in ids:
        plan = EXPERIMENT_PLANS.get(experiment_id)
        if plan is not None:
            union.extend(plan(size, seed).values())

    obs = Obs(manifest=manifest)
    engine = ExecEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        obs=obs,
        resilience=resilience,
    )
    started = time.perf_counter()
    engine.run_jobs(union)
    wall_s = time.perf_counter() - started
    obs.record_summary(engine.counters.to_dict(), wall_s)
    obs.close()

    return ProfileReport(
        experiments=ids,
        size=size,
        seed=seed,
        jobs=jobs,
        wall_s=wall_s,
        summary=obs.summary(top=top),
        engine=engine.counters.to_dict(),
        manifest_path=None if manifest is None else str(manifest),
        peak_rss_mb=_peak_rss_mb(),
    )


def _peak_rss_mb() -> float:
    """This process's peak resident set in MB (0.0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


__all__ = [
    "PROFILE_SCHEMA",
    "ProfileError",
    "ProfileReport",
    "profile_experiments",
]
