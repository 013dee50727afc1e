"""Trace replay and scheme comparison.

:func:`replay` is the low-level in-process primitive (the exec worker
itself is built on it).  The comparison helpers (:func:`compare_schemes`,
:func:`run_suite`, :func:`savings_table`) follow one shared convention:

``engine=``  (default ``None``)
    An :class:`repro.exec.ExecEngine`.  When given, the helper *declares*
    its measurements as jobs and lets the engine deduplicate, parallelize
    and cache them; when ``None`` it replays in-process.
``obs=``  (default ``None``)
    An :class:`repro.obs.Obs` session.  When given, probes record into it
    for the duration of the call — through
    :meth:`~repro.exec.ExecEngine.observing` on the engine path, or a
    direct :func:`repro.obs.probe.recording` block on the in-process
    path.  ``obs`` never changes the measurement (probe-disabled runs are
    byte-identical; the test suite asserts this).

Every helper uses exactly these keyword names and defaults; this
docstring is the normative description.

Callers outside the harness replay a workload through
:func:`repro.api.simulate` (or :func:`compare_schemes` with an engine).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backends import DEFAULT_BACKEND, folds_substrates
from repro.core.config import CNTCacheConfig
from repro.core.stats import EnergyStats
from repro.obs import probe
from repro.trace.record import Access
from repro.workloads.program import WorkloadRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.array import Substrate


@dataclass(frozen=True)
class RunResult:
    """One (workload, scheme) measurement."""

    workload: str
    scheme: str
    config: CNTCacheConfig
    stats: EnergyStats

    @property
    def total_fj(self) -> float:
        """Total dynamic energy of the run, fJ."""
        return self.stats.total_fj

    @classmethod
    def from_exec(cls, result, config: CNTCacheConfig | None = None):
        """Adapt an :class:`repro.exec.ExecResult` of a workload job.

        ``config`` restores the caller's un-normalized configuration when
        given (the job's own config has scheme-irrelevant fields reset).
        """
        if result.stats is None:
            raise ValueError(
                f"job {result.job.label} carries no EnergyStats"
            )
        config = result.job.config if config is None else config
        return cls(
            workload=result.job.workload,
            scheme=config.scheme,
            config=config,
            stats=result.stats,
        )


def replay(
    config: CNTCacheConfig,
    trace: Iterable[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
    backend: str = DEFAULT_BACKEND,
    substrate: "Substrate | None" = None,
):
    """Replay a trace through a fresh cache; returns the simulator.

    ``backend`` selects the engine (see :mod:`repro.backends`); every
    backend produces bit-identical :class:`EnergyStats`.  ``substrate``
    is ``trace`` already recorded over ``preloads`` at ``config``'s
    geometry (:meth:`WorkloadRun.substrate`); an engine that folds
    substrates then only prices it, and any other engine ignores it.
    """
    from repro.api import make_cache

    sim = make_cache(config=config, backend=backend)
    if substrate is not None and folds_substrates(backend):
        sim.run(trace, substrate=substrate)  # type: ignore[call-arg]
    else:
        sim.preload_all(preloads)
        sim.run(trace)
    return sim


def _run_workload(
    config: CNTCacheConfig, run: WorkloadRun, backend: str = DEFAULT_BACKEND
) -> RunResult:
    """Replay one workload run through one configuration (internal).

    :func:`repro.api.simulate` and :func:`compare_schemes` are its
    callers; code outside the harness goes through
    :func:`repro.api.simulate`.
    """
    substrate = run.substrate(config) if folds_substrates(backend) else None
    sim = replay(
        config, run.trace, run.preloads, backend=backend, substrate=substrate
    )
    return RunResult(
        workload=run.name,
        scheme=config.scheme,
        config=config,
        stats=sim.stats,
    )


def compare_schemes(
    run: WorkloadRun,
    schemes: tuple[str, ...] = ("baseline", "invert", "cnt"),
    base_config: CNTCacheConfig | None = None,
    engine=None,
    obs=None,
) -> dict[str, RunResult]:
    """Replay one workload under several schemes on identical traces.

    ``engine``/``obs`` follow the module-level convention (see the
    module docstring).
    """
    if base_config is None:
        base_config = CNTCacheConfig()
    if engine is None:
        with probe.recording(obs):
            return {
                scheme: _run_workload(base_config.variant(scheme=scheme), run)
                for scheme in schemes
            }
    from repro.exec import workload_job

    configs = {scheme: base_config.variant(scheme=scheme) for scheme in schemes}
    with engine.observing(obs):
        results = engine.run_map(
            {
                scheme: workload_job(config, run.name, run.size, run.seed)
                for scheme, config in configs.items()
            }
        )
    return {
        scheme: RunResult.from_exec(results[scheme], configs[scheme])
        for scheme in schemes
    }


def run_suite(
    workloads: Iterable[str],
    schemes: tuple[str, ...] = ("baseline", "invert", "cnt"),
    size: str = "small",
    seed: int = 7,
    base_config: CNTCacheConfig | None = None,
    engine=None,
    obs=None,
) -> dict[str, dict[str, RunResult]]:
    """The full (workload x scheme) matrix.

    Returns ``results[workload][scheme]``.  Every scheme replays the exact
    same trace of each workload, so differences are purely the scheme's.
    With an ``engine``, the whole matrix is submitted as one job batch
    (deduplicated, cacheable, ``--jobs N``-parallel); ``engine``/``obs``
    follow the module-level convention.
    """
    if base_config is None:
        base_config = CNTCacheConfig()
    names = list(workloads)
    if engine is None:
        from repro.workloads.program import get_workload

        results: dict[str, dict[str, RunResult]] = {}
        with probe.recording(obs):
            for name in names:
                run = get_workload(name).build(size, seed=seed)
                results[name] = compare_schemes(run, schemes, base_config)
        return results
    from repro.exec import workload_job

    configs = {scheme: base_config.variant(scheme=scheme) for scheme in schemes}
    with engine.observing(obs):
        resolved = engine.run_map(
            {
                (name, scheme): workload_job(configs[scheme], name, size, seed)
                for name in names
                for scheme in schemes
            }
        )
    return {
        name: {
            scheme: RunResult.from_exec(
                resolved[(name, scheme)], configs[scheme]
            )
            for scheme in schemes
        }
        for name in names
    }


def savings_table(
    results: dict[str, dict[str, RunResult]],
    reference: str = "baseline",
    engine=None,
    obs=None,
) -> dict[str, dict[str, float]]:
    """Fractional savings of every scheme vs the reference, per workload.

    Pure arithmetic over already-measured results; ``engine``/``obs`` are
    accepted for convention uniformity (see the module docstring) but
    nothing here simulates, so they are unused.
    """
    del engine, obs  # uniform signature; no simulation happens here
    table: dict[str, dict[str, float]] = {}
    for workload, by_scheme in results.items():
        base = by_scheme[reference].stats
        table[workload] = {
            scheme: result.stats.savings_vs(base)
            for scheme, result in by_scheme.items()
            if scheme != reference
        }
    return table
