"""The stable public facade of the reproduction package.

Everything a consumer (notebook, script, CI job, downstream experiment)
needs goes through five keyword-only entry points:

* :func:`make_cache` — construct a configured simulator behind the
  :class:`~repro.backends.CacheBackend` protocol (the only sanctioned
  construction site; lint rule R006 flags direct ``CNTCache(...)``
  calls elsewhere in the package).
  ``backend="array"`` (default) is the integer-packed engine;
  ``backend="scalar"`` is the bit-exact reference interpreter it is
  differential-tested against (identical stats, an order of magnitude
  slower) — see :mod:`repro.backends`.
* :func:`make_engine` — construct an :class:`~repro.exec.ExecEngine`
  (dedup + disk cache + worker processes + observability).
* :func:`simulate` — one (workload, config) energy measurement.
* :func:`plan` — the :class:`~repro.exec.SimJob` list an experiment
  would resolve, without running anything.
* :func:`profile` — replay experiments with probes on; returns a
  :class:`~repro.obs.ProfileReport` (the ``cntcache profile`` command).

``repro.core.CNTCache`` is the scalar reference class itself, for type
checks and tests; docs/API.md describes the construction surface.

Imports inside the functions are deliberate: the facade sits above every
other layer, so importing it must stay cycle-free and cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.backends import DEFAULT_BACKEND

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from pathlib import Path

    from repro.backends import CacheBackend
    from repro.core.config import CNTCacheConfig
    from repro.exec import BrokerConfig, ExecEngine, SimJob
    from repro.harness.runner import RunResult
    from repro.obs import Obs, ProfileReport
    from repro.resilience import ResilienceConfig
    from repro.workloads.program import WorkloadRun

__all__ = ["make_cache", "make_engine", "plan", "profile", "simulate"]


def make_cache(
    *,
    config: "CNTCacheConfig | None" = None,
    backend: str = DEFAULT_BACKEND,
    **overrides: Any,
) -> "CacheBackend":
    """A configured simulator instance.

    ``config`` is used as-is when given; field overrides (``scheme=...``,
    ``size=...``) apply on top of it, or on top of the paper-default
    config when ``config`` is omitted.  ``backend`` selects the engine
    (see :mod:`repro.backends`): ``"array"`` is the fast engine,
    ``"scalar"`` the bit-exact reference interpreter.
    """
    from repro.backends import make_backend
    from repro.core.config import CNTCacheConfig

    if config is None:
        config = CNTCacheConfig(**overrides)
    elif overrides:
        config = config.variant(**overrides)
    return make_backend(backend, config)


def make_engine(
    *,
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    progress: Callable[[str], None] | None = None,
    obs: "Obs | None" = None,
    resilience: "ResilienceConfig | None" = None,
    broker: "BrokerConfig | str | Path | None" = None,
) -> "ExecEngine":
    """An execution engine (see :class:`repro.exec.ExecEngine`).

    ``resilience`` tunes the fault-tolerance policy (retries, backoff,
    per-job timeouts, keep-going batches — see
    :class:`repro.resilience.ResilienceConfig`); ``None`` means the
    self-healing defaults.  ``jobs > 1`` runs a batch on a worker pool,
    ``jobs=1`` in this process.  ``broker`` points at a shared
    work-broker directory (a path or a :class:`repro.exec.BrokerConfig`):
    the engine then coordinates a worker fleet through the broker's
    cache instead (see docs/DISTRIBUTED.md).
    """
    from repro.exec import ExecEngine

    return ExecEngine(
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        obs=obs,
        resilience=resilience,
        broker=broker,
    )


def simulate(
    *,
    workload: "str | WorkloadRun",
    config: "CNTCacheConfig | None" = None,
    size: str = "small",
    seed: int = 7,
    engine: "ExecEngine | None" = None,
    obs: "Obs | None" = None,
    backend: str = DEFAULT_BACKEND,
) -> "RunResult":
    """One (workload, config) measurement.

    ``workload`` is a registered name (the trace is built at
    ``size``/``seed``) or an already-built :class:`WorkloadRun` (its own
    name/size/seed win).  With an ``engine`` the measurement is declared
    as a job — deduplicated, cacheable, parallelizable; without one it
    replays in-process.  ``obs`` follows the harness-wide convention
    documented in :mod:`repro.harness.runner`.  ``backend`` selects the
    simulation engine (bit-identical stats across backends).  In-process
    calls on one built run share its recorded substrate
    (:meth:`WorkloadRun.substrate`): consecutive configs of one geometry
    record the cache once and only price each config.
    """
    from repro.core.config import CNTCacheConfig
    from repro.harness.runner import _run_workload
    from repro.obs import probe
    from repro.workloads.program import WorkloadRun, get_workload

    if config is None:
        config = CNTCacheConfig()
    if isinstance(workload, WorkloadRun):
        name, size, seed = workload.name, workload.size, workload.seed
        run = workload
    else:
        name, run = workload, None

    if engine is not None:
        from repro.exec import workload_job
        from repro.harness.runner import RunResult

        with engine.observing(obs):
            result = engine.run_job(
                workload_job(config, name, size, seed, backend=backend)
            )
        return RunResult.from_exec(result, config)

    with probe.recording(obs):
        if run is None:
            run = get_workload(name).build(size, seed=seed)
        return _run_workload(config, run, backend=backend)


def plan(
    *, experiment: str, size: str = "small", seed: int = 7
) -> "list[SimJob]":
    """The jobs one experiment would resolve (empty for pure-model tables)."""
    from repro.harness.experiments import plan_experiment

    return plan_experiment(experiment, size=size, seed=seed)


def profile(
    *,
    experiments: Iterable[str] | None = None,
    size: str = "small",
    seed: int = 7,
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    manifest: "str | Path | None" = None,
    top: int = 10,
    progress: Callable[[str], None] | None = None,
    resilience: "ResilienceConfig | None" = None,
) -> "ProfileReport":
    """Replay experiments with probes on; returns the breakdown report."""
    from repro.obs.profile import profile_experiments

    return profile_experiments(
        experiments,
        size=size,
        seed=seed,
        jobs=jobs,
        cache_dir=cache_dir,
        manifest=manifest,
        top=top,
        progress=progress,
        resilience=resilience,
    )
