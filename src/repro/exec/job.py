"""Simulation jobs: frozen, content-hashable descriptions of one run.

A :class:`SimJob` is the unit of work of the execution engine.  It names
*what* to simulate — a workload (by name/size/seed, so the trace is
rebuilt deterministically inside the worker) under one
:class:`~repro.core.config.CNTCacheConfig` — and *how* to interpret it
(the job ``kind``).  Because the job is a pure value, two experiments that
need the same measurement produce *equal* jobs, and the planner can run
the simulation once for both.

Content hashing
---------------
:attr:`SimJob.fingerprint` is a SHA-256 over the canonical JSON of the
job description plus two version tags:

* :data:`ENGINE_SCHEMA` — bumped by hand when the meaning of a job kind
  or the result payload layout changes;
* :func:`code_fingerprint` — a hash of every source file that can change
  simulation *semantics* (core simulator, cache substrate, codecs,
  predictor, device models, trace machinery, workload kernels and the
  worker itself), so editing any of them invalidates the on-disk result
  cache automatically.  Harness/rendering code is deliberately excluded:
  editing an experiment's table layout must *not* force a re-simulation.

Config normalization
--------------------
The job constructors route configs through :func:`normalize_config`,
which resets fields a scheme provably ignores (e.g. the prediction window
of a ``baseline`` cache) to their defaults.  Jobs that differ only in
ignored knobs therefore collapse to one simulation — this is what lets a
W-sweep share a single baseline reference run across every sweep point.
The invariants behind the map are pinned by tests/exec/test_job.py.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

from repro.backends import DEFAULT_BACKEND, backend_names
from repro.core.config import CNTCacheConfig
from repro.schemas import EXEC
from repro.workloads.program import SIZES

#: Version tag of the engine's job/result contract.  Bump the version in
#: :mod:`repro.schemas` when the payload layout or the meaning of a job
#: kind changes; every cached result keyed under the old tag becomes
#: unreadable (a cache miss, never a wrong read).
ENGINE_SCHEMA = EXEC.tag  # exec-v3: result payloads carry a "trace" snapshot

#: The kinds of work a job can describe.
#:
#: ``workload``  replay the workload through a :class:`CNTCache`; result
#:               carries the full :class:`~repro.core.stats.EnergyStats`.
#: ``oracle``    posteriori-minimal energy bound (experiment F8).
#: ``l2``        L1-filtered stream replayed through the config as an L2
#:               (experiment F11); ``params`` carries the L1 geometry.
#: ``audit``     hindsight audit of Algorithm 1's decisions (A5).
#: ``trace``     workload trace characterisation only — no cache, no
#:               config (table T5).
JOB_KINDS = ("workload", "oracle", "l2", "audit", "trace")


class JobError(ValueError):
    """Raised on invalid job construction."""


#: Config fields a scheme ignores, by scheme.  Resetting them to defaults
#: merges equivalent jobs; the equivalences are enforced empirically by
#: tests/exec/test_job.py::TestNormalizationInvariants, so a simulator
#: change that makes a field matter breaks that test, not the results.
_PREDICTOR_FIELDS = (
    "window",
    "delta_t",
    "fifo_depth",
    "drain_per_access",
    "fill_policy",
)
_IGNORED_FIELDS: dict[str, tuple[str, ...]] = {
    "baseline": _PREDICTOR_FIELDS + ("partitions", "dbi_word_bytes"),
    "static-invert": _PREDICTOR_FIELDS + ("partitions", "dbi_word_bytes"),
    "dbi": _PREDICTOR_FIELDS + ("partitions",),
    "fill-greedy": (
        "window",
        "delta_t",
        "fifo_depth",
        "drain_per_access",
        "dbi_word_bytes",
    ),
    "invert": ("partitions", "dbi_word_bytes"),
    "cnt": ("dbi_word_bytes",),
    "cnt-quant": ("dbi_word_bytes",),
    "cnt-shared": ("dbi_word_bytes",),
}

_DEFAULT_CONFIG = CNTCacheConfig()


def normalize_config(config: CNTCacheConfig) -> CNTCacheConfig:
    """Reset scheme-ignored fields to defaults (job-identity canonical form).

    The returned config simulates bit-identically to ``config`` (the reset
    fields are unread by the scheme's code paths) but compares equal to
    every other config that differs only in those fields.
    """
    ignored = _IGNORED_FIELDS.get(config.scheme, ())
    changes = {
        name: getattr(_DEFAULT_CONFIG, name)
        for name in ignored
        if getattr(config, name) != getattr(_DEFAULT_CONFIG, name)
    }
    return config.variant(**changes) if changes else config


#: Packages whose every module can change simulation *semantics* — the
#: simulator core, cache substrate, codecs, predictor, device models,
#: trace machinery, workloads and analysis.  Hashed in this order.
FINGERPRINT_PACKAGES = (
    "analysis",
    "backends",
    "cache",
    "cnfet",
    "core",
    "encoding",
    "predictor",
    "trace",
    "workloads",
)

#: Individual semantics-bearing modules outside those packages: the
#: public facade (``api.py`` constructs the simulator), the lazy
#: namespace helper the packages above resolve their exports through,
#: the harness compute modules jobs dispatch to and the exec worker
#: itself.  Repo-relative to ``src/repro``, hashed in this order.
FINGERPRINT_MODULES = (
    "api.py",
    "_lazy.py",
    "harness/oracle.py",
    "harness/multilevel.py",
    "harness/runner.py",
    "exec/worker.py",
)

#: Roots of the lint fingerprint-coverage check (rule S002): every module
#: transitively importable from these packages at module level must be
#: fingerprinted or exempt, else editing it could change cached results
#: without invalidating them (a stale-cache hazard).
FINGERPRINT_ROOTS = ("repro.cache", "repro.encoding", "repro.cnfet")

#: Module-name prefixes exempt from the coverage check.  ``repro.obs``
#: is the zero-cost observability switchboard the simulation substrate
#: publishes into: by contract it never feeds values *back* into
#: simulation state, so its code cannot change an ``EnergyStats``
#: result (the <5% disabled-probe overhead bound and the serial ==
#: parallel counter-determinism tests pin that contract).  ``repro.faults``
#: only injects *transient* failures that the engine heals byte-identically
#: (the PR-4 chaos gate).
FINGERPRINT_EXEMPT = ("repro.obs", "repro.faults")


def fingerprint_sources(root: Path | None = None) -> list[Path]:
    """Every source file hashed into :func:`code_fingerprint`, in order.

    ``root`` defaults to the installed ``src/repro`` directory; the lint
    fingerprint-coverage rule passes the tree it is analyzing.
    """
    root = Path(__file__).resolve().parents[1] if root is None else root
    parts: list[Path] = []
    for package in FINGERPRINT_PACKAGES:
        parts.extend(sorted((root / package).rglob("*.py")))
    for name in FINGERPRINT_MODULES:
        parts.append(root.joinpath(*name.split("/")))
    return parts


def fingerprint_module_names(root: Path | None = None) -> frozenset[str]:
    """Dotted module names of every fingerprinted source file.

    The set the lint determinism/coverage rules treat as "simulation
    semantics": ``repro.cache.cache``, ``repro.api``, ... including the
    package modules themselves (``repro.cache`` for ``__init__.py``).
    """
    root = Path(__file__).resolve().parents[1] if root is None else root
    names = set()
    for path in fingerprint_sources(root):
        relative = path.relative_to(root).with_suffix("")
        parts = ("repro", *relative.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return frozenset(names)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every source file that affects simulation results.

    Covers :data:`FINGERPRINT_PACKAGES` and :data:`FINGERPRINT_MODULES`;
    harness/rendering code is deliberately excluded — editing an
    experiment's table layout must *not* force a re-simulation.  Lint
    rule S002 statically verifies the list stays transitively closed
    over imports (see docs/STATIC_ANALYSIS.md).  Cached per process —
    the sources of a running interpreter don't change.
    """
    digest = hashlib.sha256()
    root = Path(__file__).resolve().parents[1]  # src/repro
    for path in fingerprint_sources(root):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


#: The canonical JSON form fingerprints hash: the bytes of
#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, from one
#: encoder instead of one built per call.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class SimJob:
    """One simulation, described as a pure value.

    ``config`` is ``None`` only for ``trace`` jobs (characterisation needs
    no cache).  ``params`` carries kind-specific extras as a sorted tuple
    of (name, value) pairs — e.g. the L1 geometry of an ``l2`` job — so
    the job stays hashable and its canonical JSON stays stable.

    ``backend`` names the simulation engine (see
    :mod:`repro.backends`).  Backends are differential-tested
    bit-identical, but the field still enters the job identity: a cached
    result honestly records which engine produced it, and a backend bug
    can never masquerade as the oracle's output.
    """

    kind: str
    workload: str
    size: str
    seed: int
    config: CNTCacheConfig | None = None
    params: tuple[tuple[str, int], ...] = field(default=())
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {self.kind!r}; known: {JOB_KINDS}")
        if self.backend not in backend_names():
            raise JobError(
                f"unknown backend {self.backend!r}; known: {backend_names()}"
            )
        if not self.workload or not isinstance(self.workload, str):
            raise JobError(f"workload must be a non-empty string, got {self.workload!r}")
        if self.size not in SIZES:
            raise JobError(f"unknown size {self.size!r}; known: {SIZES}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobError(f"seed must be an int, got {self.seed!r}")
        if self.kind == "trace":
            if self.config is not None:
                raise JobError("trace jobs carry no config")
        elif not isinstance(self.config, CNTCacheConfig):
            raise JobError(f"{self.kind} jobs require a CNTCacheConfig")
        for pair in self.params:
            if (
                not isinstance(pair, tuple)
                or len(pair) != 2
                or not isinstance(pair[0], str)
                or not isinstance(pair[1], int)
            ):
                raise JobError(f"params must be (name, int) pairs, got {pair!r}")

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Canonical JSON-ready description (hashed by :attr:`fingerprint`)."""
        return {
            "schema": ENGINE_SCHEMA,
            "code": code_fingerprint(),
            "kind": self.kind,
            "workload": self.workload,
            "size": self.size,
            "seed": self.seed,
            "config": None if self.config is None else self.config.to_dict(),
            "params": [list(pair) for pair in self.params],
            "backend": self.backend,
        }

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the job: equal jobs <=> equal fingerprints."""
        canonical = _CANONICAL_JSON.encode(self.describe())
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def trace_key(self) -> tuple[str, str, int]:
        """The ``(workload, size, seed)`` trace every kind rebuilds."""
        return (self.workload, self.size, self.seed)

    @property
    def label(self) -> str:
        """Short human label for progress lines and logs."""
        scheme = self.config.scheme if self.config is not None else "-"
        suffix = "" if self.backend == DEFAULT_BACKEND else f"@{self.backend}"
        return (
            f"{self.kind}:{self.workload}/{self.size}/s{self.seed}/{scheme}"
            f"{suffix}"
        )


def job_from_payload(payload: dict) -> SimJob:
    """Rebuild a :class:`SimJob` from its :meth:`SimJob.describe` output.

    The broker transport: a coordinator publishes ``describe()`` as the
    job record, and a worker — possibly a different process on a
    different machine — reconstructs the job to execute it.  Strict by
    design: the schema tag *and* the code fingerprint must match this
    process's own, so a mixed-version fleet fails to claim a job whose
    semantics it could not reproduce, rather than executing it wrongly.
    Raises :class:`JobError` on any mismatch or malformation.
    """
    if not isinstance(payload, dict):
        raise JobError(f"job payload must be a dict, got {type(payload).__name__}")
    if payload.get("schema") != ENGINE_SCHEMA:
        raise JobError(
            f"job payload schema {payload.get('schema')!r} != {ENGINE_SCHEMA!r}"
        )
    if payload.get("code") != code_fingerprint():
        raise JobError(
            "job payload was written under different simulation sources"
        )
    config = payload.get("config")
    try:
        job = SimJob(
            kind=payload["kind"],
            workload=payload["workload"],
            size=payload["size"],
            seed=payload["seed"],
            config=None if config is None else CNTCacheConfig.from_dict(config),
            params=tuple(
                (str(name), int(value)) for name, value in payload["params"]
            ),
            backend=payload["backend"],
        )
    except JobError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise JobError(f"malformed job payload: {error}") from None
    return job


# --------------------------------------------------------------------- #
# constructors (the sanctioned way to build jobs — they normalize)
# --------------------------------------------------------------------- #
def workload_job(
    config: CNTCacheConfig,
    workload: str,
    size: str,
    seed: int,
    backend: str = DEFAULT_BACKEND,
) -> SimJob:
    """A full simulator replay of one workload under one config."""
    return SimJob(
        "workload", workload, size, seed, normalize_config(config),
        backend=backend,
    )


def oracle_job(
    config: CNTCacheConfig, workload: str, size: str, seed: int
) -> SimJob:
    """The posteriori oracle bound of one workload (F8).

    Only geometry, replacement, write policy, codec partitioning, energy
    model and the peripheral constant reach the oracle, so the config is
    canonicalised down to a ``cnt`` scheme with default algorithm knobs.
    """
    canonical = config.variant(
        scheme="cnt",
        window=_DEFAULT_CONFIG.window,
        delta_t=_DEFAULT_CONFIG.delta_t,
        fifo_depth=_DEFAULT_CONFIG.fifo_depth,
        drain_per_access=_DEFAULT_CONFIG.drain_per_access,
        fill_policy=_DEFAULT_CONFIG.fill_policy,
        dbi_word_bytes=_DEFAULT_CONFIG.dbi_word_bytes,
    )
    return SimJob("oracle", workload, size, seed, canonical)


def l2_job(
    config: CNTCacheConfig,
    workload: str,
    size: str,
    seed: int,
    l1_size: int = 8 * 1024,
    l1_assoc: int = 2,
    l1_line_size: int = 64,
    backend: str = DEFAULT_BACKEND,
) -> SimJob:
    """Replay the L1-filtered stream of a workload through ``config`` (F11)."""
    return SimJob(
        "l2",
        workload,
        size,
        seed,
        normalize_config(config),
        params=(
            ("l1_assoc", l1_assoc),
            ("l1_line_size", l1_line_size),
            ("l1_size", l1_size),
        ),
        backend=backend,
    )


def audit_job(
    config: CNTCacheConfig,
    workload: str,
    size: str,
    seed: int,
    backend: str = DEFAULT_BACKEND,
) -> SimJob:
    """Hindsight-audit Algorithm 1's window decisions on one workload (A5)."""
    if not config.uses_predictor:
        raise JobError(
            f"scheme {config.scheme!r} runs no predictor to audit"
        )
    return SimJob(
        "audit", workload, size, seed, normalize_config(config),
        backend=backend,
    )


def trace_job(workload: str, size: str, seed: int) -> SimJob:
    """Characterise a workload's trace (T5) — no cache involved."""
    return SimJob("trace", workload, size, seed, None)
