"""``cntcache bench``: a recorded benchmark trajectory + regression gate.

One ``bench`` run measures a declared suite of metrics — simulator
throughput, exec-engine serial/parallel/warm-cache throughput, and the
paper-fidelity numbers (average adaptive saving vs. the 22.2% target,
the Table I write asymmetry, the Eq. 3 read/write delta balance) — and
appends one schema-versioned ``BENCH_<n>.json`` record (git SHA, UTC
timestamp, machine fingerprint, metric map) to the trajectory directory.

:func:`compare` then judges a fresh record against the trajectory:
per-metric baselines are the **median of the last K** comparable records
(performance metrics only compare within the same machine fingerprint
and size/seed; fidelity metrics compare across machines but within the
same size/seed), and a regression is flagged when a higher-is-better
metric drops more than its tolerance below baseline (default 15% for
throughput) or when a fidelity metric drifts *at all* beyond numeric
noise (default relative tolerance 1e-6) — fidelity is deterministic, so
any drift means the physics changed.  ``cntcache bench --check`` turns
the flags into a non-zero exit for CI.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Iterable

from repro import records
from repro.obs import probe
from repro.schemas import BENCH

#: Record format tag; bump the version in :mod:`repro.schemas` when
#: record fields change incompatibly.
BENCH_SCHEMA = BENCH.tag

#: Matches trajectory record filenames: ``BENCH_0007.json``.
_RECORD_RE = re.compile(r"^BENCH_(\d+)\.json$")


class BenchError(ValueError):
    """Raised on malformed bench records or invalid bench requests."""


@dataclass(frozen=True)
class MetricSpec:
    """How one benchmark metric is measured and judged.

    ``kind``
        ``"perf"`` (wall-clock dependent; compared within one machine,
        regression = drop beyond ``tolerance``), ``"fidelity"``
        (deterministic physics; compared across machines, regression =
        any relative drift beyond ``tolerance``), or ``"floor"``
        (``tolerance`` is an absolute minimum the value must clear on
        every record — no trajectory history needed).
    """

    name: str
    kind: str
    tolerance: float
    description: str


#: The declared suite, in report order.
METRICS: tuple[MetricSpec, ...] = (
    MetricSpec(
        "sim.replay_accesses_per_s",
        "perf",
        0.15,
        "single-workload CNT-scheme replay throughput, scalar reference",
    ),
    MetricSpec(
        "sim.array_replay_accesses_per_s",
        "perf",
        0.15,
        "the same replay through the default array engine",
    ),
    MetricSpec(
        "sim.array_speedup",
        "floor",
        5.0,
        "array/scalar replay throughput ratio (hard floor: 5x)",
    ),
    MetricSpec(
        "exec.serial_accesses_per_s",
        "perf",
        0.15,
        "F3 matrix, one process, empty engine",
    ),
    MetricSpec(
        "exec.parallel_accesses_per_s",
        "perf",
        0.15,
        "F3 matrix across the worker pool",
    ),
    MetricSpec(
        "exec.warm_cache_jobs_per_s",
        "perf",
        0.15,
        "F3 matrix replayed from a warm result cache",
    ),
    MetricSpec(
        "exec.broker_drain_accesses_per_s",
        "perf",
        0.25,
        "F3 matrix drained through the filesystem work broker",
    ),
    MetricSpec(
        "fidelity.cnt_average_saving",
        "fidelity",
        1e-6,
        "mean adaptive saving over the workload suite (paper: 0.222)",
    ),
    MetricSpec(
        "fidelity.write_asymmetry",
        "fidelity",
        1e-6,
        "Table I E_wr1/E_wr0 ratio (paper: ~10X)",
    ),
    MetricSpec(
        "fidelity.delta_balance",
        "fidelity",
        1e-6,
        "Eq. 3 delta_read/delta_write balance (paper: ~1)",
    ),
)

#: name -> spec, for lookups.
METRICS_BY_NAME: dict[str, MetricSpec] = {spec.name: spec for spec in METRICS}


# ------------------------------------------------------------------ #
# record
# ------------------------------------------------------------------ #
@dataclass
class BenchRecord:
    """One appended trajectory point."""

    index: int
    git_sha: str
    timestamp: str
    machine: str
    size: str
    seed: int
    jobs: int
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dump; inverse of :meth:`from_dict`."""
        return {"schema": BENCH_SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: object) -> "BenchRecord":
        """Rebuild a record; raises :class:`BenchError` on malformed input."""
        if not isinstance(payload, dict):
            raise BenchError(f"bench record must be a dict: {payload!r}")
        if payload.get("schema") != BENCH_SCHEMA:
            raise BenchError(
                f"bench record schema {payload.get('schema')!r} != "
                f"{BENCH_SCHEMA!r}"
            )
        metrics = payload.get("metrics")
        if not isinstance(metrics, dict) or not all(
            type(value) in (int, float) for value in metrics.values()
        ):
            raise BenchError("bench record metrics must map names to numbers")
        try:
            return cls(
                index=int(payload["index"]),
                git_sha=str(payload["git_sha"]),
                timestamp=str(payload["timestamp"]),
                machine=str(payload["machine"]),
                size=str(payload["size"]),
                seed=int(payload["seed"]),
                jobs=int(payload["jobs"]),
                metrics={
                    str(name): float(value) for name, value in metrics.items()
                },
            )
        except (KeyError, TypeError, ValueError) as error:
            raise BenchError(f"malformed bench record: {error}") from None


def machine_fingerprint() -> str:
    """Short stable hash of the hardware/runtime this record was cut on."""
    blob = "|".join(
        (
            platform.machine(),
            platform.system(),
            platform.python_implementation(),
            platform.python_version(),
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def git_sha(repo: str | Path | None = None) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if repo is None else str(repo),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


# ------------------------------------------------------------------ #
# the measured suite
# ------------------------------------------------------------------ #
def collect(
    size: str = "tiny",
    seed: int = 7,
    jobs: int = 2,
    progress: Callable[[str], None] | None = None,
) -> dict[str, float]:
    """Measure the declared suite; returns metric name -> value.

    The F3 job matrix (every workload under the five main schemes — the
    largest single-figure plan) drives the exec-engine metrics; the
    serial pass fills a temporary result cache that the warm-cache pass
    replays.  Fidelity numbers come from the same resolved results plus
    the derived Table I energy model.  The single-workload replay is
    timed on both engines; the scalar reference is the denominator of
    ``sim.array_speedup``.
    """
    import tempfile

    from repro.cnfet.energy import BitEnergyModel
    from repro.cnfet.sram import Sram6TCell
    from repro.core.config import CNTCacheConfig
    from repro.exec import ExecEngine
    from repro.harness.experiments import EXPERIMENT_PLANS, run_experiment
    from repro.harness.runner import replay
    from repro.workloads.program import get_workload

    def say(line: str) -> None:
        if progress is not None:
            progress(line)

    metrics: dict[str, float] = {}

    model = BitEnergyModel.from_cell(Sram6TCell())
    metrics["fidelity.write_asymmetry"] = model.write_asymmetry
    metrics["fidelity.delta_balance"] = model.delta_read / model.delta_write

    say(f"[bench] replay: stream/{size}, array vs scalar backend")
    run = get_workload("stream").build(size, seed=seed)

    def best_of(repeats: int, backend: str) -> float:
        # Best-of-N both sides: the speedup floor is a hard CI gate, so
        # neither numerator nor denominator should ride one unlucky
        # scheduler tick.
        best = 0.0
        for _ in range(repeats):
            started = time.perf_counter()
            timed = replay(
                CNTCacheConfig(), run.trace, run.preloads, backend=backend
            )
            wall = time.perf_counter() - started
            if wall > 0:
                best = max(best, timed.stats.accesses / wall)
        return best

    best_scalar = best_of(3, "scalar")
    best_array = best_of(3, "array")
    metrics["sim.replay_accesses_per_s"] = best_scalar
    metrics["sim.array_replay_accesses_per_s"] = best_array
    metrics["sim.array_speedup"] = (
        best_array / best_scalar if best_scalar else 0.0
    )

    f3_jobs = list(EXPERIMENT_PLANS["f3"](size, seed).values())
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        say(f"[bench] exec serial: {len(f3_jobs)} F3 jobs, filling cache")
        serial = ExecEngine(jobs=1, cache_dir=cache_dir)
        started = time.perf_counter()
        results = serial.run_jobs(f3_jobs)
        wall = time.perf_counter() - started
        accesses = sum(result.accesses for result in results)
        metrics["exec.serial_accesses_per_s"] = (
            accesses / wall if wall > 0 else 0.0
        )

        say("[bench] fidelity: F3 average saving (memoized results)")
        f3 = run_experiment("f3", size=size, seed=seed, engine=serial)
        metrics["fidelity.cnt_average_saving"] = float(
            f3.data["cnt_average"]
        )

        say(f"[bench] exec warm cache: replaying {len(f3_jobs)} jobs")
        warm = ExecEngine(jobs=1, cache_dir=cache_dir)
        started = time.perf_counter()
        warm_results = warm.run_jobs(f3_jobs)
        wall = time.perf_counter() - started
        metrics["exec.warm_cache_jobs_per_s"] = (
            len(warm_results) / wall if wall > 0 else 0.0
        )

    say(f"[bench] exec parallel: {len(f3_jobs)} F3 jobs, {jobs} workers")
    parallel = ExecEngine(jobs=max(jobs, 2))
    started = time.perf_counter()
    results = parallel.run_jobs(f3_jobs)
    wall = time.perf_counter() - started
    accesses = sum(result.accesses for result in results)
    metrics["exec.parallel_accesses_per_s"] = (
        accesses / wall if wall > 0 else 0.0
    )

    say(f"[bench] exec broker: {len(f3_jobs)} F3 jobs through a local fleet")
    from repro.exec import BrokerConfig

    with tempfile.TemporaryDirectory(prefix="bench-broker-") as broker_dir:
        # Generous TTL: this leg measures drain throughput, not crash
        # recovery, so no lease should ever expire mid-bench.
        broker = ExecEngine(
            jobs=max(jobs, 2),
            broker=BrokerConfig(
                root=broker_dir, poll_s=0.05, lease_ttl_s=60.0
            ),
        )
        started = time.perf_counter()
        results = broker.run_jobs(f3_jobs)
        wall = time.perf_counter() - started
        accesses = sum(result.accesses for result in results)
        metrics["exec.broker_drain_accesses_per_s"] = (
            accesses / wall if wall > 0 else 0.0
        )

    return metrics


# ------------------------------------------------------------------ #
# trajectory persistence
# ------------------------------------------------------------------ #
def load_trajectory(directory: str | Path) -> list[BenchRecord]:
    """Parse every ``BENCH_<n>.json`` in ``directory``, index order.

    A bad file is a skip counted under ``bench.skipped_records``; a
    missing directory is an empty trajectory.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    trajectory: list[BenchRecord] = []
    for path in sorted(directory.iterdir()):
        if _RECORD_RE.match(path.name) is None:
            continue
        payload = records.read_record(path, BENCH_SCHEMA)
        try:  # a Skip is not a dict: from_dict refuses it
            if payload is not None:
                trajectory.append(BenchRecord.from_dict(payload))
        except BenchError:
            probe.counter("bench.skipped_records")
    trajectory.sort(key=lambda record: record.index)
    return trajectory


def next_index(directory: str | Path) -> int:
    """The index the next appended record will carry (1-based)."""
    directory = Path(directory)
    highest = 0
    if directory.is_dir():
        for path in directory.iterdir():
            match = _RECORD_RE.match(path.name)
            if match is not None:
                highest = max(highest, int(match.group(1)))
    return highest + 1


def make_record(
    metrics: dict[str, float],
    *,
    directory: str | Path,
    size: str,
    seed: int,
    jobs: int,
) -> BenchRecord:
    """Stamp a metric map into the next record of ``directory``."""
    return BenchRecord(
        index=next_index(directory),
        git_sha=git_sha(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        machine=machine_fingerprint(),
        size=size,
        seed=seed,
        jobs=jobs,
        metrics=dict(metrics),
    )


def append_record(record: BenchRecord, directory: str | Path) -> Path:
    """Write ``record`` as ``BENCH_<index>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{record.index:04d}.json"
    if path.exists():
        raise BenchError(f"trajectory record already exists: {path}")
    records.write_atomic(path, records.dumps(record.to_dict(), indent=2) + "\n")
    return path


# ------------------------------------------------------------------ #
# regression gate
# ------------------------------------------------------------------ #
@dataclass(frozen=True)
class Regression:
    """One flagged metric: value vs. the trajectory baseline."""

    metric: str
    value: float
    baseline: float
    tolerance: float
    kind: str

    def describe(self) -> str:
        """One human line for the CLI/CI log."""
        if self.kind == "perf":
            drop = 1.0 - self.value / self.baseline if self.baseline else 0.0
            return (
                f"{self.metric}: {self.value:.1f} is {drop:.1%} below the "
                f"baseline {self.baseline:.1f} (tolerance {self.tolerance:.0%})"
            )
        if self.kind == "floor":
            return (
                f"{self.metric}: {self.value:.2f} is below the hard floor "
                f"{self.tolerance:g}"
            )
        return (
            f"{self.metric}: {self.value!r} drifted from the baseline "
            f"{self.baseline!r} (fidelity tolerance {self.tolerance:g})"
        )


def _baseline_for(
    spec: MetricSpec,
    record: BenchRecord,
    trajectory: Iterable[BenchRecord],
    window: int,
) -> float | None:
    values = [
        prior.metrics[spec.name]
        for prior in trajectory
        if prior.index != record.index
        and spec.name in prior.metrics
        and prior.size == record.size
        and prior.seed == record.seed
        and (spec.kind != "perf" or prior.machine == record.machine)
    ]
    if not values:
        return None
    return float(median(values[-max(window, 1):]))


def compare(
    record: BenchRecord,
    trajectory: Iterable[BenchRecord],
    window: int = 5,
) -> list[Regression]:
    """Judge ``record`` against the trajectory; returns the regressions.

    Baselines are the median of the last ``window`` comparable records
    per metric; a metric with no comparable history passes vacuously
    (the first record seeds the trajectory, it cannot regress).
    """
    trajectory = list(trajectory)
    regressions: list[Regression] = []
    for spec in METRICS:
        value = record.metrics.get(spec.name)
        if value is None:
            continue
        if spec.kind == "floor":
            # An absolute gate: no history needed, every record must clear it.
            if value < spec.tolerance:
                regressions.append(
                    Regression(
                        spec.name, value, spec.tolerance, spec.tolerance,
                        "floor",
                    )
                )
            continue
        baseline = _baseline_for(spec, record, trajectory, window)
        if baseline is None:
            continue
        if spec.kind == "perf":
            if value < baseline * (1.0 - spec.tolerance):
                regressions.append(
                    Regression(
                        spec.name, value, baseline, spec.tolerance, "perf"
                    )
                )
        else:
            scale = max(abs(baseline), 1e-12)
            if abs(value - baseline) / scale > spec.tolerance:
                regressions.append(
                    Regression(
                        spec.name, value, baseline, spec.tolerance, "fidelity"
                    )
                )
    return regressions


__all__ = [
    "BENCH_SCHEMA",
    "BenchError",
    "BenchRecord",
    "METRICS",
    "METRICS_BY_NAME",
    "MetricSpec",
    "Regression",
    "append_record",
    "collect",
    "compare",
    "git_sha",
    "load_trajectory",
    "machine_fingerprint",
    "make_record",
    "next_index",
]
