"""The repository benchmark: the full experiment suite and a design sweep.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-cold --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --dry-run

Every measurement runs in a fresh interpreter (``perfbench/child.py``)
against the checkout's ``src/``, with fresh temporary cache directories
under ``.perfbench-tmp/`` that are removed afterwards.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The line
before it stamps the run with the git SHA, CPU count, the Python and
numpy versions and the host's measured speed, and lists any output check
that failed.  End-to-end times are in reference seconds: host seconds
scaled by the host's speed while the program ran (``child.Calibrator``).

See perfbench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from child import REFERENCE_SLICE_S, calibrated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload -> child spec fields.
WORKLOADS = {
    "suite-cold": {"kind": "suite", "jobs": 1, "warm": False},
    "suite-warm": {"kind": "suite", "jobs": 1, "warm": True},
    "suite-parallel": {"kind": "suite", "jobs": 2, "warm": False},
    "sweep-long": {"kind": "sweep", "jobs": 1, "warm": False},
}
#: Fresh-interpreter set-ups per untraced run (the measuring one included).
SETUP_SAMPLES = 12
#: Workers filling the suite-warm cache (untimed).
FILL_JOBS = 2
#: Every run ends within this many seconds, children included.
RUN_BUDGET_S = 170.0
#: Programs the suite workloads run every experiment over (3 of 15).
#: Each job kind's share of jobs and of worker busy time is within 0.4
#: percentage points of the whole suite's (perfbench/README.md).
SUITE_PROGRAMS = ["crc32", "qsort", "spmv"]
#: Programs of the dry run.
DRY_PROGRAMS = ["matmul"]
#: The paper's average adaptive-encoding saving.
PAPER_SAVING = 0.222
#: Relative tolerance of the fidelity pins.
PIN_TOLERANCE = 1e-6
#: Seed-independent model constants (benchmarks/trajectory/BENCH_0001.json).
MODEL_PINS = {
    "write_asymmetry": 9.943719786561985,
    "delta_balance": 1.000695075674927,
}
#: Outputs pinned at seed 7: the whole suite's F3 saving, and the
#: digests of ``SUITE_PROGRAMS`` and of the full sweep grid.
SEED7_PINS = {
    "cnt_average": 0.18053959665642297,
    "render_sha": "6d64225cb01471338d4f369cb36c77d63537b6fa95d47433311b34d018215dec",
    "stats_sha": "7ff4d1f1b105869e3b966b02932fbfa1fd241d78060255c0470546de976b4e0b",
    "sweep_stats_sha": "51670570cf4a00eee69f1626a5bd45e86d0fd3130d881a62575deecc8115933a",
}
#: Job kinds whose worker busy time is reported.
JOB_KINDS = ("workload", "oracle", "l2", "audit", "trace")
#: Sweep access classes (``child.SWEEP_TRACES``).
ACCESS_CLASSES = ("readonly", "writeheavy", "thrash")
#: Per-layer metrics (by prefix) that must be non-zero in a dry run.
NONZERO = {
    "suite-cold": (
        "workloads.", "exec.plan", "exec.store.reads", "exec.store.read_s",
        "exec.store.write", "exec.worker.", "exec.engine.run_jobs_s",
        "exec.backends.", "exec.result.", "runner.", "oracle.",
        "multilevel.", "accuracy.", "experiments.", "sim.", "fidelity_",
        "trace.wall_s", "trace.untraced_wall_s",
    ),
    "suite-warm": (
        "exec.plan", "exec.store.read", "exec.store.hit",
        "exec.engine.run_jobs_s", "exec.result.", "experiments.", "sim.",
        "fidelity_", "trace.wall_s", "trace.untraced_wall_s",
    ),
    "suite-parallel": (
        "exec.plan", "exec.store.write", "exec.worker.", "exec.backends.",
        "exec.result.", "experiments.", "sim.", "fidelity_", "trace.wall_s",
        "trace.untraced_wall_s",
    ),
    "sweep-long": (
        "workloads.build_s", "workloads.builds", "backends.", "sim.",
        "trace.wall_s", "trace.untraced_wall_s",
    ),
}
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed measurement)."""


def now() -> float:
    """System-wide monotonic clock, comparable with the children's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        group: {spec["name"]: spec["unit"] for spec in document[group]}
        for group in ("end_to_end", "per_layer")
    }


# --------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------- #
def _tree(pid: int) -> list[int]:
    """``pid`` and its live descendants, from /proc."""
    found, queue = [], [pid]
    while queue:
        current = queue.pop()
        found.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                queue.extend(int(child) for child in task.read_text().split())
            except OSError:
                continue  # the task ended between glob and read
    return found


def _peak_kb(pid: int) -> int:
    """VmHWM (peak resident set) of one process, 0 once it has gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class Runner:
    """Starts measurement children and owns their temporary directories."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        base = ROOT / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.count = 0
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("PYTHON")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def fresh_dir(self) -> str:
        self.count += 1
        path = self.tmp / f"cache-{self.count}"
        path.mkdir()
        return str(path)

    def child(self, spec: dict) -> dict:
        """Run one measurement child; returns its document plus ``peak_mb``.

        ``peak_mb`` is the child's own peak resident set, which it
        reports when its measurement ends (before writing its document),
        plus the largest sum of its live descendants' peaks (VmHWM, read
        from /proc every 50 ms): the pool workers.
        """
        self.count += 1
        spec_path = self.tmp / f"spec-{self.count}.json"
        out_path = self.tmp / f"out-{self.count}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        command = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_path)]
        process = subprocess.Popen(
            command + [repr(now())],
            cwd=ROOT,
            env=self.env,
            stdout=sys.stderr,
        )
        peak_kb = 0
        try:
            while True:
                live = sum(_peak_kb(pid) for pid in _tree(process.pid)[1:])
                peak_kb = max(peak_kb, live)
                try:
                    code = process.wait(timeout=0.05)
                    break
                except subprocess.TimeoutExpired:
                    if now() > self.deadline:
                        raise BenchError("the run exceeded its time budget")
        finally:
            if process.poll() is None:
                for pid in _tree(process.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass  # already gone
                process.wait()
        if code != 0:
            return {"error": f"child exited with code {code}", "units": []}
        document = json.loads(out_path.read_text(encoding="utf-8"))
        document["peak_mb"] = (document["peak_kb"] + peak_kb) / 1024
        return document


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
def spec_for(workload: str, seed: int, seconds: float, dry: bool) -> dict:
    shape = WORKLOADS[workload]
    return {
        "kind": shape["kind"],
        "jobs": shape["jobs"],
        "warm": shape["warm"],
        "seed": seed,
        "seconds": seconds,
        "programs": DRY_PROGRAMS if dry else SUITE_PROGRAMS,
        "grid": "mini" if dry else "full",
        "setup_only": False,
        "traced": False,
        "calibrate": False,
        "cache_dir": None,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, dry: bool,
        runner: Runner) -> dict:
    """Measure one workload; returns metrics, counts and failed checks."""
    base = spec_for(workload, seed, seconds, dry)
    suite = base["kind"] == "suite"
    filled = warm_cache = None
    if workload == "suite-warm":
        warm_cache = runner.fresh_dir()
        filled = runner.child(
            dict(base, jobs=FILL_JOBS, seconds=0, cache_dir=warm_cache)
        )

    def measure(**changes) -> dict:
        # Untraced runs time host seconds at the reference speed.
        spec = dict(base, calibrate=not traced, **changes)
        if suite and spec["cache_dir"] is None:
            spec["cache_dir"] = warm_cache or runner.fresh_dir()
        return runner.child(spec)

    # Set-up samples straddle the measurement, so that they see more of
    # the host's slow swings in speed than a burst would.
    samples = 0 if traced else SETUP_SAMPLES - 1
    setups = [measure(setup_only=True) for _ in range(samples // 2)]
    plain = measure()
    measured = [plain, measure(traced=True)] if traced else [plain]
    setups += [measure(setup_only=True) for _ in range(samples - samples // 2)]
    # The whole suite's F3 saving, for the seed-7 pin and fidelity_err_pp.
    reference = None
    if suite and (traced or seed == 7):
        reference = runner.child(dict(base, kind="fidelity"))

    checks = check(
        workload, seed, dry, plain, measured[-1], filled, setups, reference
    )
    units = [
        unit
        for child in measured + ([filled] if filled else [])
        for unit in child["units"]
    ]
    # A child that died reports no units; it still counts as a failure.
    attempted = max(1, sum(unit["jobs"] for unit in units))
    failed = attempted if checks else sum(unit["failed"] for unit in units)
    metrics = {}
    speed = None
    measurable = plain["units"] and not any(
        "error" in item for item in measured + setups + units
    )
    suite_saving = None
    if reference is not None and "error" not in reference:
        suite_saving = reference["cnt_average"]
    if measurable:
        if traced:
            metrics = per_layer(plain, measured[-1], suite_saving)
        else:
            metrics = end_to_end(plain, setups)
            speed = host_speed(plain["units"])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "suite_saving": suite_saving,
        "host_speed": speed,
        "digests": {
            key: plain["units"][0].get(key)
            for key in ("render_sha", "stats_sha", "cnt_average")
        } if plain["units"] else {},
    }


def check(workload, seed, dry, plain, traced, filled, setups,
          reference) -> list[str]:
    """Output checks; returns a description of every check that failed."""
    failures = []
    children = [("run", plain), ("traced", traced)]
    if filled is not None:
        children.append(("fill", filled))
    if reference is not None:
        children.append(("fidelity", reference))
    children += [(f"setup {n}", child) for n, child in enumerate(setups)]
    for label, child in children:
        if "error" in child:
            failures.append(f"{label}: {child['error']}")
        for unit in child.get("units", []):
            if "error" in unit:
                failures.append(f"{label}: {unit['error']}")
            elif unit["failed"]:
                failures.append(f"{label}: {unit['failed']} job(s) failed")
    if failures:
        return failures

    units = plain["units"] + traced["units"] + (filled["units"] if filled else [])
    keys = ["stats_sha"] + (["render_sha"] if "render_sha" in units[0] else [])
    for key in keys:
        if len({unit[key] for unit in units}) != 1:
            failures.append(f"{key} differs between units, runs or the fill")
    first = units[0]
    if reference is not None:
        pins = dict(MODEL_PINS)
        if seed == 7:
            pins["cnt_average"] = SEED7_PINS["cnt_average"]
        for name, pinned in pins.items():
            value = reference[name]
            if not math.isclose(value, pinned, rel_tol=PIN_TOLERANCE):
                failures.append(f"{name} {value!r} != pinned {pinned!r}")
    if seed == 7 and not dry:
        digests = (
            [("stats_sha", "sweep_stats_sha")]
            if workload == "sweep-long"
            else [("render_sha", "render_sha"), ("stats_sha", "stats_sha")]
        )
        for key, pin in digests:
            if first[key] != SEED7_PINS[pin]:
                failures.append(f"{key} {first[key]} != seed-7 pin")
    if workload == "suite-warm":
        for unit in plain["units"] + traced["units"]:
            if unit["executed"] or unit["cache_hits"] != unit["jobs"]:
                failures.append(
                    f"warm unit simulated {unit['executed']} job(s) and "
                    f"read {unit['cache_hits']}/{unit['jobs']} from the cache"
                )
                break
    if workload == "sweep-long":
        for child in (plain, traced):
            if child["scalar_mismatches"]:
                failures.append(
                    f"{child['scalar_mismatches']} sampled call(s) differ "
                    "from backend='scalar' replays"
                )
    return failures


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def median_of(units: list[dict], value) -> float:
    return statistics.median(value(unit) for unit in units)


def pooled(units: list[dict]) -> dict:
    """The units' calibration tallies, summed."""
    return {
        key: sum(unit[key] for unit in units)
        for key in ("slices", "slice_cpu_s", "own_slice_cpu_s")
    }


def end_to_end(plain: dict, setups: list[dict]) -> dict[str, float]:
    """Times are host seconds at the reference speed (``child.Calibrator``).

    ``setup_s`` is the median over the fresh interpreters; ``wall_s`` is
    the mean unit, pooled over the run so that every unit is scaled by
    the host's speed over the whole run.
    """
    units = plain["units"]
    host_s = calibrated(sum(unit["wall_s"] for unit in units), pooled(units))
    return {
        "setup_s": statistics.median(
            calibrated(child["setup_s"], child["setup_calibration"])
            for child in setups + [plain]
        ),
        "wall_s": host_s / len(units),
        "accesses_per_s": sum(unit["accesses"] for unit in units) / host_s,
        "peak_rss_mb": plain["peak_mb"],
    }


def host_speed(units: list[dict]) -> dict:
    """The host's speed over the units, for the stamp line."""
    tally = pooled(units)
    return {
        "speed": REFERENCE_SLICE_S * tally["slices"] / tally["slice_cpu_s"]
        if tally["slices"] else None,
        "slices": tally["slices"],
        "raw_wall_s": statistics.mean(unit["wall_s"] for unit in units),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fidelity_err_pp(suite_saving: float | None) -> float:
    """|whole-suite cnt average saving - 22.2%|; 0 where it is not run."""
    if suite_saving is None:
        return 0.0
    return 100 * abs(suite_saving - PAPER_SAVING)


def unit_layers(child: dict, unit: dict,
                suite_saving: float | None) -> dict[str, float]:
    """Per-layer metrics of one traced unit (0 where a layer is off-path)."""
    tally = Counter(child.get("setup_layers", {}))
    tally.update(unit.get("layers", {}))
    busy = unit.get("busy", {})
    workers = unit.get("workers", 0)
    run_jobs_s = unit.get("resolve_s", 0.0)
    builds = tally["workloads.build.calls"]
    build_runs = tally["workloads.build_run.calls"]
    memo_hits = max(0, build_runs - builds)
    run_s = unit.get("run_s", {})
    run_accesses = unit.get("run_accesses", {})
    metrics = {
        "workloads.build_s": tally["workloads.build.s"],
        "workloads.builds": builds,
        "workloads.build_run_calls": build_runs,
        "workloads.memo_hits": memo_hits,
        "workloads.memo_hit_ratio": ratio(memo_hits, build_runs),
        "exec.plan_s": child.get("plan_s", 0.0),
        "exec.plan_declared": child.get("declared", 0),
        "exec.plan_unique": child.get("unique", 0),
        "exec.plan_unique_ratio": ratio(
            child.get("unique", 0), child.get("declared", 0)
        ),
        "exec.store.read_s": tally["exec.store.read.s"],
        "exec.store.reads": tally["exec.store.read.calls"],
        "exec.store.hits": tally["exec.store.hits"],
        "exec.store.hit_ratio": ratio(
            tally["exec.store.hits"], tally["exec.store.read.calls"]
        ),
        "exec.store.write_s": tally["exec.store.write.s"],
        "exec.store.writes": tally["exec.store.write.calls"],
        "exec.worker.executed": unit.get("executed", 0),
        "exec.engine.run_jobs_s": run_jobs_s,
        "exec.engine.self_s": (
            run_jobs_s
            - ratio(sum(busy.values()), workers)
            - tally["exec.store.read.s"]
            - tally["exec.store.write.s"]
        ) if workers else 0.0,
        "exec.engine.retries": unit.get("retries", 0),
        "exec.engine.failures": unit.get("failures", 0),
        "exec.backends.workers": workers,
        "exec.backends.utilization": ratio(
            sum(busy.values()), run_jobs_s * workers
        ),
        "exec.result.payloads": unit.get("payloads", 0),
        "exec.result.payload_roundtrip_us": 1e6 * ratio(
            unit.get("payload_roundtrip_s", 0.0), unit.get("payloads", 0)
        ),
        "runner.replay_s": tally["runner.replay.s"],
        "runner.replays": tally["runner.replay.calls"],
        "backends.make_s": unit.get("make_s", 0.0),
        "backends.makes": unit.get("makes", 0),
        "backends.preload_s": unit.get("preload_s", 0.0),
        "oracle.bound_s": tally["oracle.bound.s"],
        "oracle.calls": tally["oracle.bound.calls"],
        "oracle.accesses": tally["oracle.accesses"],
        "oracle.ns_per_access": 1e9 * ratio(
            tally["oracle.bound.s"], tally["oracle.accesses"]
        ),
        "multilevel.l1_filter_s": tally["multilevel.l1_filter.s"],
        "multilevel.l1_filters": tally["multilevel.l1_filter.calls"],
        "accuracy.audit_s": tally["accuracy.audit.s"],
        "accuracy.audits": tally["accuracy.audit.calls"],
        "experiments.render_s": unit.get("render_s", 0.0),
        "sim.accesses": unit["accesses"],
        "sim.cache_accesses": unit["stat_accesses"],
        "sim.misses": unit["misses"],
        "sim.miss_ratio": ratio(unit["misses"], unit["stat_accesses"]),
        "sim.cnt_saving": unit["cnt_average"],
        "fidelity_err_pp": fidelity_err_pp(suite_saving),
    }
    for kind in JOB_KINDS:
        metrics[f"exec.worker.busy_s.{kind}"] = busy.get(kind, 0.0)
    for access_class in ACCESS_CLASSES:
        accesses = run_accesses.get(access_class, 0)
        metrics[f"backends.run_accesses.{access_class}"] = accesses
        metrics[f"backends.run_ns_per_access.{access_class}"] = 1e9 * ratio(
            run_s.get(access_class, 0.0), accesses
        )
    return metrics


def per_layer(plain: dict, traced: dict,
              suite_saving: float | None) -> dict[str, float]:
    """Median over the traced units, plus the tracing overhead."""
    rows = [unit_layers(traced, unit, suite_saving) for unit in traced["units"]]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    traced_wall = median_of(traced["units"], lambda unit: unit["wall_s"])
    plain_wall = median_of(plain["units"], lambda unit: unit["wall_s"])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    return metrics


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def stamp() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def git_sha() -> str:
    """HEAD of the checkout (``unknown`` outside git or without git)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            # A checkout that is not a repository must not report the
            # SHA of a repository around it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def preflight() -> None:
    if os.environ.get("REPRO_FAULTS"):
        raise BenchError("REPRO_FAULTS is set; refusing to measure with faults")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metric mismatch: missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def dry_run() -> int:
    """Every workload at minimal length, untraced and traced, at seed 7."""
    declared = declared_metrics()
    problems = [
        f"bad metric name {name!r}"
        for group in declared.values()
        for name in group
        if not NAME_PATTERN.fullmatch(name)
    ]
    renders = {}
    runner = Runner(now() + 10 * RUN_BUDGET_S)
    try:
        for workload in WORKLOADS:
            for traced in (False, True):
                started = now()
                record = run(workload, 7, 1.0, traced, True, runner)
                group = declared["per_layer" if traced else "end_to_end"]
                label = f"{workload} trace={int(traced)}"
                problems += [f"{label}: {text}" for text in record["checks"]]
                if set(record["metrics"]) != set(group):
                    problems.append(f"{label}: emitted metrics != declared")
                for name, value in record["metrics"].items():
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append(f"{label}: {name} = {value!r}")
                    elif traced and value == 0 and name.startswith(
                        NONZERO[workload]
                    ):
                        problems.append(f"{label}: {name} is 0")
                if record["digests"].get("render_sha"):
                    renders[workload] = record["digests"]["render_sha"]
                print(f"dry-run {label}: {now() - started:.1f}s", file=sys.stderr)
    finally:
        runner.close()
    if len(set(renders.values())) != 1:
        problems.append(f"render digests differ across workloads: {renders}")
    for problem in problems:
        print(f"dry-run FAIL {problem}", file=sys.stderr)
    print("dry-run " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops its children and removes its caches.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        preflight()
        if args.dry_run:
            return dry_run()
        if args.workload is None:
            parser.error("--workload is required (or --dry-run)")
        declared = declared_metrics()
        runner = Runner(now() + RUN_BUDGET_S)
        try:
            record = run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                False, runner,
            )
        finally:
            runner.close()
        group = declared["per_layer" if args.trace else "end_to_end"]
        metrics = with_units(record["metrics"], group) if record["metrics"] else {}
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    saving = record["suite_saving"]
    print(json.dumps({
        "perfbench": {
            **stamp(),
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "failed_frac": record["failed"] / record["attempted"],
            "fidelity_err_pp": None if saving is None
            else fidelity_err_pp(saving),
            "host_speed": record["host_speed"],
            "digests": record["digests"],
            "failed_checks": record["checks"],
        }
    }))
    print(json.dumps({
        "correct": not record["failed"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if not record["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
