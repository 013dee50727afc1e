"""One measurement in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json OUT.json SPAWNED``

``run.py`` writes the spec, starts this script with ``PYTHONPATH=src``
and reads the result document back from ``OUT.json``.  The spec names
the workload family (``suite``, ``sweep`` or the untimed ``fidelity``
reference), the seed, the seconds to measure, and whether to stop after
set-up (a set-up sample) or to wrap the layers (a traced measurement).
``SPAWNED`` is the parent's
``CLOCK_MONOTONIC`` reading just before it started this interpreter, so
``setup_s`` covers interpreter start, imports and the workload's
set-up.  Nothing in here checks results; it reports digests and raw
values and ``run.py`` judges them.

A calibrated child (every untraced measurement and set-up sample) also
samples the host's speed while it runs; see ``Calibrator``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import random
import resource
import signal
import struct
import sys
import time
from pathlib import Path

#: Problem size of the suite workloads (``cntcache all --size smoke``).
SUITE_SIZE = "tiny"
#: Problem size of the sweep traces.
SWEEP_SIZE = "small"
#: Sweep traces by access class: read-only, write-heavy, miss-heavy.
SWEEP_TRACES = (
    ("readonly", "crc32"),
    ("writeheavy", "stream"),
    ("thrash", "pointer_chase"),
)
#: Cache capacities: the working sets fit in one and overflow the other.
SWEEP_CAPACITIES = (8 * 1024, 32 * 1024)
#: (scheme, window W, partitions K) points swept at every capacity.
SWEEP_POINTS = (
    ("baseline", 16, 8),
    ("cnt", 16, 8),
    ("cnt", 8, 4),
)
#: Sweep calls re-replayed with an explicit ``backend="scalar"``.
SWEEP_SAMPLE = 3
#: Real time between two calibration slices.
SLICE_INTERVAL_S = 0.02
#: Loop iterations of one calibration slice.
SLICE_ITERATIONS = 2000
#: What one slice takes at the reference speed: an idle core of the
#: 2.1 GHz Xeon KVM guest the benchmark was tuned on, under CPython 3.11.
REFERENCE_SLICE_S = 0.001


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_slice() -> int:
    """A fixed piece of pure-Python work of the simulator's kind.

    A direct-mapped toy cache over a linear-congruential address stream,
    with a popcount per fill: integer arithmetic, list indexing and
    builtin calls, and nothing from the program under test.
    """
    tags = [0] * 64
    data = [0] * 64
    total = 0
    key = 1
    for _ in range(SLICE_ITERATIONS):
        key = (key * 1103515245 + 12345) & 0x7FFFFFFF
        slot = key & 63
        tag = key >> 12
        if tags[slot] == tag:
            total += data[slot]
        else:
            tags[slot] = tag
            data[slot] = bin(key).count("1")
        total ^= key
    return total


def calibrated(raw_s: float, tally: dict) -> float:
    """``raw_s`` without its calibration slices, at the reference speed.

    ``tally`` is a ``Calibrator.since`` reading over ``raw_s``; without
    a slice (an uncalibrated child) the raw time is returned.
    """
    if not tally["slices"]:
        return raw_s
    speed = REFERENCE_SLICE_S * tally["slices"] / tally["slice_cpu_s"]
    return (raw_s - tally["own_slice_cpu_s"]) * speed


class Calibrator:
    """Samples the host's speed while the program runs.

    The cores of a shared host slow down, by up to 2x and from one
    second to the next, while neighbours are busy.  Every
    ``SLICE_INTERVAL_S`` of real time a ``SIGALRM`` handler runs one
    ``calibration_slice`` between two bytecodes of the program and
    tallies the CPU time it ran for.  A span of program time that
    contained ``slices`` slices running ``slice_cpu_s`` seconds ran at
    ``REFERENCE_SLICE_S * slices / slice_cpu_s`` of the reference speed;
    ``calibrated`` takes the measuring interpreter's own slices out and
    scales the rest back.  CPU time, not real time, measures the speed
    of a core: on ``suite-parallel`` a slice may wait for a core behind
    the benchmark's own pool workers.

    The measuring interpreter slices, and so does every process forked
    from it (the pool workers, which would not inherit the timer): each
    keeps its running tally in its own slot of a shared anonymous
    mapping, slot 0 being the measuring interpreter's.
    """

    SLOT = struct.Struct("<qd")
    MAX_SLOTS = 256

    def __init__(self) -> None:
        self.shared = mmap.mmap(-1, self.SLOT.size * self.MAX_SLOTS)
        self.slot = 0
        self.forks = 0
        self.slices = 0
        self.cpu_s = 0.0
        self.running = False

    def _tick(self, signum, frame) -> None:
        started = time.thread_time()
        calibration_slice()
        self.cpu_s += time.thread_time() - started
        self.slices += 1
        self.SLOT.pack_into(
            self.shared, self.slot * self.SLOT.size, self.slices, self.cpu_s
        )

    def _arm(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_INTERVAL_S, SLICE_INTERVAL_S)

    def _before_fork(self) -> None:
        self.forks += 1

    def _in_child(self) -> None:
        if self.running and self.slot == 0 and self.forks < self.MAX_SLOTS:
            self.slot = self.forks
            self.slices, self.cpu_s = 0, 0.0
            self._arm()

    def start(self) -> None:
        self.running = True
        os.register_at_fork(
            before=self._before_fork, after_in_child=self._in_child
        )
        self._arm()

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> list[tuple[int, float]]:
        return [
            self.SLOT.unpack_from(self.shared, index * self.SLOT.size)
            for index in range(self.MAX_SLOTS)
        ]

    def since(self, mark: list[tuple[int, float]]) -> dict:
        """Slices taken since ``mark``, a reading of ``mark()``."""
        rows = [
            (slices - old_slices, cpu_s - old_cpu_s)
            for (slices, cpu_s), (old_slices, old_cpu_s) in zip(self.mark(), mark)
        ]
        return {
            "slices": sum(slices for slices, _ in rows),
            "slice_cpu_s": sum(cpu_s for _, cpu_s in rows),
            "own_slice_cpu_s": rows[0][1],
        }


#: The interpreter's calibrator (it slices only once started).
CALIBRATOR = Calibrator()
ZERO = CALIBRATOR.mark()


def sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def time_for_another(units: list[dict], deadline: float) -> bool:
    """Whether one more unit, as long as the last, ends by ``deadline``."""
    last = units[-1]
    return "error" not in last and now() + last["wall_s"] <= deadline


def fidelity(spec: dict, layers) -> dict:
    """Table I write asymmetry, the Eq. 3 balance and the F3 saving.

    The saving is the cnt average over every program of the suite, as
    ``cntcache f3`` reports it, resolved without a disk cache.
    """
    from repro.api import make_engine
    from repro.cnfet.energy import BitEnergyModel
    from repro.cnfet.sram import Sram6TCell
    from repro.harness.experiments import run_experiment

    model = BitEnergyModel.from_cell(Sram6TCell())
    f3 = run_experiment(
        "f3", size=SUITE_SIZE, seed=spec["seed"], engine=make_engine()
    )
    return {
        "write_asymmetry": model.write_asymmetry,
        "delta_balance": model.delta_read / model.delta_write,
        "cnt_average": f3.data["cnt_average"],
    }


# --------------------------------------------------------------------- #
# suite-cold / suite-warm / suite-parallel
# --------------------------------------------------------------------- #
def unit_cache(spec: dict, index: int) -> str:
    """The result cache of one unit: shared when warm, empty when cold."""
    if spec["warm"]:
        return spec["cache_dir"]
    return str(Path(spec["cache_dir"]) / f"unit-{index}")


def suite(spec: dict, layers) -> dict:
    """``cntcache all`` with every experiment restricted to ``programs``.

    Every experiment iterates ``repro.harness.experiments.workload_names``;
    replacing that name keeps each experiment's jobs and their kinds in
    the suite's proportions at a fraction of its length.
    """
    from repro.api import make_engine
    from repro.exec.planner import plan_jobs
    from repro.exec.worker import clear_memos
    from repro.harness import experiments

    programs = list(spec["programs"])
    experiments.workload_names = lambda: list(programs)
    if layers is not None:
        layers.install()
    seed = spec["seed"]
    ids = sorted(experiments.EXPERIMENTS)
    plans = experiments.EXPERIMENT_PLANS
    started = now()
    union = [
        job
        for experiment_id in ids
        if experiment_id in plans
        for job in plans[experiment_id](SUITE_SIZE, seed).values()
    ]
    plan = plan_jobs(union)
    plan_s = now() - started
    engine = make_engine(jobs=spec["jobs"], cache_dir=unit_cache(spec, 0))
    out = {
        "setup_s": now() - spec["spawned"],
        "setup_calibration": CALIBRATOR.since(ZERO),
        "plan_s": plan_s,
        "declared": len(plan.requested),
        "unique": len(plan.unique),
    }
    if spec["setup_only"]:
        return out

    units = []
    deadline = now() + spec["seconds"]
    while True:
        units.append(suite_unit(engine, union, ids, seed, layers))
        if not time_for_another(units, deadline):
            break
        if not spec["warm"]:
            clear_memos()  # the next cold unit builds every trace again
        engine = make_engine(
            jobs=spec["jobs"], cache_dir=unit_cache(spec, len(units))
        )
    out["units"] = units
    return out


def suite_unit(engine, union, ids, seed, layers) -> dict:
    """Resolve the plan and render every experiment: one timed unit."""
    from repro.exec import ExecResult
    from repro.harness.experiments import run_experiment

    counters = engine.counters
    unit: dict = {"jobs": len({job.fingerprint for job in union})}
    mark = CALIBRATOR.mark()
    started = now()
    try:
        results = engine.run_jobs(union)
        resolved = now()
        experiments = [
            run_experiment(experiment_id, size=SUITE_SIZE, seed=seed, engine=engine)
            for experiment_id in ids
        ]
        renders = [result.render() for result in experiments]
        finished = now()
    except Exception as error:  # a failed unit is reported, not raised
        unit["error"] = f"{type(error).__name__}: {error}"
        unit["failed"] = unit["jobs"] - counters.cache_hits - counters.executed
        return unit

    unique = {result.job.fingerprint: result for result in results}
    stats = [result.stats for result in unique.values() if result.stats]
    busy: dict[str, float] = {}
    for result in unique.values():
        if result.source == "run":
            busy[result.job.kind] = busy.get(result.job.kind, 0.0) + result.wall_s
    by_id = dict(zip(ids, experiments))
    unit.update(
        wall_s=finished - started,
        resolve_s=resolved - started,
        render_s=finished - resolved,
        **CALIBRATOR.since(mark),
        failed=sum(1 for result in unique.values() if not result.ok),
        accesses=sum(result.accesses for result in unique.values()),
        stat_accesses=sum(item.accesses for item in stats),
        misses=sum(item.misses for item in stats),
        render_sha=sha256(renders),
        stats_sha=sha256(sorted(r.canonical() for r in unique.values())),
        cnt_average=by_id["f3"].data["cnt_average"],
        busy=busy,
        executed=counters.executed,
        cache_hits=counters.cache_hits,
        retries=counters.retries,
        failures=counters.failures,
        workers=engine.jobs,
    )
    if layers is not None:
        unit["layers"] = layers.take()
        # Transport cost of every result, timed after the unit.
        roundtrip = 0.0
        mismatched = 0
        for result in unique.values():
            tick = now()
            back = ExecResult.from_payload(result.job, result.payload(), "run")
            roundtrip += now() - tick
            mismatched += back.canonical() != result.canonical()
        unit["payload_roundtrip_s"] = roundtrip
        unit["payloads"] = len(unique)
        unit["failed"] += mismatched
    return unit


# --------------------------------------------------------------------- #
# sweep-long
# --------------------------------------------------------------------- #
def sweep(spec: dict, layers) -> dict:
    from repro.api import make_cache, simulate
    from repro.core.config import CNTCacheConfig
    from repro.workloads.program import get_workload

    if layers is not None:
        layers.install()
    seed = spec["seed"]
    points = SWEEP_POINTS if spec["grid"] == "full" else SWEEP_POINTS[:2]
    calls = []
    for access_class, name in SWEEP_TRACES:
        run = get_workload(name).build(SWEEP_SIZE, seed=seed)
        for capacity in SWEEP_CAPACITIES:
            for scheme, window, partitions in points:
                config = CNTCacheConfig(
                    size=capacity,
                    scheme=scheme,
                    window=window,
                    partitions=partitions,
                )
                calls.append((access_class, run, config))
    out = {
        "setup_s": now() - spec["spawned"],
        "setup_calibration": CALIBRATOR.since(ZERO),
        "calls": len(calls),
    }
    if layers is not None:
        out["setup_layers"] = layers.take()
    if spec["setup_only"]:
        return out

    units = []
    deadline = now() + spec["seconds"]
    while True:
        unit: dict = {"jobs": len(calls)}
        mark = CALIBRATOR.mark()
        started = now()
        try:
            if layers is None:
                stats = [
                    simulate(workload=run, config=config).stats
                    for _, run, config in calls
                ]
            else:
                stats = split_replays(calls, make_cache, unit)
        except Exception as error:  # a failed unit is reported, not raised
            unit["error"] = f"{type(error).__name__}: {error}"
            unit["failed"] = len(calls)
            out["units"] = units + [unit]
            return out
        unit["wall_s"] = now() - started
        unit.update(CALIBRATOR.since(mark))
        unit.update(sweep_digest(calls, stats, len(points)))
        units.append(unit)
        if not time_for_another(units, deadline):
            break
    out["units"] = units

    # Output check: a seeded sample of calls against the scalar oracle.
    mismatches = 0
    for index in random.Random(seed).sample(range(len(calls)), SWEEP_SAMPLE):
        _, run, config = calls[index]
        oracle = simulate(workload=run, config=config, backend="scalar")
        mismatches += oracle.stats.to_dict() != stats[index].to_dict()
    out["scalar_mismatches"] = mismatches
    return out


def split_replays(calls, make_cache, unit: dict) -> list:
    """Traced sweep: make the cache, preload and run as separate calls."""
    make_s = preload_s = 0.0
    run_s: dict[str, float] = {}
    run_accesses: dict[str, int] = {}
    stats = []
    for access_class, run, config in calls:
        tick = now()
        sim = make_cache(config=config)
        made = now()
        sim.preload_all(run.preloads)
        loaded = now()
        sim.run(run.trace)
        ran = now()
        make_s += made - tick
        preload_s += loaded - made
        run_s[access_class] = run_s.get(access_class, 0.0) + ran - loaded
        run_accesses[access_class] = (
            run_accesses.get(access_class, 0) + sim.stats.accesses
        )
        stats.append(sim.stats)
    unit.update(
        make_s=make_s,
        makes=len(calls),
        preload_s=preload_s,
        run_s=run_s,
        run_accesses=run_accesses,
    )
    return stats


def sweep_digest(calls, stats, per_capacity: int) -> dict:
    """Stats digest, modelled totals and the cnt-vs-baseline saving."""
    savings = []
    for index, (_, _, config) in enumerate(calls):
        if config.scheme == "cnt":
            reference = stats[index - index % per_capacity]
            savings.append(stats[index].savings_vs(reference))
    return {
        "failed": 0,
        "accesses": sum(item.accesses for item in stats),
        "stat_accesses": sum(item.accesses for item in stats),
        "misses": sum(item.misses for item in stats),
        "stats_sha": sha256(
            json.dumps(item.to_dict(), sort_keys=True) for item in stats
        ),
        "cnt_average": sum(savings) / len(savings),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    spec["spawned"] = float(argv[3])
    if spec["calibrate"]:
        CALIBRATOR.start()
    layers = None
    if spec["traced"]:
        from layers import Layers

        layers = Layers()
    measure = {"suite": suite, "sweep": sweep, "fidelity": fidelity}[spec["kind"]]
    out = measure(spec, layers)
    CALIBRATOR.stop()
    if layers is not None:
        layers.uninstall()
    out["peak_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(argv[2]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
