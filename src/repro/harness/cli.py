"""Command-line entry point: ``cntcache`` / ``python -m repro.harness.cli``.

Examples::

    cntcache list                 # available experiments and workloads
    cntcache t1                   # render Table I
    cntcache f3 --size default    # the main result at full problem size
    cntcache all --size small     # every experiment, one deduplicated plan
    cntcache all --jobs 4 --cache-dir .exec-cache --progress
    cntcache selftest             # exec-engine determinism self-check
    cntcache lint src tests       # domain lint + physics-invariant checks
    cntcache profile --size smoke --jobs 2   # pipeline breakdown + manifest
    cntcache profile --json --manifest run.jsonl  # machine-readable
    cntcache trace --export chrome --out trace.json   # per-access events
    cntcache bench                # fidelity pins + array speedup floor
    cntcache f3 --jobs 3 --broker /shared/broker  # distributed coordinator
    cntcache worker --broker /shared/broker       # extra fleet worker
    cntcache top --broker /shared/broker          # live fleet dashboard
    cntcache status --broker /shared/broker --json   # one fleet snapshot
    cntcache metrics --broker /shared/broker --format prom  # Prometheus

``all`` unions the job plans of every experiment, deduplicates them (the
baseline reference run is simulated once, not once per figure) and
resolves the unique set through one shared engine before rendering; with
``--jobs N`` that whole set executes across N worker processes, and with
``--cache-dir`` a second invocation replays from the result cache without
simulating anything.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.exec import (
    BrokerConfig,
    BrokerError,
    EngineError,
    ExecEngine,
    JobFailure,
    ResilienceConfig,
    plan_jobs,
    run_selftest,
)
from repro.harness.experiments import (
    EXPERIMENT_PLANS,
    EXPERIMENTS,
    run_experiment,
)
from repro.workloads.program import workload_names

#: CLI size names; "smoke" is the CI alias for the smallest problem size.
SIZE_CHOICES = ("tiny", "small", "default", "smoke")
SIZE_ALIASES = {"smoke": "tiny"}

def write_report(
    path: str | Path, size: str, seed: int, engine: ExecEngine | None = None
) -> Path:
    """Run every experiment and write one self-contained markdown report."""
    import repro

    if engine is None:
        engine = ExecEngine()
    path = Path(path)
    sections = [
        "# CNT-Cache reproduction report",
        "",
        f"- package version: {repro.__version__}",
        f"- workload size: `{size}`, seed: {seed}",
        f"- regenerate: `python -m repro.harness.cli all --size {size} "
        f"--seed {seed}`",
        "",
    ]
    for experiment_id in sorted(EXPERIMENTS):
        started = time.time()
        result = run_experiment(
            experiment_id, size=size, seed=seed, engine=engine
        )
        elapsed = time.time() - started
        sections.append(f"## [{result.id}] {result.title}")
        sections.append("")
        sections.append("```")
        sections.append(result.render())
        sections.append("```")
        sections.append(f"_({elapsed:.1f}s)_")
        sections.append("")
    path.write_text("\n".join(sections), encoding="utf-8")
    return path


def _trace_main(argv: list[str]) -> int:
    """``cntcache trace``: run jobs under the tracer and export the trace."""
    from repro.core.config import CNTCacheConfig
    from repro.exec.job import workload_job
    from repro.obs import trace as trace_module
    from repro.obs.export import write_chrome, write_collapsed

    parser = argparse.ArgumentParser(
        prog="cntcache trace",
        description=(
            "replay workloads with per-access energy-attributed tracing on "
            "and export the events as a Chrome trace or an energy flamegraph"
        ),
    )
    parser.add_argument(
        "--workload",
        dest="workloads",
        action="append",
        metavar="NAME",
        help="workload(s) to trace (repeatable; default: stream)",
    )
    parser.add_argument(
        "--scheme",
        dest="schemes",
        action="append",
        metavar="NAME",
        help="encoding scheme(s) to trace (repeatable; default: cnt)",
    )
    parser.add_argument(
        "--size", default="tiny", choices=SIZE_CHOICES,
        help="workload problem size (default: tiny; smoke = tiny)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: 1 = in-process)",
    )
    parser.add_argument(
        "--trace-every", type=int, default=1, metavar="N",
        help="emit one access event per N demand accesses (default: 1)",
    )
    parser.add_argument(
        "--capacity", type=int, default=None, metavar="EVENTS",
        help=(
            "per-sink ring-buffer bound in events (default: "
            f"{trace_module.CAPACITY}; older events are dropped, counted)"
        ),
    )
    parser.add_argument(
        "--export", default="chrome", choices=("chrome", "collapsed"),
        help=(
            "output format: Chrome trace-event JSON (about:tracing / "
            "Perfetto) or collapsed-stack energy flamegraph (default: chrome)"
        ),
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output path (default: trace.json / trace.collapsed)",
    )
    parser.add_argument(
        "--fleet", default=None, metavar="DIR",
        help=(
            "fleet mode: instead of running jobs, export a broker run's "
            "telemetry bus (a broker root or telemetry directory) as one "
            "Chrome timeline with a process row per worker"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true", help="print per-job progress"
    )
    args = parser.parse_args(argv)
    if args.fleet is not None:
        from repro.obs.export import write_fleet_chrome
        from repro.obs.telemetry import locate, read_all_frames

        if args.export != "chrome":
            print("--fleet only exports chrome traces", file=sys.stderr)
            return 2
        directory, _ = locate(args.fleet)
        if not directory.is_dir():
            print(f"no such directory: {directory}", file=sys.stderr)
            return 2
        frames = read_all_frames(directory)
        path = write_fleet_chrome(frames, args.out or "fleet-trace.json")
        procs = len({frame.get("proc") for frame in frames})
        print(
            f"fleet trace: {len(frames)} frame(s) from {procs} process(es)"
        )
        print(f"chrome trace written to {path}")
        return 0
    size = SIZE_ALIASES.get(args.size, args.size)
    workloads = args.workloads or ["stream"]
    schemes = args.schemes or ["cnt"]
    known = set(workload_names())
    for name in workloads:
        if name not in known:
            print(f"unknown workload {name!r}; try 'list'", file=sys.stderr)
            return 2
    try:
        configs = [CNTCacheConfig(scheme=scheme) for scheme in schemes]
        trace_module.configure(every=args.trace_every, capacity=args.capacity)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    jobs = [
        workload_job(config, name, size, args.seed)
        for config in configs
        for name in workloads
    ]
    progress = (lambda line: print(line, flush=True)) if args.progress else None
    engine = ExecEngine(jobs=args.jobs, progress=progress)
    sink = trace_module.TraceSink(capacity=args.capacity)
    try:
        with trace_module.tracing(
            sink, every=args.trace_every, capacity=args.capacity
        ):
            results = engine.run_jobs(jobs)
    except JobFailure as error:
        print(f"job failed: {error}", file=sys.stderr)
        return 1
    traces = [result.trace for result in results if result.trace]
    out = args.out or ("trace.json" if args.export == "chrome" else "trace.collapsed")
    if args.export == "chrome":
        path = write_chrome(traces, out)
    else:
        path = write_collapsed(traces, out)
    events = sum(len(trace.get("events", [])) for trace in traces)
    dropped = sum(int(trace.get("dropped", 0)) for trace in traces)
    print(
        f"traced {len(traces)} job(s), {events} event(s) retained"
        + (f", {dropped} dropped by the ring bound" if dropped else "")
    )
    print(f"{args.export} trace written to {path}")
    return 0


def _fleet_main(command: str, argv: list[str]) -> int:
    """``cntcache top|status|metrics``: observe a fleet's telemetry bus."""
    import json as json_module

    from repro.obs.telemetry import TelemetryCollector, prometheus_lines

    descriptions = {
        "top": (
            "live refreshing dashboard over a running fleet's telemetry "
            "bus (workers, states, throughput, queue depth; Ctrl-C exits)"
        ),
        "status": (
            "print one fleet snapshot from the telemetry bus "
            "(human-readable, or --json for scripting)"
        ),
        "metrics": (
            "export the fleet snapshot in Prometheus text exposition "
            "format (scrape or push from CI)"
        ),
    }
    parser = argparse.ArgumentParser(
        prog=f"cntcache {command}", description=descriptions[command]
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--broker", metavar="DIR",
        help="broker root directory (tails <DIR>/telemetry)",
    )
    target.add_argument(
        "--telemetry", metavar="DIR",
        help="bare telemetry directory (no broker queue stats)",
    )
    parser.add_argument(
        "--no-resume", action="store_true",
        help=(
            "ignore and do not write the persisted collector state "
            "(.collector-state.json); always re-read every stream from "
            "byte zero"
        ),
    )
    if command == "top":
        parser.add_argument(
            "--interval", type=float, default=1.0, metavar="SECONDS",
            help="refresh interval (default: 1.0)",
        )
        parser.add_argument(
            "--once", action="store_true",
            help="render a single screen and exit (no ANSI clear)",
        )
    elif command == "status":
        parser.add_argument(
            "--json", action="store_true",
            help="emit the snapshot as one JSON object",
        )
    else:
        parser.add_argument(
            "--format", default="prom", choices=("prom",),
            help="output format (only 'prom' for now)",
        )
    args = parser.parse_args(argv)
    directory = Path(args.broker or args.telemetry)
    if not directory.is_dir():
        print(f"no such directory: {directory}", file=sys.stderr)
        return 2
    collector = TelemetryCollector(directory, persist=not args.no_resume)
    if command == "metrics":
        collector.poll()
        print("\n".join(prometheus_lines(collector.snapshot())))
        return 0
    if command == "status":
        collector.poll()
        snapshot = collector.snapshot()
        if args.json:
            print(json_module.dumps(snapshot.to_dict(), sort_keys=True))
        else:
            print(snapshot.render())
        return 0
    try:
        while True:
            collector.poll()
            screen = collector.snapshot().render()
            if args.once:
                print(screen)
                return 0
            # Clear + home, then the freshly-rendered screen.
            sys.stdout.write("\x1b[2J\x1b[H" + screen + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _worker_main(argv: list[str]) -> int:
    """``cntcache worker``: drain a shared broker directory until idle."""
    import signal
    import threading

    from repro.exec.broker import run_worker

    parser = argparse.ArgumentParser(
        prog="cntcache worker",
        description=(
            "claim and execute jobs from a shared filesystem work broker "
            "(see docs/DISTRIBUTED.md); results land in the broker's "
            "content-addressed cache, where the coordinator adopts them"
        ),
    )
    parser.add_argument(
        "--broker", required=True, metavar="DIR",
        help="broker root directory (shared with the coordinator)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help=(
            "claim time-to-live without a heartbeat — the crash-detection "
            "latency (default: 30)"
        ),
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease renewal interval (default: lease-ttl / 3)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle poll interval while nothing is claimable (default: 0.2)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=60.0, metavar="SECONDS",
        help="exit cleanly after this long with nothing to claim (default: 60)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "per-job heartbeat budget: a job running longer stops renewing "
            "its lease and the fleet reclaims it (default: unbounded)"
        ),
    )
    parser.add_argument(
        "--max-generations", type=int, default=None, metavar="N",
        help=(
            "lease generations before a job is quarantined as poison "
            "(default: max_retries + 1)"
        ),
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help=(
            "exit after claiming N jobs, counted per job: an unfinished "
            "chunk is released at the next job boundary (default: run "
            "until idle)"
        ),
    )
    parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="worker identity in lease files (default: <hostname>-<pid>)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-claim progress lines",
    )
    args = parser.parse_args(argv)
    try:
        config = BrokerConfig(
            root=args.broker,
            lease_ttl_s=args.lease_ttl,
            heartbeat_s=args.heartbeat,
            poll_s=args.poll,
            idle_timeout_s=args.idle_timeout,
            max_generations=args.max_generations,
        )
        resilience = ResilienceConfig(job_timeout_s=args.job_timeout)
    except (BrokerError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    stop = threading.Event()
    try:
        # SIGTERM = graceful drain: finish the current job, release the
        # chunk, then exit.
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:  # lint: disable=R007
        pass  # not the main thread (embedded use): idle timeout still exits
    progress = (lambda line: print(line, flush=True)) if args.progress else None
    stats = run_worker(
        config,
        worker_id=args.worker_id,
        resilience=resilience,
        max_jobs=args.max_jobs,
        progress=progress,
        hard_faults=True,
        stop=stop,
    )
    print(f"worker done: {stats.describe()}", flush=True)
    return 0


def _bench_main(argv: list[str]) -> int:
    """``cntcache bench``: check every fidelity pin and the speedup floor."""
    from repro.obs import bench as bench_module

    parser = argparse.ArgumentParser(
        prog="cntcache bench",
        description=(
            "measure the paper-fidelity pins (Table I asymmetry, Eq. 3 "
            "balance, F3 average saving, EnergyStats digests) and the "
            "array/scalar speedup; exit 1 when one misses the committed "
            "record or the 5x floor"
        ),
    )
    parser.add_argument(
        "--record", default=str(bench_module.RECORD), metavar="PATH",
        help=f"the pin record (default: {bench_module.RECORD})",
    )
    args = parser.parse_args(argv)
    try:
        verdicts = bench_module.check(args.record)
    except bench_module.BenchError as error:
        print(str(error), file=sys.stderr)
        return 2
    for verdict in verdicts:
        print(verdict.describe())
    failed = [verdict.pin for verdict in verdicts if not verdict.ok]
    if failed:
        print(f"bench check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"bench check passed: {len(verdicts)} pins")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cntcache",
        description="CNT-Cache (DATE 2020) reproduction harness",
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (t1, f3, ...), 'all', 'report', 'list', "
            "'selftest', 'profile', 'lint', 'trace', 'bench', 'worker', "
            "'top', 'status' or 'metrics' (the last seven own their "
            "argument sets; see 'cntcache <cmd> --help')"
        ),
    )
    parser.add_argument(
        "--output",
        default="report.md",
        help="output path for the 'report' command (default: report.md)",
    )
    parser.add_argument(
        "--size",
        default="small",
        choices=SIZE_CHOICES,
        help="workload problem size (default: small; smoke = tiny)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for simulation jobs (default: 1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result cache directory (default: off)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-job progress (source, wall time, accesses/s)",
    )
    distributed = parser.add_argument_group("distributed execution")
    distributed.add_argument(
        "--broker",
        default=None,
        metavar="DIR",
        help=(
            "shared work-broker directory: publish jobs there, spawn a "
            "local worker fleet and adopt results from the broker's cache "
            "(see docs/DISTRIBUTED.md)"
        ),
    )
    distributed.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "broker lease time-to-live — the crash-detection latency "
            "(default: 30)"
        ),
    )
    distributed.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help=(
            "stream live telemetry frames (heartbeats, job lifecycle) "
            "into DIR for `cntcache top`/`status`/`metrics` (default: "
            "<broker>/telemetry when --broker is set, else off)"
        ),
    )
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries granted to transiently-failing jobs (default: 2)",
    )
    resilience.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock deadline on a pool worker, from the moment "
            "the job begins; its worker is killed past it "
            "(default: wait forever)"
        ),
    )
    batch = resilience.add_mutually_exclusive_group()
    batch.add_argument(
        "--keep-going",
        action="store_true",
        dest="keep_going",
        help=(
            "complete the batch past failed jobs; report failures and "
            "exit 1 instead of aborting at the first one"
        ),
    )
    batch.add_argument(
        "--fail-fast",
        action="store_false",
        dest="keep_going",
        help="abort at the first exhausted job (default)",
    )
    profiling = parser.add_argument_group("profile command")
    profiling.add_argument(
        "--experiment",
        dest="experiments",
        action="append",
        metavar="ID",
        help="experiment(s) to profile (repeatable; default: all)",
    )
    profiling.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the JSONL run manifest to PATH",
    )
    profiling.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="slowest jobs to list in the breakdown (default: 10)",
    )
    profiling.add_argument(
        "--json",
        action="store_true",
        help="emit the profile report as JSON (CI trending)",
    )
    return parser


def _resilience_from(args: argparse.Namespace) -> ResilienceConfig:
    """The fault-tolerance policy the CLI flags describe (may raise)."""
    return ResilienceConfig(
        max_retries=args.max_retries,
        job_timeout_s=args.job_timeout,
        keep_going=args.keep_going,
    )


def _engine_from(args: argparse.Namespace) -> ExecEngine:
    """Build the engine the flags describe (may raise Engine/BrokerError)."""
    progress = (lambda line: print(line, flush=True)) if args.progress else None
    broker = None
    if args.broker is not None:
        broker = BrokerConfig(root=args.broker, lease_ttl_s=args.lease_ttl)
    return ExecEngine(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=progress,
        resilience=_resilience_from(args),
        broker=broker,
        telemetry=args.telemetry,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # The lint subcommand owns its own argument set.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["trace"]:
        return _trace_main(argv[1:])
    if argv[:1] == ["bench"]:
        return _bench_main(argv[1:])
    if argv[:1] == ["worker"]:
        return _worker_main(argv[1:])
    if argv[:1] in (["top"], ["status"], ["metrics"]):
        return _fleet_main(argv[0], argv[1:])
    args = _parser().parse_args(argv)
    size = SIZE_ALIASES.get(args.size, args.size)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        resilience = _resilience_from(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.experiment == "list":
        print("experiments:")
        for experiment_id, function in sorted(EXPERIMENTS.items()):
            doc = (function.__doc__ or "").strip().splitlines()[0]
            print(f"  {experiment_id:4} {doc}")
        print("workloads:")
        for name in workload_names():
            print(f"  {name}")
        return 0

    if args.experiment == "selftest":
        print(
            "exec engine selftest: in-process == subprocess == cache "
            "== scalar oracle"
        )
        failures = run_selftest(
            size=size, seed=args.seed, progress=lambda line: print(line)
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("selftest passed")
        return 0

    if args.experiment == "profile":
        import json as json_module

        from repro.obs.profile import ProfileError, profile_experiments

        progress = (
            (lambda line: print(line, flush=True)) if args.progress else None
        )
        try:
            report = profile_experiments(
                args.experiments,
                size=size,
                seed=args.seed,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                manifest=args.manifest,
                top=args.top,
                progress=progress,
                resilience=resilience,
            )
        except ProfileError as error:
            print(str(error), file=sys.stderr)
            return 2
        except JobFailure as error:
            print(f"job failed: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json_module.dumps(report.to_dict(), sort_keys=True))
        else:
            print(report.render())
            if args.manifest:
                print(f"\nmanifest written to {args.manifest}")
        return 0

    if args.experiment == "report":
        try:
            engine = _engine_from(args)
            path = write_report(
                args.output, size=size, seed=args.seed, engine=engine
            )
            engine.close_telemetry()
        except (EngineError, BrokerError) as error:
            print(str(error), file=sys.stderr)
            return 2
        except JobFailure as error:
            print(f"job failed: {error}", file=sys.stderr)
            return 1
        print(f"report written to {path}")
        return 0

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if any(experiment_id not in EXPERIMENTS for experiment_id in ids):
        print(
            f"unknown experiment {args.experiment!r}; try 'list'",
            file=sys.stderr,
        )
        return 2

    try:
        engine = _engine_from(args)
    except (EngineError, BrokerError) as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        if len(ids) > 1 or resilience.keep_going:
            # Union every experiment's declared jobs, dedupe, resolve up
            # front: rendering then never simulates (every lookup is a
            # memo hit).  Keep-going always pre-resolves, even a single
            # experiment, so failures surface here rather than inside
            # the experiment's table math.
            union = []
            for experiment_id in ids:
                plan = EXPERIMENT_PLANS.get(experiment_id)
                if plan is not None:
                    union.extend(plan(size, args.seed).values())
            print(plan_jobs(union).describe(), flush=True)
            engine.run_jobs(union)

        if engine.failures:
            # Keep-going collected structured failures: the batch ran to
            # completion, but the tables would be built on holes —
            # report and bail instead of rendering nonsense.
            for record in engine.failures:
                print(f"FAILED {record.describe()}", file=sys.stderr)
            print(engine.summary(), file=sys.stderr)
            return 1

        for experiment_id in ids:
            started = time.time()
            result = run_experiment(
                experiment_id, size=size, seed=args.seed, engine=engine
            )
            print(result.render())
            print(f"  ({time.time() - started:.1f}s)")
            print()
    except JobFailure as error:
        print(f"job failed: {error}", file=sys.stderr)
        return 1
    finally:
        engine.close_telemetry()
    if args.progress or args.cache_dir or args.jobs > 1 or args.broker:
        print(engine.summary(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
