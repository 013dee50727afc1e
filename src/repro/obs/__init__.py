"""Observability: probes, traces, manifests, the profiler and the bench gate.

Five layers, cheapest first:

* :mod:`repro.obs.probe` — process-global counters/timers/events/gauges
  that instrumented code publishes into; **zero cost when disabled**
  (one flag check), so they live permanently in the hot paths.
* :mod:`repro.obs.trace` — opt-in bounded ring-buffer event tracer:
  per-access energy-attributed events + lifecycle spans, exported by
  :mod:`repro.obs.export` to Chrome trace-event JSON or collapsed-stack
  energy flamegraphs (``cntcache trace``).
* :mod:`repro.obs.manifest` — JSONL run manifests (one entry per unique
  job resolution + a batch summary) with a reader, a cross-batch merger
  and a zero-guarded aggregator.
* :mod:`repro.obs.profile` — ``cntcache profile``: replay experiments
  with probes on and render/export the breakdown.
* :mod:`repro.obs.bench` — ``cntcache bench``: the fidelity gate. It
  checks every paper-fidelity pin of the one committed record
  (``benchmarks/trajectory/BENCH_0001.json``) and the array/scalar
  speedup floor.

The :class:`Obs` session ties them together and is what every harness
helper accepts through the uniform ``obs=`` keyword:

    obs = Obs(manifest="run.jsonl")
    engine = ExecEngine(jobs=4, obs=obs)
    run_suite(workload_names(), engine=engine)
    print(obs.summary().to_dict())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.bench import BENCH_SCHEMA, BenchError
    from repro.obs.export import (
        chrome_trace,
        collapsed_stacks,
        fleet_chrome_trace,
        write_chrome,
        write_collapsed,
        write_fleet_chrome,
    )
    from repro.obs.manifest import (
        MANIFEST_SCHEMA,
        ManifestError,
        ManifestSummary,
        ManifestWriter,
        merge_manifests,
        read_manifest,
        summarize,
    )
    from repro.obs.names import METRIC_NAMES, is_registered
    from repro.obs.probe import ObsScope, counter, event, gauge, recording, timer
    from repro.obs.profile import (
        PROFILE_SCHEMA,
        ProfileError,
        ProfileReport,
        profile_experiments,
    )
    from repro.obs.session import Obs
    from repro.obs.telemetry import (
        TELEMETRY_SCHEMA,
        FleetSnapshot,
        ProcessView,
        TelemetryCollector,
        TelemetryError,
        TelemetryWriter,
        make_trace_id,
        prometheus_lines,
        read_all_frames,
        span_for,
        telemetry_dir,
    )
    from repro.obs.trace import (
        TRACE_SCHEMA,
        TraceSink,
        canonical_access_events,
        tracing,
    )

__all__ = [
    "BENCH_SCHEMA",
    "MANIFEST_SCHEMA",
    "METRIC_NAMES",
    "PROFILE_SCHEMA",
    "TELEMETRY_SCHEMA",
    "TRACE_SCHEMA",
    "BenchError",
    "FleetSnapshot",
    "ManifestError",
    "ManifestSummary",
    "ManifestWriter",
    "Obs",
    "ObsScope",
    "ProcessView",
    "ProfileError",
    "ProfileReport",
    "TelemetryCollector",
    "TelemetryError",
    "TelemetryWriter",
    "TraceSink",
    "canonical_access_events",
    "chrome_trace",
    "collapsed_stacks",
    "counter",
    "event",
    "fleet_chrome_trace",
    "gauge",
    "is_registered",
    "make_trace_id",
    "merge_manifests",
    "profile_experiments",
    "prometheus_lines",
    "read_all_frames",
    "read_manifest",
    "recording",
    "span_for",
    "summarize",
    "telemetry_dir",
    "timer",
    "tracing",
    "write_chrome",
    "write_collapsed",
    "write_fleet_chrome",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "BENCH_SCHEMA": "repro.obs.bench",
        "MANIFEST_SCHEMA": "repro.obs.manifest",
        "METRIC_NAMES": "repro.obs.names",
        "PROFILE_SCHEMA": "repro.obs.profile",
        "TELEMETRY_SCHEMA": "repro.obs.telemetry",
        "TRACE_SCHEMA": "repro.obs.trace",
        "BenchError": "repro.obs.bench",
        "FleetSnapshot": "repro.obs.telemetry",
        "ManifestError": "repro.obs.manifest",
        "ManifestSummary": "repro.obs.manifest",
        "ManifestWriter": "repro.obs.manifest",
        "Obs": "repro.obs.session",
        "ObsScope": "repro.obs.probe",
        "ProcessView": "repro.obs.telemetry",
        "ProfileError": "repro.obs.profile",
        "ProfileReport": "repro.obs.profile",
        "TelemetryCollector": "repro.obs.telemetry",
        "TelemetryError": "repro.obs.telemetry",
        "TelemetryWriter": "repro.obs.telemetry",
        "TraceSink": "repro.obs.trace",
        "canonical_access_events": "repro.obs.trace",
        "chrome_trace": "repro.obs.export",
        "collapsed_stacks": "repro.obs.export",
        "counter": "repro.obs.probe",
        "event": "repro.obs.probe",
        "fleet_chrome_trace": "repro.obs.export",
        "gauge": "repro.obs.probe",
        "is_registered": "repro.obs.names",
        "make_trace_id": "repro.obs.telemetry",
        "merge_manifests": "repro.obs.manifest",
        "profile_experiments": "repro.obs.profile",
        "prometheus_lines": "repro.obs.telemetry",
        "read_all_frames": "repro.obs.telemetry",
        "read_manifest": "repro.obs.manifest",
        "recording": "repro.obs.probe",
        "span_for": "repro.obs.telemetry",
        "summarize": "repro.obs.manifest",
        "telemetry_dir": "repro.obs.telemetry",
        "timer": "repro.obs.probe",
        "tracing": "repro.obs.trace",
        "write_chrome": "repro.obs.export",
        "write_collapsed": "repro.obs.export",
        "write_fleet_chrome": "repro.obs.export",
    },
)
