"""Observability: probes, traces, manifests, the profiler and benches.

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
* :mod:`repro.obs.bench` — ``cntcache bench``: the recorded benchmark
  trajectory (``BENCH_<n>.json``) and the CI perf/fidelity regression
  gate.

The :class:`Obs` session ties them together and is what every harness
helper accepts through the uniform ``obs=`` keyword:

    obs = Obs(manifest="run.jsonl")
    engine = ExecEngine(jobs=4, obs=obs)
    run_suite(workload_names(), engine=engine)
    print(obs.summary().to_dict())
"""

from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchError,
    BenchRecord,
    append_record,
    compare,
    load_trajectory,
)
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
    "BenchRecord",
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
    "append_record",
    "canonical_access_events",
    "chrome_trace",
    "collapsed_stacks",
    "compare",
    "counter",
    "event",
    "fleet_chrome_trace",
    "gauge",
    "is_registered",
    "load_trajectory",
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
