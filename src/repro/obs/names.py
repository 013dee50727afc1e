"""The metric-name registry: every probe/trace name, in one place.

Probe counters, timers, gauges and trace spans are addressed by dotted
lowercase names (``cache.hits``, ``exec.queue_wait``).  Typos in those
names fail silently — ``exec.retires`` would simply accumulate next to
``exec.retries`` — so lint rule R008
(:class:`repro.lint.rules.metrics.MetricNameRule`) checks every literal
name at an instrumented call site against this registry.

Names built dynamically (``f"phase.{job.kind}"``,
``f"codec.{name}.applies"``) cannot be checked statically; their
*families* are documented in :data:`METRIC_FAMILIES` and the static rule
skips non-literal arguments.
"""

from __future__ import annotations

#: Every statically-known probe/trace metric name.
METRIC_NAMES: frozenset[str] = frozenset(
    {
        # substrate cache demand path
        "cache.accesses",
        "cache.bypass_writes",
        "cache.demand_reads",
        "cache.demand_writes",
        "cache.fills",
        "cache.flush_writebacks",
        "cache.flushes",
        "cache.hits",
        "cache.misses",
        "cache.writebacks",
        # bench pin record
        "bench.skipped_records",
        # exec engine
        "exec.batch",
        "exec.cache_corrupt",
        "exec.cache_hits",
        "exec.cache_read_errors",
        "exec.cache_write_errors",
        "exec.executed",
        "exec.failures",
        "exec.memo_hits",
        "exec.queue_wait",
        "exec.rebuilds",
        "exec.requested",
        "exec.retries",
        "exec.serial_fallbacks",
        "exec.timeouts",
        # exec broker (distributed backend: leases, reclaim, quarantine)
        "exec.broker_published",
        "exec.broker_skips",
        "exec.lease_acquired",
        "exec.lease_released",
        "exec.lease_renewals",
        "exec.quarantined",
        "exec.reclaims",
        "exec.workers_lost",
        # live fleet telemetry (repro.obs.telemetry + tailing readers)
        "broker.queue_depth",
        "obs.torn_lines",
        "telemetry.frames",
        "telemetry.state_resets",
        "telemetry.suppressed",
        "telemetry.write_errors",
        # worker self-reported gauges (repro.exec.broker.run_worker)
        "worker.claimed",
        "worker.failures",
        "worker.jobs_done",
        # the array engine's two stages: substrate recording, pricing folds
        "sim.fold",
        "sim.fold_accesses",
        "sim.folds",
        "sim.record",
        "sim.table_folds",
        # per-process workload memo (and each run's substrate slot)
        "workload.builds",
        "workload.memo_hits",
        "workload.substrate_records",
        # phases (the statically-spelled ones; per-kind phases are dynamic)
        "phase.audit",
        "phase.l1_filter",
        "phase.l2",
        "phase.oracle",
        "phase.trace",
        "phase.workload",
        "phase.workload_build",
        # job-lifecycle trace spans (one per job kind)
        "job.audit",
        "job.l2",
        "job.oracle",
        "job.trace",
        "job.workload",
        # tracer self-observation gauges
        "trace.dropped",
        "trace.events",
    }
)

#: Dynamic name families (prefix -> where they are minted).  Purely
#: documentation; the static rule cannot check f-string names.
METRIC_FAMILIES: dict[str, str] = {
    "codec.": "repro/encoding/base.py (per-codec applies/bytes counters)",
    "workload.": "repro/workloads/program.py (per-workload build events)",
    "phase.": "repro/exec/worker.py (per-job-kind phase timers)",
    "job.": "repro/exec/worker.py (per-job-kind trace spans)",
}


def is_registered(name: str) -> bool:
    """True if ``name`` is a registered metric or in a dynamic family."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix) for prefix in METRIC_FAMILIES)


__all__ = ["METRIC_NAMES", "METRIC_FAMILIES", "is_registered"]
