"""Trace exporters: Chrome trace-event JSON and collapsed-stack energy.

Both exporters consume per-job trace snapshots (the dicts
:mod:`repro.obs.trace` ships on :attr:`ExecResult.trace`):

* :func:`chrome_trace` — the Chrome trace-event JSON object format
  (``{"traceEvents": [...]}``), loadable in ``about:tracing`` /
  Perfetto.  Each job becomes one named thread; sampled demand accesses
  are complete (``"ph": "X"``) events on an access-index timeline (one
  microsecond-unit tick per access, ``dur`` = the sampling stride, so
  adjacent samples tile the axis), spans keep their wall-clock
  microseconds, and the ``finalize`` residual is an instant event.
* :func:`collapsed_stacks` — the Brendan-Gregg collapsed-stack format,
  one ``frame;frame;... value`` line per stack, with **femtojoules**
  (scaled to integer attojoules) as the value instead of time:
  ``workload;cache-level;scheme;component aJ``.  Feed it to any
  flamegraph renderer to see where the energy went.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable


def _access_name(event: dict) -> str:
    op = "write" if event.get("write") else "read"
    outcome = "hit" if event.get("hit") else "miss"
    return f"{op} {outcome}"


def chrome_trace(traces: Iterable[dict]) -> dict:
    """Build a Chrome trace-event JSON object from per-job snapshots."""
    trace_events: list[dict] = []
    for tid, trace in enumerate(traces, start=1):
        if not trace:
            continue
        label = str(trace.get("label") or f"trace-{tid}")
        trace_events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
        for event in trace.get("events", []):
            kind = event.get("kind")
            args = {
                name: value
                for name, value in event.items()
                if name not in ("kind", "ts_us", "dur_us")
            }
            if kind == "access":
                stride = max(int(event.get("every", 1)), 1)
                trace_events.append(
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "cat": "access",
                        "name": _access_name(event),
                        "ts": float(event.get("index", 0)),
                        "dur": float(stride),
                        "args": args,
                    }
                )
            elif kind == "span":
                trace_events.append(
                    {
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "cat": "span",
                        "name": str(event.get("name", "span")),
                        "ts": float(event.get("ts_us", 0.0)),
                        "dur": float(event.get("dur_us", 0.0)),
                        "args": args,
                    }
                )
            else:  # finalize and any future instant kinds
                trace_events.append(
                    {
                        "ph": "i",
                        "pid": 1,
                        "tid": tid,
                        "cat": "trace",
                        "name": str(kind),
                        "ts": float(event.get("index", 0)),
                        "s": "t",
                        "args": args,
                    }
                )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def collapsed_stacks(traces: Iterable[dict]) -> list[str]:
    """Collapsed-stack lines attributing attojoules to component stacks.

    The stack is ``workload;cache-level;scheme;component`` and the value
    is the integer attojoule total (fJ x 1000, rounded) so standard
    flamegraph tooling — which expects integer sample counts — renders
    an energy profile directly.
    """
    totals: dict[str, float] = {}
    for trace in traces:
        if not trace:
            continue
        workload = str(trace.get("workload") or "unknown")
        level = "l2" if trace.get("job_kind") == "l2" else "l1"
        scheme = str(trace.get("scheme") or "none")
        for event in trace.get("events", []):
            if event.get("kind") not in ("access", "finalize"):
                continue
            for component, fj in event.get("energy", {}).items():
                stack = f"{workload};{level};{scheme};{component}"
                totals[stack] = totals.get(stack, 0.0) + float(fj)
    return [
        f"{stack} {round(fj * 1000.0)}"
        for stack, fj in sorted(totals.items())
        if round(fj * 1000.0) > 0
    ]


def fleet_chrome_trace(frames: Iterable[dict]) -> dict:
    """One Chrome timeline for the whole fleet, from telemetry frames.

    Consumes the NDJSON frames :mod:`repro.obs.telemetry` streams (see
    :func:`repro.obs.telemetry.read_all_frames`) and renders every
    process identity as its own Chrome *process* row — the coordinator
    first, then each worker.  ``claim`` → ``finish``/``attempt_failed``/
    ``quarantine`` record pairs become complete (``"ph": "X"``) job spans on the shared
    wall-clock timeline (correlation ids in ``args``), unpaired
    lifecycle events become instants, and coordinator queue-depth
    heartbeats become counter (``"ph": "C"``) samples, so the drain's
    shape — steals, stragglers, idle tails — is visible at a glance in
    Perfetto.
    """
    ordered = sorted(
        (frame for frame in frames if frame),
        key=lambda frame: float(frame.get("ts", 0.0)),
    )
    procs: list[str] = []
    roles: dict[str, str] = {}
    for frame in ordered:
        identity = str(frame.get("proc", "?"))
        if identity not in roles:
            roles[identity] = str(frame.get("role", "worker"))
            procs.append(identity)
    procs.sort(key=lambda identity: (roles[identity] != "coordinator", identity))
    pids = {identity: pid for pid, identity in enumerate(procs, start=1)}
    base_ts = float(ordered[0].get("ts", 0.0)) if ordered else 0.0
    last_ts = float(ordered[-1].get("ts", 0.0)) if ordered else 0.0

    def us(ts: float) -> float:
        return (ts - base_ts) * 1e6

    trace_events: list[dict] = []
    for identity in procs:
        trace_events.append(
            {
                "ph": "M",
                "pid": pids[identity],
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"{roles[identity]} {identity}"},
            }
        )
    #: (identity, fingerprint) -> the opening claim frame.
    open_claims: dict[tuple[str, str], dict] = {}
    for frame in ordered:
        identity = str(frame.get("proc", "?"))
        pid = pids[identity]
        ts = float(frame.get("ts", 0.0))
        kind = frame.get("type")
        if kind == "heartbeat":
            gauges = frame.get("gauges") or {}
            depth = gauges.get("queue_depth")
            if isinstance(depth, (int, float)):
                trace_events.append(
                    {
                        "ph": "C",
                        "pid": pid,
                        "tid": 0,
                        "name": "queue_depth",
                        "ts": us(ts),
                        "args": {"pending": float(depth)},
                    }
                )
            continue
        if kind != "lifecycle":
            continue
        event = str(frame.get("event", "?"))
        fingerprint = str(frame.get("fingerprint") or "")
        args = {
            name: value
            for name, value in frame.items()
            if name not in ("schema", "type", "ts", "proc", "role", "event")
        }
        if event == "claim" and fingerprint:
            open_claims[(identity, fingerprint)] = frame
            continue
        if event in ("finish", "attempt_failed", "quarantine") and fingerprint:
            opened = open_claims.pop((identity, fingerprint), None)
            if opened is not None:
                start = float(opened.get("ts", ts))
                trace_events.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": 1,
                        "cat": "job",
                        "name": str(
                            frame.get("label")
                            or opened.get("label")
                            or fingerprint[:12]
                        ),
                        "ts": us(start),
                        "dur": max(us(ts) - us(start), 1.0),
                        "args": args,
                    }
                )
                continue
        trace_events.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": 0,
                "cat": "lifecycle",
                "name": event,
                "ts": us(ts),
                "s": "p",
                "args": args,
            }
        )
    # A claim whose job was still running when the stream ended is drawn
    # to the last observed instant, not dropped.
    for (identity, fingerprint), opened in open_claims.items():
        start = float(opened.get("ts", last_ts))
        trace_events.append(
            {
                "ph": "X",
                "pid": pids[identity],
                "tid": 1,
                "cat": "job",
                "name": str(opened.get("label") or fingerprint[:12]),
                "ts": us(start),
                "dur": max(us(last_ts) - us(start), 1.0),
                "args": {"unfinished": True, "fingerprint": fingerprint},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(traces: Iterable[dict], path: str | Path) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(traces), sort_keys=True), encoding="utf-8"
    )
    return path


def write_collapsed(traces: Iterable[dict], path: str | Path) -> Path:
    """Write :func:`collapsed_stacks` lines; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = collapsed_stacks(traces)
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def write_fleet_chrome(frames: Iterable[dict], path: str | Path) -> Path:
    """Write :func:`fleet_chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(fleet_chrome_trace(frames), sort_keys=True),
        encoding="utf-8",
    )
    return path


__all__ = [
    "chrome_trace",
    "collapsed_stacks",
    "fleet_chrome_trace",
    "write_chrome",
    "write_collapsed",
    "write_fleet_chrome",
]
