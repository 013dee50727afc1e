"""Process-global event tracer: bounded ring buffers of structured events.

This is the deep-inspection layer under :mod:`repro.obs.probe`: where a
probe counter says *how often*, a trace event says *what exactly* — one
record per sampled demand access (set/way, hit/miss, codec decision,
flips and the per-component femtojoule delta of the Eq. 1-6 breakdown)
plus span events for engine/job/phase lifecycles.  Exporters in
:mod:`repro.obs.export` turn a trace into Chrome trace-event JSON or a
collapsed-stack energy flamegraph.

The switchboard mirrors :mod:`repro.obs.probe` exactly:

* :data:`ACTIVE` is the master flag; hot call sites guard with
  ``if trace.ACTIVE:`` so disabled tracing costs one attribute load and
  a falsy branch — the same zero-cost contract the probes ship under.
* :class:`TraceSink` is the accumulator: a bounded ring buffer
  (:data:`CAPACITY` events; older events are evicted and counted as
  dropped, never an error).
* :func:`tracing` pushes a caller-owned sink for a ``with`` block;
  :func:`capture` pushes a fresh anonymous sink iff tracing is already
  active (how the exec worker collects a per-job trace that rides home
  on :attr:`ExecResult.trace`); :func:`enable_in_worker` force-enables
  tracing in pool worker processes.

Sampling: demand-access events are emitted every :data:`EVERY`-th access
(``--trace-every N``).  Energy attribution *telescopes*: each emitted
event carries the energy accumulated since the previous emitted event,
and a final ``finalize`` event carries the residual, so the per-event
femtojoules sum to the run's :class:`~repro.core.stats.EnergyStats`
total at any sampling rate.

Determinism: ``access``/``finalize`` events carry no wall-clock fields
(they are indexed by access number), so per-job traces are identical
between serial and worker-pool execution;
:func:`canonical_access_events` produces the order-independent form the
determinism suite compares.  ``span`` events do carry wall time and are
excluded from the canonical form.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.schemas import TRACE

#: Trace snapshot format tag; bump the version in :mod:`repro.schemas`
#: when event fields change incompatibly.
TRACE_SCHEMA = TRACE.tag

#: Master switch: trace emission happens iff True.  Hot call sites read
#: this directly (``if trace.ACTIVE:``) to skip even the function call.
ACTIVE = False

#: Emit one demand-access event per EVERY accesses (1 = every access).
EVERY = 1

#: Default ring-buffer capacity of a sink, in events.
CAPACITY = 65536

#: Active sinks; every emission records into all of them.
_SINKS: list["TraceSink"] = []

#: True in worker processes force-enabled by :func:`enable_in_worker`.
_FORCED = False

#: Event kinds whose fields are per-job deterministic (no wall clock).
CANONICAL_KINDS = ("access", "finalize")


class TraceSink:
    """A bounded ring buffer of trace events.

    ``events``
        The most recent ``capacity`` events, oldest first.
    ``emitted``
        Total events ever recorded (``emitted - len(events)`` were
        evicted by the ring bound).
    """

    __slots__ = ("events", "emitted", "capacity")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            capacity = CAPACITY
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be a positive int: {capacity!r}")
        self.capacity = capacity
        self.events: deque[dict] = deque(maxlen=capacity)
        self.emitted = 0

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (recorded minus retained)."""
        return self.emitted - len(self.events)

    def record(self, event: dict) -> None:
        """Append one event (evicting the oldest when full)."""
        self.events.append(event)
        self.emitted += 1

    def snapshot(self) -> dict:
        """JSON-ready copy (the ``ExecResult.trace`` payload slot)."""
        return {
            "schema": TRACE_SCHEMA,
            "events": [dict(event) for event in self.events],
            "emitted": self.emitted,
            "dropped": self.dropped,
        }

    def absorb(self, snapshot: dict) -> None:
        """Merge a :meth:`snapshot` (e.g. from a worker) into this sink.

        The source's evicted-event count carries over, so ``dropped``
        stays truthful across the transport hop.
        """
        events = snapshot.get("events", [])
        already_dropped = int(snapshot.get("dropped", 0))
        for event in events:
            self.record(dict(event))
        self.emitted += already_dropped


def _sync() -> None:
    global ACTIVE
    ACTIVE = _FORCED or bool(_SINKS)


# ------------------------------------------------------------------ #
# emission (the instrumented code's API)
# ------------------------------------------------------------------ #
def emit(kind: str, **fields: Any) -> None:
    """Record one ``{"kind": kind, **fields}`` event (no-op when off)."""
    if not ACTIVE:
        return
    event = {"kind": kind, **fields}
    for sink in _SINKS:
        sink.record(event)


def emit_event(event: dict) -> None:
    """Record a pre-built event dict into every active sink."""
    if not ACTIVE:
        return
    for sink in _SINKS:
        sink.record(event)


@contextmanager
def span(name: str, **fields: Any) -> Iterator[None]:
    """Trace a ``with`` block as one complete span event (no-op when off).

    Spans carry wall-clock ``ts_us``/``dur_us`` microsecond fields (the
    Chrome trace-event convention) and are therefore excluded from
    :func:`canonical_access_events`.
    """
    if not ACTIVE:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        ended = time.perf_counter()
        emit(
            "span",
            name=name,
            ts_us=started * 1e6,
            dur_us=(ended - started) * 1e6,
            **fields,
        )


# ------------------------------------------------------------------ #
# switchboard management
# ------------------------------------------------------------------ #
@contextmanager
def tracing(
    sink: "TraceSink | None",
    every: int | None = None,
    capacity: int | None = None,
) -> Iterator["TraceSink | None"]:
    """Record trace events into ``sink`` for the block (None = no-op).

    ``every``/``capacity`` optionally override the module sampling
    configuration for the block (restored on exit); ``capacity`` applies
    to sinks created *inside* the block (per-job captures), not to
    ``sink`` itself, which was already sized at construction.
    """
    global ACTIVE
    if sink is None or any(active is sink for active in _SINKS):
        yield sink
        return
    previous = (EVERY, CAPACITY)
    if every is not None or capacity is not None:
        configure(every=every, capacity=capacity)
    _SINKS.append(sink)
    ACTIVE = True
    try:
        yield sink
    finally:
        _SINKS.remove(sink)
        _sync()
        configure(every=previous[0], capacity=previous[1])


@contextmanager
def capture() -> Iterator["TraceSink | None"]:
    """A fresh nested sink, iff tracing is active (else yields ``None``)."""
    global ACTIVE
    if not ACTIVE:
        yield None
        return
    sink = TraceSink()
    _SINKS.append(sink)
    try:
        yield sink
    finally:
        _SINKS.remove(sink)
        _sync()


def configure(every: int | None = None, capacity: int | None = None) -> None:
    """Set the sampling stride and/or default ring capacity."""
    global EVERY, CAPACITY
    if every is not None:
        if not isinstance(every, int) or every < 1:
            raise ValueError(f"every must be a positive int: {every!r}")
        EVERY = every
    if capacity is not None:
        if not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"capacity must be a positive int: {capacity!r}")
        CAPACITY = capacity


def enable_in_worker(
    every: int = 1, capacity: int | None = None
) -> None:
    """Worker-process setup: force tracing on in this process.

    Workers have no parent sink; per-job :func:`capture` sinks collect
    the events and ship them home through the result payload.
    """
    global _FORCED, ACTIVE
    configure(every=every, capacity=capacity)
    _FORCED = True
    ACTIVE = True


def absorb(snapshot: dict) -> None:
    """Merge a worker-produced trace snapshot into every active sink."""
    if not ACTIVE or not snapshot or not snapshot.get("events"):
        return
    for sink in _SINKS:
        sink.absorb(snapshot)


# ------------------------------------------------------------------ #
# canonicalization (the determinism suite's comparison form)
# ------------------------------------------------------------------ #
def canonical_access_events(traces: Iterable[dict]) -> list[str]:
    """Order-independent JSON lines of the deterministic event kinds.

    ``traces`` is an iterable of per-job snapshots (``ExecResult.trace``).
    Events are restricted to :data:`CANONICAL_KINDS` (no wall clock) and
    sorted by (job fingerprint, access index), so serial and worker-pool
    runs of the same jobs produce byte-identical lists.
    """
    keyed: list[tuple[str, int, str]] = []
    for trace in traces:
        if not trace:
            continue
        fingerprint = str(trace.get("fingerprint", ""))
        for event in trace.get("events", []):
            if event.get("kind") not in CANONICAL_KINDS:
                continue
            keyed.append(
                (
                    fingerprint,
                    int(event.get("index", -1)),
                    json.dumps(event, sort_keys=True),
                )
            )
    keyed.sort()
    return [line for _, _, line in keyed]


__all__ = [
    "ACTIVE",
    "CANONICAL_KINDS",
    "CAPACITY",
    "EVERY",
    "TRACE_SCHEMA",
    "TraceSink",
    "absorb",
    "canonical_access_events",
    "capture",
    "configure",
    "emit",
    "emit_event",
    "enable_in_worker",
    "span",
    "tracing",
]
