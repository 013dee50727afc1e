"""Process-global probe switchboard: counters, timers, events and gauges.

Instrumented code (the cache demand path, the codecs, the exec engine,
the workload generators) calls
:func:`counter`/:func:`timer`/:func:`event`/:func:`gauge`
unconditionally; whether anything happens is decided by one module-global
flag, :data:`ENABLED`.  The contract is *zero cost when disabled*: with no
scope recording, every probe is one attribute load and a falsy branch —
no allocation, no dict access, no time syscall — so shipping probes in
the hot path does not tax unprofiled runs (asserted to < 5% on the exec
benches).

Recording model
---------------
A *scope* (:class:`ObsScope`) is a plain accumulator of counters, timers
and events.  Scopes are pushed on a process-global stack; every probe
records into **all** active scopes, so a per-job capture nested inside a
session-wide :class:`~repro.obs.session.Obs` feeds both.

* :func:`recording` — push a caller-owned scope for a ``with`` block
  (how :class:`~repro.exec.engine.ExecEngine` attaches its ``obs``).
* :func:`capture` — push a fresh anonymous scope *iff probes are already
  enabled*; the exec worker wraps each job in one so per-job counters can
  travel back through the result payload (:attr:`ExecResult.obs`).
* :func:`paused` — temporarily disable probes (used around memoized
  infrastructure work, e.g. L1 stream filtering, whose probe traffic
  would otherwise depend on worker-process topology).
* :func:`enable_in_worker` — run once by a local worker process to
  force-enable probes there, where no parent scope exists.

Determinism note: counters in the ``cache.*`` and ``codec.*`` namespaces
are per-job deterministic (identical under ``--jobs N`` and serial runs);
``workload.*`` and ``exec.*`` counters depend on process topology because
workload builds are memoized per process, one trace at a time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Master switch: probes record iff True.  Hot call sites may read this
#: directly (``if probe.ENABLED:``) to skip even the function call.
ENABLED = False

#: Active scopes; every probe records into all of them.
_SCOPES: list["ObsScope"] = []

#: True in worker processes force-enabled by :func:`enable_in_worker`.
_FORCED = False

#: Per-scope event cap; beyond it events are counted, not stored.
MAX_EVENTS = 256


class ObsScope:
    """A plain accumulator of probe traffic.

    ``counters``
        name -> integer total.
    ``timers``
        name -> accumulated seconds.
    ``events``
        bounded list of ``{"name": ..., **fields}`` dicts (first
        :data:`MAX_EVENTS`; the overflow is counted in ``dropped_events``).
    ``gauges``
        name -> last observed point-in-time value (ring-buffer
        occupancy, queue depths...); last write wins, also on absorb.
    """

    __slots__ = ("counters", "timers", "events", "gauges", "dropped_events")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.events: list[dict] = []
        self.gauges: dict[str, float] = {}
        self.dropped_events = 0

    # -------------------------------------------------------------- #
    # recording
    # -------------------------------------------------------------- #
    def add_count(self, name: str, n: int = 1) -> None:
        """Bump counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` onto timer ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def add_event(self, name: str, fields: dict) -> None:
        """Store one event (beyond :data:`MAX_EVENTS`, just count it)."""
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        self.events.append({"name": name, **fields})

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to a point-in-time ``value`` (last wins)."""
        self.gauges[name] = value

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #
    def snapshot(self) -> dict:
        """JSON-ready copy (the ``ExecResult.obs`` payload slot)."""
        return {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "events": [dict(event) for event in self.events],
            "gauges": dict(self.gauges),
            "dropped_events": self.dropped_events,
        }

    def absorb(self, snapshot: dict) -> None:
        """Merge a :meth:`snapshot` (e.g. from a worker process) into this scope."""
        for name, value in snapshot.get("counters", {}).items():
            self.add_count(name, int(value))
        for name, value in snapshot.get("timers", {}).items():
            self.add_time(name, float(value))
        for event_fields in snapshot.get("events", []):
            fields = dict(event_fields)
            name = fields.pop("name", "event")
            self.add_event(name, fields)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, float(value))
        self.dropped_events += int(snapshot.get("dropped_events", 0))


def _sync() -> None:
    global ENABLED
    ENABLED = _FORCED or bool(_SCOPES)


# ------------------------------------------------------------------ #
# probes (the instrumented code's API)
# ------------------------------------------------------------------ #
def counter(name: str, n: int = 1) -> None:
    """Bump a counter in every active scope (no-op when disabled)."""
    if not ENABLED:
        return
    for scope in _SCOPES:
        scope.add_count(name, n)


def timing(name: str, seconds: float) -> None:
    """Record an already-measured duration (no-op when disabled)."""
    if not ENABLED:
        return
    for scope in _SCOPES:
        scope.add_time(name, seconds)


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Time a ``with`` block into every active scope (no-op when disabled)."""
    if not ENABLED:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        timing(name, time.perf_counter() - started)


def event(name: str, **fields: Any) -> None:
    """Record a structured event in every active scope (no-op when disabled)."""
    if not ENABLED:
        return
    for scope in _SCOPES:
        scope.add_event(name, fields)


def gauge(name: str, value: float) -> None:
    """Set a point-in-time gauge in every active scope (no-op when disabled).

    Unlike :func:`counter`, a gauge does not accumulate: the last write
    wins, both within a scope and when worker snapshots are absorbed.
    """
    if not ENABLED:
        return
    for scope in _SCOPES:
        scope.set_gauge(name, float(value))


# ------------------------------------------------------------------ #
# scope management
# ------------------------------------------------------------------ #
@contextmanager
def recording(scope: ObsScope | None) -> Iterator[ObsScope | None]:
    """Record probe traffic into ``scope`` for the block (None = no-op)."""
    global ENABLED
    if scope is None or any(active is scope for active in _SCOPES):
        yield scope
        return
    _SCOPES.append(scope)
    ENABLED = True
    try:
        yield scope
    finally:
        _SCOPES.remove(scope)
        _sync()


@contextmanager
def capture() -> Iterator[ObsScope | None]:
    """A fresh nested scope, iff probes are enabled (else yields ``None``)."""
    global ENABLED
    if not ENABLED:
        yield None
        return
    scope = ObsScope()
    _SCOPES.append(scope)
    try:
        yield scope
    finally:
        _SCOPES.remove(scope)
        _sync()


@contextmanager
def paused() -> Iterator[None]:
    """Temporarily disable probes (infrastructure work, not measurement)."""
    global ENABLED
    if not ENABLED:
        yield
        return
    ENABLED = False
    try:
        yield
    finally:
        _sync()


def enable_in_worker() -> None:
    """Worker-process setup: force probes on in this process.

    Workers have no parent scope; per-job :func:`capture` scopes collect
    the traffic and ship it home through the result payload.
    """
    global _FORCED, ENABLED
    _FORCED = True
    ENABLED = True


def absorb(snapshot: dict) -> None:
    """Merge a worker-produced snapshot into every active scope."""
    if not ENABLED or not snapshot:
        return
    for scope in _SCOPES:
        scope.absorb(snapshot)
