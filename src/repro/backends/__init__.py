"""Simulation backends and the facade's backend registry.

A *backend* is an engine that replays a trace under one
:class:`~repro.core.config.CNTCacheConfig` and produces an
:class:`~repro.core.stats.EnergyStats`.  Two implementations exist,
both stdlib-only:

``scalar``
    :class:`repro.core.cntcache.CNTCache` — the bit-exact reference
    interpreter.  Event-by-event, the oracle every other backend is
    differential-tested against, and the only engine that emits
    per-access trace events.
``array`` (the default)
    :class:`repro.backends.array.ArrayCNTCache` — records what the
    substrate cache decides once per (trace, geometry) and prices each
    config as a fold over that record.  Packs cache lines, direction
    words and the backing store into integers and precomputes the
    Algorithm 1 ``Th_bit1num`` rows and the Table I per-bit energies
    into popcount-indexed lookup tables.  Produces bit-identical
    ``EnergyStats`` at an order of magnitude higher replay throughput.

This module is the selection surface: :func:`make_backend` is what
:func:`repro.api.make_cache` delegates to, and it is the only sanctioned
constructor of simulator instances (lint rule R006).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cache.memory import MainMemory
    from repro.core.config import CNTCacheConfig
    from repro.core.stats import EnergyStats
    from repro.trace.record import Access

#: The default backend of every construction surface.
DEFAULT_BACKEND = "array"


class BackendError(ValueError):
    """Raised on unknown or unavailable backend selections."""


@runtime_checkable
class CacheBackend(Protocol):
    """What a simulation backend must provide.

    The exec worker, the harness replay helpers and the analysis hooks
    program against exactly this surface; anything beyond it (inspection
    helpers, substrate internals) is backend-specific.
    """

    config: "CNTCacheConfig"
    stats: "EnergyStats"

    def access(self, access: "Access") -> bytes:
        """Apply one valued access; returns the logical data read/written."""
        ...  # pragma: no cover - protocol

    def run(
        self, trace: Iterable["Access"], finalize: bool = True
    ) -> "EnergyStats":
        """Replay a whole trace; optionally drain pending updates at the end."""
        ...  # pragma: no cover - protocol

    def preload(self, addr: int, payload: bytes) -> None:
        """Install initial memory contents before a run."""
        ...  # pragma: no cover - protocol

    def preload_all(self, preloads: Iterable[tuple[int, bytes]]) -> None:
        """Install a whole initial memory image."""
        ...  # pragma: no cover - protocol

    def finalize(self) -> None:
        """Drain every pending re-encode, charging its write energy."""
        ...  # pragma: no cover - protocol


#: Selectable backend names, declaration order.
_BACKEND_NAMES = ("scalar", "array")


def backend_names() -> tuple[str, ...]:
    """Selectable backend names, declaration order."""
    return _BACKEND_NAMES


def folds_substrates(name: str) -> bool:
    """Whether the engine :func:`make_backend` builds for ``name`` prices
    a recorded substrate (``ArrayCNTCache.run(trace, substrate=...)``).

    The array engine does; the scalar oracle, which tracing forces,
    replays every config on its own.
    """
    from repro.obs import trace

    return name == "array" and not trace.ACTIVE


def make_backend(
    name: str,
    config: "CNTCacheConfig",
    memory: "MainMemory | None" = None,
) -> CacheBackend:
    """Construct the backend ``name`` for ``config``.

    This is the single sanctioned simulator constructor —
    :func:`repro.api.make_cache` delegates here, and direct
    ``CNTCache(...)`` construction elsewhere raises a DeprecationWarning.
    Per-access tracing is scalar-only, so while :data:`repro.obs.trace.ACTIVE`
    is set every selection builds the scalar engine (stats are identical).
    """
    from repro.obs import trace

    if name not in _BACKEND_NAMES:
        raise BackendError(
            f"unknown backend {name!r}; known: {backend_names()}"
        )
    if name == "scalar" or trace.ACTIVE:
        from repro.core import cntcache

        with cntcache.facade_construction():
            return cntcache.CNTCache(config, memory)
    if memory is not None:
        raise BackendError(
            "the 'array' backend keeps its own integer-packed backing "
            "store and cannot share a MainMemory; use backend='scalar' "
            "for shared-memory hierarchies"
        )
    from repro.backends.array import ArrayCNTCache

    return ArrayCNTCache(config)


__all__ = [
    "DEFAULT_BACKEND",
    "BackendError",
    "CacheBackend",
    "backend_names",
    "folds_substrates",
    "make_backend",
]
