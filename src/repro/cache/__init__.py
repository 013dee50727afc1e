"""Trace-driven, data-carrying cache simulator substrate.

The CNT-Cache energy model depends on the *values* moved through the data
array, so unlike classic hit/miss simulators this substrate stores real
line contents and reports, for every architectural event, exactly which
stored bytes were read or written.

Layout:

* :mod:`~repro.cache.address` — address <-> (tag, set, offset) mapping.
* :mod:`~repro.cache.replacement` — LRU / FIFO / random / tree-PLRU.
* :mod:`~repro.cache.line` — the line state (tag, dirty, data, sidecar).
* :mod:`~repro.cache.cache` — set-associative write-back/write-allocate
  cache emitting :class:`~repro.cache.cache.ArrayEvent` streams.
* :mod:`~repro.cache.memory` — sparse backing store.
* :mod:`~repro.cache.hierarchy` — a small L1/L2 composition helper.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cache.address import AddressMapper
    from repro.cache.cache import (
        AccessResult,
        ArrayEvent,
        EventKind,
        SetAssociativeCache,
    )
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.line import CacheLine
    from repro.cache.memory import MainMemory
    from repro.cache.replacement import (
        FIFOPolicy,
        LRUPolicy,
        RandomPolicy,
        ReplacementPolicy,
        TreePLRUPolicy,
        make_replacement_policy,
    )

__all__ = [
    "AddressMapper",
    "CacheLine",
    "MainMemory",
    "SetAssociativeCache",
    "AccessResult",
    "ArrayEvent",
    "EventKind",
    "CacheHierarchy",
    "ReplacementPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "RandomPolicy",
    "TreePLRUPolicy",
    "make_replacement_policy",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "AddressMapper": "repro.cache.address",
        "CacheLine": "repro.cache.line",
        "MainMemory": "repro.cache.memory",
        "SetAssociativeCache": "repro.cache.cache",
        "AccessResult": "repro.cache.cache",
        "ArrayEvent": "repro.cache.cache",
        "EventKind": "repro.cache.cache",
        "CacheHierarchy": "repro.cache.hierarchy",
        "ReplacementPolicy": "repro.cache.replacement",
        "LRUPolicy": "repro.cache.replacement",
        "FIFOPolicy": "repro.cache.replacement",
        "RandomPolicy": "repro.cache.replacement",
        "TreePLRUPolicy": "repro.cache.replacement",
        "make_replacement_policy": "repro.cache.replacement",
    },
)
