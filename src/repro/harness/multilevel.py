"""Multi-level extension: CNT-Cache as an L2 behind a conventional L1.

The paper evaluates the L1 D-Cache; a natural extension question is
whether adaptive encoding still pays one level down, where the access
stream is the L1's *miss* stream — line-granular, colder, and with a very
different read/write mix (refills vs dirty writebacks).

:func:`l1_filtered_stream` produces exactly that stream by replaying a
workload trace through a substrate L1: every L1 refill becomes a
line-granular read and every dirty writeback a line-granular write, in
program order.  The stream then drives any :class:`~repro.core.CNTCache`
configuration as the L2.

The default engine projects the stream from a substrate recorded at the
L1 geometry (:func:`repro.backends.array.record_substrate`): its fills
and dirty evictions are the L2's reads and writes.
``backend="scalar"`` replays the reference
:class:`~repro.cache.cache.SetAssociativeCache` instead; the two streams
are identical.

Experiments declare this as an ``l2`` :class:`repro.exec.SimJob` (see
:func:`repro.exec.l2_job`, which carries the L1 geometry in the job
params); the exec worker memoizes the filtered stream per process, so a
scheme comparison replays each workload's L1 once, not per scheme.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.backends import DEFAULT_BACKEND, folds_substrates
from repro.cache.cache import SetAssociativeCache
from repro.cache.memory import MainMemory
from repro.core.config import CNTCacheConfig
from repro.trace.record import Access


def l1_filtered_stream(
    trace: Sequence[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
    l1_size: int = 8 * 1024,
    l1_assoc: int = 2,
    line_size: int = 64,
    backend: str = DEFAULT_BACKEND,
) -> list[Access]:
    """The L2-visible access stream of a workload behind a small L1.

    Returns line-granular accesses: a read per L1 refill (carrying the
    true line contents at that moment) and a write per dirty writeback
    (carrying the written-back line).  The L1 is LRU, write-back and
    write-allocate.
    """
    if folds_substrates(backend):
        from repro.backends.array import record_substrate

        substrate = record_substrate(
            CNTCacheConfig(
                size=l1_size,
                assoc=l1_assoc,
                line_size=line_size,
                scheme="baseline",
                partitions=1,
                dbi_word_bytes=1,
            ),
            trace,
            preloads,
        )
        stream = []
        for _, addr, _, fill, victim, victim_addr in substrate.walk(trace):
            if victim is not None:
                stream.append(
                    Access.write(victim_addr, victim.to_bytes(line_size, "little"))
                )
            if fill is not None:
                stream.append(
                    Access.read(
                        addr & -line_size, fill.to_bytes(line_size, "little")
                    )
                )
        return stream
    memory = MainMemory()
    for addr, payload in preloads:
        memory.poke(addr, payload)
    l1 = SetAssociativeCache(
        size=l1_size, assoc=l1_assoc, line_size=line_size, memory=memory
    )
    stream: list[Access] = []
    for access in trace:
        position, remaining = access.addr, access.size
        consumed = 0
        while remaining > 0:
            line_end = (position // line_size + 1) * line_size
            chunk = min(remaining, line_end - position)
            payload = access.data[consumed : consumed + chunk]
            result = l1.access(access.is_write, position, chunk, payload)
            if result.victim is not None and result.victim.dirty:
                victim = result.victim
                victim_addr = l1.mapper.rebuild(victim.tag, victim.set_index)
                stream.append(Access.write(victim_addr, victim.data))
            if not result.hit:
                line_addr = l1.mapper.line_address(position)
                line_data = memory.peek(line_addr, line_size)
                stream.append(Access.read(line_addr, line_data))
            position += chunk
            consumed += chunk
            remaining -= chunk
    return stream


def default_l2_config(scheme: str = "cnt") -> CNTCacheConfig:
    """A 256 KiB, 8-way L2 sharing the paper's algorithm parameters."""
    return CNTCacheConfig(
        size=256 * 1024,
        assoc=8,
        line_size=64,
        scheme=scheme,
    )
