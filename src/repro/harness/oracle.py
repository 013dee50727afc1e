"""Oracle-bound runner (experiment F8).

Replays a trace through the substrate cache and accumulates, for every
array event, the posteriori-minimal data energy (per-partition free choice
of direction, no history, no switch cost, no metadata).  The result lower-
bounds every realisable encoding policy with the same codec geometry.

The default engine prices the bound as a fold over the recorded
substrate (:class:`repro.backends.array.Substrate`) of the trace at the
config's geometry and write policy, the same record the workload jobs of
that geometry fold; ``backend="scalar"`` replays the reference
:class:`~repro.cache.cache.SetAssociativeCache` instead.  Both visit the
same array events in the same order, so they agree bit for bit.

Each event is priced from two precomputed tables, one per access kind:
entry ``n`` is ``min(E(n, pb - n), E(pb - n, n))``, the cheaper direction
of a ``pb``-bit partition holding ``n`` 1-bits, built from the same
:class:`~repro.cnfet.energy.BitEnergyModel` calls as the reference
:func:`repro.predictor.oracle.oracle_access_energy`.  A partition's
1-bit count is a shift, a mask and ``int.bit_count``, and the per-access
sub-total folds the partitions in line order, so the bound is
bit-identical to the reference (a Hypothesis test pins that).

Experiments don't call :func:`oracle_bound` directly: they declare an
``oracle`` :class:`repro.exec.SimJob` (see :func:`repro.exec.oracle_job`)
and read ``values["oracle_fj"]`` off the :class:`repro.exec.ExecResult`,
so bounds dedupe and cache like any other measurement.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.backends import DEFAULT_BACKEND, folds_substrates
from repro.cache.cache import EventKind, SetAssociativeCache
from repro.cache.memory import MainMemory
from repro.cnfet.energy import BitEnergyModel
from repro.core.config import CNTCacheConfig
from repro.encoding.partitioned import PartitionedInvertCodec
from repro.obs import probe
from repro.trace.record import Access

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.array import Substrate


def min_energy_table(
    model: BitEnergyModel, partition_bits: int, is_write: bool
) -> list[float]:
    """Cheaper-direction energy (fJ) of one partition, by its 1-bit count."""
    return [
        min(
            model.access_energy(is_write, ones, partition_bits - ones),
            model.access_energy(is_write, partition_bits - ones, ones),
        )
        for ones in range(partition_bits + 1)
    ]


def table_access_energy(
    table: list[float], logical: bytes, partitions: int, partition_bits: int
) -> float:
    """Minimum data-array energy (fJ) of one access, priced from ``table``.

    Partition ``i`` is bytes ``[i * w, (i + 1) * w)`` of the line, which
    are bits ``[i * partition_bits, (i + 1) * partition_bits)`` of its
    little-endian integer.
    """
    return _line_energy(
        table, int.from_bytes(logical, "little"), partitions, partition_bits
    )


def _line_energy(
    table: list[float], value: int, partitions: int, partition_bits: int
) -> float:
    """:func:`table_access_energy` of a line held as an integer."""
    mask = (1 << partition_bits) - 1
    energy = 0.0
    for _ in range(partitions):
        energy += table[(value & mask).bit_count()]
        value >>= partition_bits
    return energy


def oracle_bound(
    config: CNTCacheConfig,
    trace: Sequence[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
    backend: str = DEFAULT_BACKEND,
    substrate: "Substrate | None" = None,
) -> float:
    """Minimum achievable dynamic energy (fJ) with free per-access encoding.

    Uses the same cache geometry, write policy and peripheral constant as
    the real schemes, so the gap to CNT-Cache isolates the *encoding
    policy* headroom (experiment F8).  ``substrate`` is ``trace`` already
    recorded over ``preloads`` at ``config``'s geometry
    (:meth:`repro.workloads.program.WorkloadRun.substrate`); without one
    the default engine records it here.
    """
    codec = PartitionedInvertCodec(config.line_size, config.partitions)
    partitions, partition_bits = codec.n_partitions, codec.partition_bits
    tables = {
        is_write: min_energy_table(config.energy, partition_bits, is_write)
        for is_write in (False, True)
    }
    peripheral = config.peripheral_fj_per_access
    if not folds_substrates(backend):
        return _scalar_bound(
            config, trace, preloads, tables, partitions, partition_bits
        )
    if substrate is None:
        from repro.backends.array import record_substrate

        substrate = record_substrate(config, trace, preloads)
    total = 0.0
    for is_write, _, line, fill, victim, _ in substrate.walk(trace):
        total += peripheral
        if line is None:  # a bypassed store touches no array
            continue
        if victim is not None:  # WRITEBACK
            total += peripheral
            total += _line_energy(
                tables[False], victim, partitions, partition_bits
            )
        if fill is not None:  # FILL
            total += peripheral
            total += _line_energy(tables[True], fill, partitions, partition_bits)
        total += _line_energy(tables[is_write], line, partitions, partition_bits)
    if probe.ENABLED:
        for name, count in substrate.cache_counts():
            if count:
                probe.counter(name, count)
    return total


def _scalar_bound(
    config: CNTCacheConfig,
    trace: Iterable[Access],
    preloads: Iterable[tuple[int, bytes]],
    tables: dict[bool, list[float]],
    partitions: int,
    partition_bits: int,
) -> float:
    """The bound replayed through the reference substrate cache."""
    memory = MainMemory()
    for addr, payload in preloads:
        memory.poke(addr, payload)
    cache = SetAssociativeCache(
        size=config.size,
        assoc=config.assoc,
        line_size=config.line_size,
        memory=memory,
        replacement=config.replacement,
        seed=config.seed,
        write_through=config.write_through,
        write_allocate=config.write_allocate,
    )
    peripheral = config.peripheral_fj_per_access

    total = 0.0
    for access in trace:
        position, remaining = access.addr, access.size
        consumed = 0
        while remaining > 0:
            line_end = (position // config.line_size + 1) * config.line_size
            chunk = min(remaining, line_end - position)
            payload = access.data[consumed : consumed + chunk]
            result = cache.access(access.is_write, position, chunk, payload)
            total += peripheral
            for event in result.events:
                if event.kind in (EventKind.DATA_READ, EventKind.DATA_WRITE):
                    line = event.line
                    assert line is not None
                    logical = bytes(line.data)
                    is_write = event.kind is EventKind.DATA_WRITE
                elif event.kind is EventKind.FILL:
                    logical = event.payload
                    is_write = True
                    total += peripheral
                else:  # WRITEBACK
                    logical = event.payload
                    is_write = False
                    total += peripheral
                total += table_access_energy(
                    tables[is_write], logical, partitions, partition_bits
                )
            position += chunk
            consumed += chunk
            remaining -= chunk
    return total
