"""The substrate's line values: write values and interned fill lines.

A fold takes every line value from the recorded substrate: the line
after each array write (``Substrate.afters``, in fold order) and each
installed line (``Substrate.lines``, indexed per fill by
``Substrate.fills``).  These tests rebuild both without them: the fills
and the written lines by replaying the trace through the reference
substrate cache, and the written lines once more by decoding the trace
payloads over the recorded fills.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.backends.array import (
    _BYPASS,
    _CROSS,
    _MISS_BIT,
    _WRITE,
    record_substrate,
)
from repro.cache.cache import EventKind, SetAssociativeCache
from repro.cache.memory import MainMemory
from tests.backends.strategies import examples, geometries, traces


def line_chunks(access, line_size):
    """``(addr, payload)`` of each line an access touches, in order."""
    addr, payload = access.addr, access.data
    while payload:
        size = min(len(payload), line_size - addr % line_size)
        yield addr, payload[:size]
        addr += size
        payload = payload[size:]


def reference_lines(config, trace, preloads):
    """The line after every array write and every installed line, each
    in order, from the reference substrate cache."""
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
    afters, fills = [], []
    for access in trace:
        for addr, payload in line_chunks(access, config.line_size):
            result = cache.access(access.is_write, addr, len(payload), payload)
            for event in result.events:
                if event.kind is EventKind.FILL:
                    fills.append(int.from_bytes(event.payload, "little"))
                elif event.kind is EventKind.DATA_WRITE:
                    afters.append(int.from_bytes(event.line.data, "little"))
    return afters, fills


def decoded_afters(substrate, trace):
    """The line after every array write, decoded from the trace payloads
    over the substrate's fills, in fold order."""
    line_size = substrate.line_size
    fills = iter([substrate.lines[fid] for fid in substrate.fills])
    splits = iter(substrate.splits)
    data, afters = {}, []
    for access, entry in zip(trace, substrate.entries):
        chunks = list(line_chunks(access, line_size))
        codes = [next(splits) for _ in chunks] if entry & 6 == _CROSS else [entry]
        for (addr, payload), code in zip(chunks, codes):
            if code & 7 == _BYPASS:
                continue
            lid = code >> 3
            if code & _MISS_BIT:
                data[lid] = next(fills)
            if code & _WRITE:
                shift = addr % line_size * 8
                mask = ((1 << len(payload) * 8) - 1) << shift
                data[lid] = data[lid] & ~mask | (
                    int.from_bytes(payload, "little") << shift
                )
                afters.append(data[lid])
    return afters


@pytest.mark.parametrize("write_policy", ("wb-wa", "wt-wa", "wt-nwa", "wb-nwa"))
@settings(max_examples=examples(25), deadline=None)
@given(geometry=geometries, recorded=traces())
def test_the_substrate_records_every_written_and_installed_line(
    write_policy, geometry, recorded
):
    trace, preloads = recorded
    config = replace(geometry, write_policy=write_policy)
    substrate = record_substrate(config, trace, preloads)
    afters, fills = reference_lines(config, trace, preloads)

    assert substrate.afters == afters
    assert decoded_afters(substrate, trace) == afters
    # Interned: distinct lines, numbered in first-fill order.
    lines = substrate.lines
    assert len(set(lines)) == len(lines)
    assert list(dict.fromkeys(substrate.fills)) == list(range(len(lines)))
    assert [lines[fid] for fid in substrate.fills] == fills
