"""The array engine's cached line state agrees with the lines it caches.

The pricing fold keeps, per line, the ones the array stores
(``popcount(data ^ mask(dirval))``) instead of recounting them at every
access, and it counts peripheral activations instead of adding them one
by one.  These tests check both against independent references: every
resident line's cached count against its logical contents (from the
substrate recorder) under its direction word, and against the scalar
oracle's stored line; the peripheral energy against the oracle's.  They
check after a fold over a shared substrate, after every access of a
per-access replay (which syncs after each), and after ``finalize``,
whose drained re-encodes rewrite direction words.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.api import make_cache
from repro.backends.array import Recorder
from repro.cnfet.leakage import LeakageModel
from tests.backends.strategies import encodings, examples, geometries, traces

#: Knobs every example of one test case pins: the fold paths that move
#: cached state (DBI re-votes, per-set counters, leakage tracking,
#: word-granularity writes, forced drains, end-of-run drains only).
FOCUS = {
    "dbi": {"scheme": "dbi"},
    "cnt-shared": {"scheme": "cnt-shared"},
    "leakage": {"scheme": "cnt", "leakage": LeakageModel.cnfet()},
    "word": {"scheme": "cnt", "access_granularity": "word"},
    "forced-drains": {"scheme": "cnt", "window": 2, "fifo_depth": 1},
    "no-drains": {"scheme": "cnt", "window": 2, "drain_per_access": 0},
}


def assert_cached_state(array, recorder, scalar) -> None:
    """Every resident line's cached count, and the peripheral chain."""
    assert array.stats.peripheral_fj == scalar.stats.peripheral_fj
    assoc = array.config.assoc
    resident = [
        set_index * assoc + way
        for set_index, filled in enumerate(recorder.filled)
        for way in range(filled)
    ]
    for lid in resident:
        stored = recorder.data[lid] ^ array._mask_for(array._dirval[lid])
        assert array._ones[lid] == stored.bit_count(), lid
        oracle = scalar.stored_line(*divmod(lid, assoc))
        assert array._ones[lid] == int.from_bytes(oracle, "little").bit_count()


@pytest.mark.parametrize("focus", sorted(FOCUS))
@settings(max_examples=examples(15), deadline=None)
@given(geometry=geometries, recorded=traces(), knobs=encodings)
def test_a_fold_leaves_every_cached_line_exact(focus, geometry, recorded, knobs):
    trace, preloads = recorded
    config = replace(geometry, **{**knobs, **FOCUS[focus]})
    recorder = Recorder(config)
    for addr, payload in preloads:
        recorder.preload(addr, payload)
    substrate = recorder.record(trace)
    array = make_cache(config=config)
    array.run(trace, finalize=False, substrate=substrate)
    scalar = make_cache(config=config, backend="scalar")
    scalar.preload_all(preloads)
    scalar.run(trace, finalize=False)
    assert_cached_state(array, recorder, scalar)
    array.finalize()
    scalar.finalize()
    assert_cached_state(array, recorder, scalar)


@pytest.mark.parametrize("focus", sorted(FOCUS))
@settings(max_examples=examples(10), deadline=None)
@given(geometry=geometries, recorded=traces(), knobs=encodings)
def test_every_access_leaves_every_cached_line_exact(
    focus, geometry, recorded, knobs
):
    trace, preloads = recorded
    config = replace(geometry, **{**knobs, **FOCUS[focus]})
    array = make_cache(config=config)
    scalar = make_cache(config=config, backend="scalar")
    for sim in (array, scalar):
        sim.preload_all(preloads)
    recorder = array._own_recorder()
    for access in trace:
        assert array.access(access) == scalar.access(access)
        assert_cached_state(array, recorder, scalar)
    array.finalize()
    scalar.finalize()
    assert_cached_state(array, recorder, scalar)
