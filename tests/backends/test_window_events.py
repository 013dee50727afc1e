"""Completed prediction windows, as an attached observer sees them.

The array engine prices a window completion inline in its fold, and the
same block builds the ``WindowEvent`` when an observer is attached.  These
tests check that stream field for field against the scalar oracle's, for
one-off runs and for folds over a shared substrate, and that attaching an
observer changes no ``EnergyStats`` field.  Forced drains (``fifo_depth=1``)
and queues that only drain at the end (``drain_per_access=0``) are covered.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import make_cache
from repro.backends.array import record_substrate
from tests.backends.strategies import examples, geometries, traces

#: Knobs that decide when windows complete and what they queue.
windows = st.fixed_dictionaries(
    {
        "window": st.sampled_from((2, 4, 16)),
        "partitions": st.sampled_from((1, 8, 32)),
        "fifo_depth": st.sampled_from((1, 8)),
        "drain_per_access": st.sampled_from((0, 1)),
        "account_metadata": st.booleans(),
    }
)


def replay(config, trace, preloads, backend="array", observe=True, substrate=None):
    """Stats and observed window events of one finalized replay."""
    sim = make_cache(config=config, backend=backend)
    events = []
    if observe:
        sim.window_observer = events.append
    if substrate is None:
        sim.preload_all(preloads)
        sim.run(trace)
    else:
        sim.run(trace, substrate=substrate)
    return sim.stats.to_dict(), events


@pytest.mark.parametrize("write_policy", ["wb-wa", "wt-nwa"])
@pytest.mark.parametrize("scheme", ["cnt", "cnt-shared", "cnt-quant"])
@settings(max_examples=examples(40), deadline=None)
@given(geometry=geometries, recorded=traces(), knobs=windows)
def test_window_events_match_the_scalar_engine(
    scheme, write_policy, geometry, recorded, knobs
):
    trace, preloads = recorded
    config = replace(geometry, scheme=scheme, write_policy=write_policy, **knobs)
    oracle_stats, oracle_events = replay(config, trace, preloads, backend="scalar")
    stats, events = replay(config, trace, preloads)
    assert events == oracle_events
    assert stats == oracle_stats
    shared = record_substrate(config, trace, preloads)
    assert replay(config, trace, preloads, substrate=shared) == (stats, events)


@pytest.mark.parametrize("scheme", ["cnt", "cnt-shared", "cnt-quant"])
@settings(max_examples=examples(40), deadline=None)
@given(geometry=geometries, recorded=traces(), knobs=windows)
def test_an_observer_changes_no_energy(scheme, geometry, recorded, knobs):
    trace, preloads = recorded
    config = replace(geometry, scheme=scheme, **knobs)
    observed, events = replay(config, trace, preloads)
    unobserved, none = replay(config, trace, preloads, observe=False)
    assert none == []
    assert observed == unobserved
    assert len(events) == observed["windows_completed"]
