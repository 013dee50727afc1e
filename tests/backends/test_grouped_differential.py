"""Grouped differential: many configs folded over one recorded substrate.

The array engine records what the substrate cache decides once per
(trace, geometry) and prices every encoding config as a fold over that
record.  Each test here records one substrate, folds a group of configs
over it and compares every member with the scalar oracle replaying the
trace on its own: the whole :class:`EnergyStats` with zero tolerance,
and the ``cache.*``/``codec.*`` probe counters.  The oracle bound and
the L1-filtered stream, which are projections of the same record, are
checked against their scalar-substrate references too.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import make_cache
from repro.backends.array import record_substrate, substrate_key
from repro.core.config import CNTCacheConfig
from repro.exec import oracle_job
from repro.exec.worker import clear_memos, execute_job
from repro.harness.multilevel import l1_filtered_stream
from repro.harness.oracle import oracle_bound
from repro.obs import probe
from repro.trace.record import Access
from tests.backends.strategies import encodings, examples, geometries, traces


def counters(run_sim) -> tuple[dict, dict[str, int]]:
    """The stats of ``run_sim()`` and the cache/codec counters it emitted."""
    with probe.recording(probe.ObsScope()) as scope:
        stats = run_sim()
    emitted = {
        name: count
        for name, count in scope.counters.items()
        if name.startswith(("cache.", "codec."))
    }
    return stats.to_dict(), emitted


def scalar_run(config, trace, preloads):
    sim = make_cache(config=config, backend="scalar")
    sim.preload_all(preloads)
    return sim.run(trace)


@settings(max_examples=examples(40), deadline=None)
@given(
    geometry=geometries,
    recorded=traces(),
    group=st.lists(encodings, min_size=1, max_size=6),
)
def test_every_config_of_a_group_folds_to_the_oracle(geometry, recorded, group):
    trace, preloads = recorded
    substrate = record_substrate(geometry, trace, preloads)
    for knobs in group:
        config = replace(geometry, **knobs)
        assert substrate_key(config) == substrate.key

        def fold(config=config):
            return make_cache(config=config).run(trace, substrate=substrate)

        assert counters(fold) == counters(
            lambda config=config: scalar_run(config, trace, preloads)
        ), knobs


@settings(max_examples=examples(30), deadline=None)
@given(geometry=geometries, recorded=traces())
def test_the_oracle_fold_equals_the_scalar_substrate_oracle(geometry, recorded):
    trace, preloads = recorded
    config = replace(geometry, partitions=4)
    substrate = record_substrate(config, trace, preloads)
    with probe.recording(probe.ObsScope()) as folded:
        fast = oracle_bound(config, trace, preloads, substrate=substrate)
    with probe.recording(probe.ObsScope()) as replayed:
        reference = oracle_bound(config, trace, preloads, backend="scalar")
    assert fast.hex() == reference.hex()
    assert folded.counters == replayed.counters


@settings(max_examples=examples(30), deadline=None)
@given(
    recorded=traces(),
    l1=st.sampled_from(((512, 1, 32), (1024, 2, 64), (2048, 4, 32))),
)
def test_the_l1_projection_equals_the_scalar_stream(recorded, l1):
    trace, preloads = recorded
    size, assoc, line_size = l1
    geometry = dict(l1_size=size, l1_assoc=assoc, line_size=line_size)
    assert l1_filtered_stream(trace, preloads, **geometry) == l1_filtered_stream(
        trace, preloads, **geometry, backend="scalar"
    )


@pytest.mark.parametrize("write_policy", ("wt-wa", "wt-nwa", "wb-nwa"))
def test_the_oracle_bound_honours_the_write_policy(tiny_runs, write_policy):
    """Both engines replay the config's write policy, which moves the
    bound away from the write-back, write-allocate one."""
    run = tiny_runs["stream"]
    config = CNTCacheConfig(size=1024, write_policy=write_policy)
    bound = oracle_bound(config, run.trace, run.preloads)
    reference = oracle_bound(config, run.trace, run.preloads, backend="scalar")
    assert bound.hex() == reference.hex()
    default = oracle_bound(
        replace(config, write_policy="wb-wa"), run.trace, run.preloads
    )
    assert bound != default


def test_oracle_jobs_emit_the_scalar_cache_counters():
    job = oracle_job(CNTCacheConfig(), "qsort", "tiny", 7)

    def job_counters(job):
        clear_memos()
        with probe.recording(probe.ObsScope()) as scope:
            result = execute_job(job)
        return result.values, {
            name: count
            for name, count in scope.counters.items()
            if name.startswith("cache.")
        }

    values, emitted = job_counters(job)
    assert (values, emitted) == job_counters(replace(job, backend="scalar"))
    assert emitted["cache.accesses"] > 0


@settings(max_examples=examples(30), deadline=None)
@given(
    recorded=traces(),
    geometry=st.sampled_from(((64, 1, 64), (128, 1, 64), (512, 2, 32))),
    scheme=st.sampled_from(("baseline", "dbi", "cnt")),
    queue=st.sampled_from(((8, 1), (1, 0))),
)
def test_the_per_access_api_matches_on_line_crossings(
    recorded, geometry, scheme, queue
):
    """``access`` records and folds one line at a time, so a crossing
    read returns each chunk before the next fill can evict its line.
    Each call folds a substrate of its own, with its own fill lines.  A
    two-access window and an undrained one-deep FIFO keep re-encodes
    queued across calls, where later fills drop them."""
    trace, preloads = recorded
    size, assoc, line_size = geometry
    fifo_depth, drain_per_access = queue
    config = CNTCacheConfig(
        scheme=scheme, size=size, assoc=assoc, line_size=line_size,
        partitions=4, window=2, fifo_depth=fifo_depth,
        drain_per_access=drain_per_access,
    )
    scalar = make_cache(config=config, backend="scalar")
    array = make_cache(config=config)
    for sim in (scalar, array):
        sim.preload_all(preloads)
    for access in trace:
        assert array.access(access) == scalar.access(access)
    scalar.finalize()
    array.finalize()
    assert array.stats.to_dict() == scalar.stats.to_dict()


def test_a_shared_substrate_folds_only_into_a_fresh_instance():
    config = CNTCacheConfig(size=1024, assoc=2)
    trace = [Access.write(0, b"\x01" * 8), Access.read(64, bytes(8))]
    substrate = record_substrate(config, trace)
    preloaded = make_cache(config=config)
    preloaded.preload(0, b"\x02")
    with pytest.raises(ValueError, match="fresh instance"):
        preloaded.run(trace, substrate=substrate)
    other = record_substrate(replace(config, assoc=1), trace)
    with pytest.raises(ValueError, match="geometry"):
        make_cache(config=config).run(trace, substrate=other)
    with pytest.raises(ValueError, match="accesses"):
        make_cache(config=config).run(trace[:1], substrate=substrate)
