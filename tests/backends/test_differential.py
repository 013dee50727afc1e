"""Differential suite: the array backend is bit-identical to the oracle.

Every test replays the exact same access sequence through the scalar
reference (``CNTCache``) and the integer-packed array backend
(``ArrayCNTCache``) and asserts the *entire* :class:`EnergyStats` —
every counter and every per-component femtojoule — is equal with zero
tolerance.  Energies are IEEE-754 doubles accumulated in the same
left-fold order on both sides, so ``==`` is the correct comparison;
any drift is a bug, not float noise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import make_cache
from repro.core.config import CNTCacheConfig
from repro.exec import workload_job
from repro.exec.worker import execute_job
from repro.obs import probe
from repro.trace.record import Access
from repro.workloads.program import get_workload
from tests.backends.strategies import examples

SCHEMES = (
    "baseline",
    "static-invert",
    "fill-greedy",
    "dbi",
    "invert",
    "cnt",
    "cnt-shared",
    "cnt-quant",
)

schemes = st.sampled_from(SCHEMES)

#: Aligned accesses over a tiny footprint (high hit *and* eviction mix).
operations = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=47),  # slot
        st.binary(min_size=8, max_size=8),
    ),
    min_size=1,
    max_size=120,
)


def trace_of(ops, base=0):
    out = []
    for is_write, slot, payload in ops:
        addr = base + slot * 8
        if is_write:
            out.append(Access.write(addr, payload))
        else:
            out.append(Access.read(addr, bytes(8)))
    return out


def assert_identical(config, trace, preloads=()):
    scalar = make_cache(config=config, backend="scalar")
    array = make_cache(config=config, backend="array")
    scalar.preload_all(preloads)
    array.preload_all(preloads)
    scalar.run(trace)
    array.run(trace)
    assert array.stats.to_dict() == scalar.stats.to_dict()
    return scalar, array


@settings(max_examples=examples(30), deadline=None)
@given(scheme=schemes, ops=operations)
def test_stats_identical_across_schemes(scheme, ops):
    config = CNTCacheConfig(scheme=scheme, size=1024, assoc=2, line_size=64)
    assert_identical(config, trace_of(ops))


@settings(max_examples=examples(20), deadline=None)
@given(
    scheme=st.sampled_from(("baseline", "dbi", "cnt")),
    ops=operations,
    write_policy=st.sampled_from(("wb-wa", "wt-wa", "wt-nwa")),
    replacement=st.sampled_from(("lru", "fifo", "plru", "random")),
)
def test_stats_identical_across_policies(scheme, ops, write_policy, replacement):
    config = CNTCacheConfig(
        scheme=scheme,
        size=1024,
        assoc=2,
        line_size=64,
        write_policy=write_policy,
        replacement=replacement,
    )
    assert_identical(config, trace_of(ops))


@settings(max_examples=examples(20), deadline=None)
@given(
    ops=operations,
    window=st.sampled_from((2, 4, 8, 16)),
    granularity=st.sampled_from(("line", "word")),
    fill=st.sampled_from(("neutral", "write-greedy")),
    drain=st.sampled_from((0, 1, 4)),
)
def test_stats_identical_across_cnt_knobs(ops, window, granularity, fill, drain):
    config = CNTCacheConfig(
        scheme="cnt",
        size=2048,
        assoc=4,
        line_size=32,
        window=window,
        access_granularity=granularity,
        fill_policy=fill,
        drain_per_access=drain,
    )
    assert_identical(config, trace_of(ops))


@settings(max_examples=examples(20), deadline=None)
@given(scheme=st.sampled_from(("invert", "cnt")), ops=operations)
def test_access_returns_identical_bytes(scheme, ops):
    """The per-access API agrees byte-for-byte, not just in aggregate."""
    config = CNTCacheConfig(scheme=scheme, size=1024, assoc=2, line_size=64)
    scalar = make_cache(config=config, backend="scalar")
    array = make_cache(config=config, backend="array")
    for access in trace_of(ops):
        assert array.access(access) == scalar.access(access)
    scalar.finalize()
    array.finalize()
    assert array.stats.to_dict() == scalar.stats.to_dict()


@settings(max_examples=examples(15), deadline=None)
@given(ops=operations)
def test_preloads_identical(ops):
    preloads = [(0, bytes(range(64))), (512, b"\xff" * 64)]
    config = CNTCacheConfig(scheme="cnt", size=1024, assoc=2, line_size=64)
    assert_identical(config, trace_of(ops), preloads)


@pytest.mark.parametrize("workload", ("stream", "qsort", "pointer_chase"))
@pytest.mark.parametrize("scheme", ("baseline", "dbi", "invert", "cnt"))
def test_real_workloads_identical(workload, scheme):
    """Full tiny workload traces, per-component fJ equality included."""
    run = get_workload(workload).build("tiny", seed=7)
    config = CNTCacheConfig(scheme=scheme)
    scalar, array = assert_identical(config, run.trace, run.preloads)
    # Spell out the per-component claim the dict equality already implies,
    # so a regression names the diverging component directly.
    from repro.core.stats import ENERGY_COMPONENTS

    for component in ENERGY_COMPONENTS:
        assert getattr(array.stats, component) == getattr(
            scalar.stats, component
        ), component
    assert array.stats.hits == scalar.stats.hits
    assert array.stats.misses == scalar.stats.misses


def test_leakage_identical():
    from repro.cnfet.leakage import LeakageModel

    run = get_workload("stream").build("tiny", seed=7)
    config = CNTCacheConfig(scheme="cnt", leakage=LeakageModel.cnfet())
    scalar, array = assert_identical(config, run.trace, run.preloads)
    assert array.stats.leakage_fj == scalar.stats.leakage_fj
    assert array.stats.leakage_fj > 0


@settings(max_examples=examples(20), deadline=None)
@given(
    scheme=schemes,
    base=st.sampled_from((1 << 64, (1 << 64) + 4096, 1 << 80)),
    ops=operations,
)
def test_huge_addresses_identical(scheme, base, ops):
    """Addresses at and beyond 2**64, including line-crossing accesses."""
    config = CNTCacheConfig(scheme=scheme, size=1024, assoc=2, line_size=64)
    crossing = base + 60  # 8 bytes straddling a 64-byte line boundary
    trace = (
        [Access.write(crossing, b"\xa5" * 8)]
        + trace_of(ops, base)
        + [Access.read(crossing, bytes(8))]
    )
    assert_identical(config, trace)


def cache_and_codec_counters(run_sim) -> dict[str, int]:
    with probe.recording(probe.ObsScope()) as scope:
        run_sim()
    return {
        name: count
        for name, count in scope.counters.items()
        if name.startswith(("cache.", "codec."))
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_probe_counters_identical(scheme):
    """One workload job per scheme: the default engine's ``cache.*`` and
    ``codec.*`` counters equal the scalar oracle's exactly."""
    config = CNTCacheConfig(scheme=scheme)

    def job_counters(**backend):
        job = workload_job(config, "qsort", "tiny", 7, **backend)
        return cache_and_codec_counters(lambda: execute_job(job))

    scalar = job_counters(backend="scalar")
    assert job_counters() == scalar
    assert scalar["cache.accesses"] > 0
    if scheme != "baseline":  # the identity codec counts nothing
        assert scalar[f"codec.{make_cache(config=config).codec.name}.applies"]


@settings(max_examples=examples(20), deadline=None)
@given(
    scheme=schemes,
    ops=operations,
    granularity=st.sampled_from(("line", "word")),
    write_policy=st.sampled_from(("wb-wa", "wt-nwa")),
    leakage=st.booleans(),
)
def test_probe_counters_identical_across_knobs(
    scheme, ops, granularity, write_policy, leakage
):
    from repro.cnfet.leakage import LeakageModel

    config = CNTCacheConfig(
        scheme=scheme,
        size=1024,
        assoc=2,
        line_size=64,
        access_granularity=granularity,
        write_policy=write_policy,
        leakage=LeakageModel.cnfet() if leakage else None,
    )
    trace = trace_of(ops)

    def counters(backend):
        sim = make_cache(config=config, backend=backend)
        return cache_and_codec_counters(lambda: sim.run(trace))

    assert counters("array") == counters("scalar")
