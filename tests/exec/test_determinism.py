"""Determinism contract: one job, three execution modes, identical bits.

Hypothesis draws (scheme, workload, size) combinations; for each, the
same :class:`SimJob` is executed in-process, in a worker subprocess and
round-tripped through the on-disk cache — the ``total_fj`` and every
per-category counter must be *identical* (``==`` on floats, not
approx), because the local workers and the result cache both assume
results are interchangeable across modes.  The subprocess leg runs on
one of the local loop's own workers, through the pipe parallel jobs take.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CNTCacheConfig
from repro.core.stats import ENERGY_COMPONENTS
from repro.exec import (
    ExecEngine,
    ExecResult,
    execute_job,
    workload_job,
)
from repro.exec.backends import _Pool

_COUNTERS = (
    "accesses",
    "reads",
    "writes",
    "hits",
    "misses",
    "evictions",
    "writebacks",
    "windows_completed",
    "direction_switches",
    "partition_flips",
    "pending_dropped",
    "forced_drains",
)


@pytest.fixture(scope="module")
def worker():
    pool = _Pool(1)
    try:
        yield pool.workers[0]
    finally:
        pool.close()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scheme=st.sampled_from(
        ["baseline", "static-invert", "dbi", "invert", "cnt", "cnt-quant"]
    ),
    workload=st.sampled_from(["records", "stream", "crc32"]),
    size=st.sampled_from(["tiny", "small"]),
)
def test_three_modes_bit_identical(worker, tmp_path_factory, scheme, workload, size):
    job = workload_job(CNTCacheConfig(scheme=scheme), workload, size, 3)

    inproc = execute_job(job)
    worker.conn.send(([job], [0]))
    sub = ExecResult.from_payload(job, worker.conn.recv(), "run")
    cache_dir = tmp_path_factory.mktemp("exec-cache")
    writer = ExecEngine(cache_dir=cache_dir)
    writer.run_job(job)
    cached = ExecEngine(cache_dir=cache_dir).run_job(job)
    assert cached.source == "cache"

    for mode in (sub, cached):
        assert mode.stats.total_fj == inproc.stats.total_fj
        for counter in _COUNTERS:
            assert getattr(mode.stats, counter) == getattr(
                inproc.stats, counter
            )
        for component in ENERGY_COMPONENTS:
            assert getattr(mode.stats, component) == getattr(
                inproc.stats, component
            )
        assert mode.canonical() == inproc.canonical()
