"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cnfet.energy import BitEnergyModel
from repro.core.config import CNTCacheConfig
from repro.workloads.program import get_workload, workload_names

#: The deeper differential leg: ``pytest --hypothesis-profile=ci`` runs
#: every test sized with ``tests.backends.strategies.examples`` at four
#: times its examples.  The default profile is left as it is.
settings.register_profile(
    "ci", max_examples=4 * settings.get_profile("default").max_examples
)


@pytest.fixture(scope="session")
def model() -> BitEnergyModel:
    """The pinned Table I energy model."""
    return BitEnergyModel.paper_table1()


@pytest.fixture(scope="session")
def tiny_runs():
    """Every workload built at tiny size (cached for the whole session)."""
    return {
        name: get_workload(name).build("tiny", seed=3)
        for name in workload_names()
    }


@pytest.fixture()
def small_config() -> CNTCacheConfig:
    """A small cache config that misses often (exercises evictions)."""
    return CNTCacheConfig(size=2048, assoc=2, line_size=64)
