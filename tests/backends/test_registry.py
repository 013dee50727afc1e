"""The backend registry and the redesigned construction surface."""

import warnings

import pytest

from repro.api import make_cache
from repro.backends import (
    DEFAULT_BACKEND,
    BackendError,
    CacheBackend,
    backend_names,
    make_backend,
)
from repro.core.cntcache import CNTCache
from repro.core.config import CNTCacheConfig


class TestRegistry:
    def test_array_is_the_default_and_both_are_listed(self):
        assert DEFAULT_BACKEND == "array"
        assert backend_names() == ("scalar", "array")

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            make_backend("gpu", CNTCacheConfig())

    def test_make_cache_rejects_unknown_backend(self):
        with pytest.raises(BackendError, match="unknown backend"):
            make_cache(backend="gpu")


class TestConstruction:
    def test_make_cache_default_is_the_fast_engine(self):
        sim = make_cache(scheme="cnt")
        assert not isinstance(sim, CNTCache)
        assert isinstance(sim, CacheBackend)
        assert sim.config.scheme == "cnt"

    def test_make_cache_scalar_is_the_reference(self):
        sim = make_cache(scheme="cnt", backend="scalar")
        assert isinstance(sim, CNTCache)
        assert isinstance(sim, CacheBackend)

    def test_tracing_selects_the_scalar_engine(self):
        from repro.obs import trace

        with trace.tracing(trace.TraceSink()):
            sim = make_cache(scheme="cnt")
        assert isinstance(sim, CNTCache)

    def test_make_cache_array_satisfies_the_protocol(self):
        sim = make_cache(scheme="cnt", backend="array")
        assert not isinstance(sim, CNTCache)
        assert isinstance(sim, CacheBackend)
        assert sim.backend_name == "array"

    def test_array_backend_rejects_shared_memory(self):
        from repro.cache.memory import MainMemory

        with pytest.raises(BackendError, match="MainMemory"):
            make_backend("array", CNTCacheConfig(), MainMemory())

    def test_scalar_backend_accepts_shared_memory(self):
        from repro.cache.memory import MainMemory

        memory = MainMemory()
        sim = make_backend("scalar", CNTCacheConfig(), memory)
        assert sim.memory is memory


class TestDeprecationShim:
    """Every construction path stays free of DeprecationWarning."""

    def test_facade_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_cache()
            make_backend("scalar", CNTCacheConfig())

    def test_array_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_cache(backend="array")
