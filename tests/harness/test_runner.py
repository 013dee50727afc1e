"""Unit tests for the runner and the oracle bound."""

from repro.core.config import CNTCacheConfig
from repro.harness.oracle import oracle_bound
from repro.harness.runner import (
    _run_workload,
    compare_schemes,
    replay,
    run_suite,
    savings_table,
)


class TestReplay:
    def test_replay_returns_simulator(self, tiny_runs):
        run = tiny_runs["stream"]
        sim = replay(CNTCacheConfig(), run.trace, run.preloads)
        assert sim.stats.accesses >= len(run.trace)

    def test_run_workload_result_fields(self, tiny_runs):
        result = _run_workload(CNTCacheConfig(), tiny_runs["matmul"])
        assert result.workload == "matmul"
        assert result.scheme == "cnt"
        assert result.total_fj > 0


class TestCompare:
    def test_compare_schemes(self, tiny_runs):
        results = compare_schemes(
            tiny_runs["qsort"], schemes=("baseline", "cnt")
        )
        assert set(results) == {"baseline", "cnt"}
        # Same trace -> identical architectural profile.
        assert (
            results["baseline"].stats.misses == results["cnt"].stats.misses
        )

    def test_savings_table(self, tiny_runs):
        results = compare_schemes(
            tiny_runs["dijkstra"], schemes=("baseline", "cnt", "invert")
        )
        table = savings_table({"dijkstra": results})
        assert set(table["dijkstra"]) == {"cnt", "invert"}

    def test_run_suite_matrix(self, tiny_runs):
        results = run_suite(
            ["stream", "crc32"], schemes=("baseline", "cnt"), size="tiny",
            seed=3,
        )
        assert set(results) == {"stream", "crc32"}
        assert set(results["stream"]) == {"baseline", "cnt"}


class TestOracleBound:
    def test_oracle_below_every_scheme(self, tiny_runs):
        """The oracle lower-bounds all realisable encodings."""
        run = tiny_runs["dijkstra"]
        config = CNTCacheConfig()
        bound = oracle_bound(config, run.trace, run.preloads)
        for scheme in ("baseline", "static-invert", "invert", "cnt"):
            stats = _run_workload(config.variant(scheme=scheme), run).stats
            # Compare on data + peripheral (the oracle carries no metadata).
            achieved = (
                stats.data_fj + stats.peripheral_fj
            )
            assert bound <= achieved * (1 + 1e-9), scheme

    def test_oracle_positive(self, tiny_runs):
        run = tiny_runs["stream"]
        assert oracle_bound(CNTCacheConfig(), run.trace, run.preloads) > 0
