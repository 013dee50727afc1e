"""Tests for the analysis package (profiling, density, prediction audit)."""

import pytest

from repro.analysis import (
    LineProfiler,
    audit_predictions,
    density_profile,
)
from repro.api import make_cache
from repro.core.cntcache import CNTCache
from repro.core.config import CNTCacheConfig
from repro.trace.record import Access


class TestLineProfiler:
    @pytest.fixture()
    def profiler(self, tiny_runs):
        run = tiny_runs["histogram"]
        profiler = LineProfiler(CNTCache(CNTCacheConfig()))
        profiler.run(run.trace, run.preloads)
        return profiler

    def test_access_attribution_complete(self, profiler, tiny_runs):
        run = tiny_runs["histogram"]
        total = sum(p.accesses for p in profiler.profiles.values())
        # Line-crossing accesses attribute to 2+ lines, so >= trace length.
        assert total >= len(run.trace)

    def test_write_ratio_bounded(self, profiler):
        for profile in profiler.profiles.values():
            assert 0.0 <= profile.write_ratio <= 1.0

    def test_windows_match_simulator(self, profiler):
        total = sum(p.windows for p in profiler.profiles.values())
        assert total == profiler.sim.stats.windows_completed

    def test_switches_match_simulator(self, profiler):
        total = sum(p.switches for p in profiler.profiles.values())
        assert total == profiler.sim.stats.direction_switches

    def test_top_lists_sorted(self, profiler):
        top = profiler.top_accessed(5)
        assert all(
            a.accesses >= b.accesses for a, b in zip(top, top[1:])
        )
        switchers = profiler.top_switchers(5)
        assert all(
            a.switches >= b.switches for a, b in zip(switchers, switchers[1:])
        )

    def test_summary_keys(self, profiler):
        summary = profiler.summary()
        for key in ("lines_touched", "windows", "switches", "total_fj"):
            assert key in summary


class TestDensityProfile:
    def test_known_density(self):
        trace = [Access.read(0, b"\xff" * 4), Access.read(64, b"\x00" * 4)]
        profile = density_profile(trace)
        assert profile.overall_density == pytest.approx(0.5)

    def test_regions_split(self):
        trace = [
            Access.read(0, b"\xff"),
            Access.read(4096, b"\x00"),
        ]
        profile = density_profile(trace, region_size=4096)
        assert len(profile.regions) == 2
        densities = sorted(r.density for r in profile.regions.values())
        assert densities == [0.0, 1.0]

    def test_opportunity_extremes(self):
        skewed = density_profile([Access.read(0, b"\x00" * 8)])
        balanced = density_profile([Access.read(0, b"\x0f" * 8)])
        assert skewed.encoding_opportunity() == pytest.approx(0.5)
        assert balanced.encoding_opportunity() == pytest.approx(0.0)

    def test_phases_partition_trace(self):
        trace = [Access.read(0, b"\x00")] * 25
        profile = density_profile(trace, phase_length=10)
        assert len(profile.phases) == 3  # 10 + 10 + 5

    def test_skewed_regions_filter(self):
        trace = [Access.read(0, b"\x00" * 8), Access.read(4096, b"\x3c" * 8)]
        profile = density_profile(trace, region_size=4096)
        skewed = profile.skewed_regions(threshold=0.3)
        assert [r.region_addr for r in skewed] == [0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            density_profile([], region_size=1000)
        with pytest.raises(ValueError):
            density_profile([], phase_length=0)

    def test_empty_trace(self):
        profile = density_profile([])
        assert profile.overall_density == 0.0
        assert profile.encoding_opportunity() == 0.0


class TestPredictionAudit:
    def test_requires_adaptive_scheme(self, tiny_runs):
        run = tiny_runs["stream"]
        with pytest.raises(ValueError):
            audit_predictions(
                CNTCache(CNTCacheConfig(scheme="baseline")),
                run.trace,
                run.preloads,
            )

    def test_audit_counts_consistent(self, tiny_runs):
        run = tiny_runs["dijkstra"]
        audit = audit_predictions(
            CNTCache(CNTCacheConfig()), run.trace, run.preloads
        )
        assert audit.decisions > 0
        assert (
            audit.kept_correct
            + audit.kept_wrong
            + audit.switched_correct
            + audit.switched_wrong
            == audit.decisions
        )
        assert audit.correct == audit.kept_correct + audit.switched_correct
        assert 0.0 <= audit.accuracy <= 1.0

    def test_stable_workload_high_accuracy(self):
        """A steady all-read, all-zero stream is perfectly predictable."""
        trace = [Access.write(0x0, bytes(8))]
        trace += [Access.read(0x0, bytes(8))] * 200
        audit = audit_predictions(CNTCache(CNTCacheConfig(window=8)), trace)
        assert audit.accuracy > 0.95

    def test_as_dict(self, tiny_runs):
        run = tiny_runs["qsort"]
        audit = audit_predictions(
            CNTCache(CNTCacheConfig()), run.trace, run.preloads
        )
        for key in ("decisions", "accuracy", "kept_correct", "switched_wrong"):
            assert key in audit.as_dict()

    @pytest.mark.parametrize("name", ["crc32", "qsort", "spmv", "stream"])
    @pytest.mark.parametrize(
        "knobs",
        [{}, {"scheme": "invert"}, {"window": 8, "partitions": 4, "size": 2048}],
    )
    def test_folding_the_shared_substrate_audits_alike(self, tiny_runs, name, knobs):
        run = tiny_runs[name]
        config = CNTCacheConfig(**knobs)
        audits, stats = [], []
        for substrate in (None, run.substrate(config)):
            sim = make_cache(config=config, backend="array")
            audits.append(
                audit_predictions(sim, run.trace, run.preloads, substrate=substrate)
            )
            stats.append(sim.stats.to_dict())
        assert audits[0].decisions > 0
        assert audits[0].as_dict() == audits[1].as_dict()
        assert stats[0] == stats[1]
