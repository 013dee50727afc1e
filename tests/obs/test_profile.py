"""Profiling pipeline tests: reports, manifests, inertness, determinism.

Uses ``a5`` (the smallest planned experiment, 15 jobs at tiny) where a
real experiment is needed, and hand-rolled job batches elsewhere.
"""

import json

import pytest

from repro.core.config import CNTCacheConfig
from repro.exec import ExecEngine, workload_job
from repro.harness.experiments import run_experiment
from repro.obs import Obs, probe
from repro.obs.profile import (
    PROFILE_SCHEMA,
    ProfileError,
    profile_experiments,
)
from repro.obs.manifest import read_manifest


def batch(schemes=("baseline", "cnt"), workloads=("stream", "crc32")):
    config = CNTCacheConfig()
    return [
        workload_job(config.variant(scheme=scheme), name, "tiny", 3)
        for scheme in schemes
        for name in workloads
    ]


class TestProfileExperiments:
    def test_unknown_experiment_raises(self):
        with pytest.raises(ProfileError) as excinfo:
            profile_experiments(["nope"], size="tiny")
        assert "nope" in str(excinfo.value)

    def test_profile_smallest_experiment(self, tmp_path):
        manifest = tmp_path / "run.jsonl"
        report = profile_experiments(
            ["a5"], size="tiny", seed=7, manifest=manifest
        )
        assert report.experiments == ["a5"]
        summary = report.summary
        assert summary.jobs == report.engine["resolved"] > 0
        assert summary.accesses > 0
        assert 0.0 <= summary.cache_hit_rate <= 1.0
        # Probes were on: the demand path must have been counted.
        assert summary.counters.get("cache.accesses", 0) > 0

        # The on-disk manifest carries the same jobs.
        entries = read_manifest(manifest)
        assert entries[0]["type"] == "hello"
        kinds = [e.get("event", e["type"]) for e in entries[1:]]
        assert kinds.count("run") + kinds.count("cache_hit") == summary.jobs
        assert kinds.count("summary") == 1

        # Rendering and the JSON payload both work.
        text = report.render()
        assert "time per job kind" in text
        assert "exec engine" in text
        payload = report.to_dict()
        assert payload["schema"] == PROFILE_SCHEMA
        json.dumps(payload)  # JSON-ready all the way down
        # The coordinator's own peak RSS, in the header and the payload.
        assert payload["peak_rss_mb"] == report.peak_rss_mb > 0.0
        assert f"{report.peak_rss_mb:.1f} MB peak RSS" in text.splitlines()[0]

        # The probe switchboard is back at rest.
        assert probe.ENABLED is False
        assert probe._SCOPES == []

    def test_planless_experiment_profiles_to_zero_jobs(self):
        # t1 is a pure-model table: no jobs, and still no ZeroDivision.
        report = profile_experiments(["t1"], size="tiny")
        assert report.summary.jobs == 0
        assert report.summary.cache_hit_rate == 0.0
        assert report.summary.accesses_per_s == 0.0
        report.render()
        json.dumps(report.to_dict())


class TestProbeInertness:
    def test_experiment_render_identical_with_and_without_obs(self, tmp_path):
        """Attaching obs must not change a single rendered byte."""
        cache_dir = tmp_path / "cache"
        plain = run_experiment(
            "a5", size="tiny", seed=7,
            engine=ExecEngine(cache_dir=cache_dir),
        ).render()
        obs = Obs()
        observed = run_experiment(
            "a5", size="tiny", seed=7,
            engine=ExecEngine(cache_dir=cache_dir), obs=obs,
        ).render()
        assert plain == observed
        # And the observed run actually observed something.
        assert obs.summary().jobs > 0


class TestCounterDeterminism:
    def test_parallel_and_serial_counters_match(self):
        """cache.* / codec.* totals are worker-topology independent."""

        def measured(jobs):
            obs = Obs()
            engine = ExecEngine(jobs=jobs, obs=obs)
            engine.run_jobs(batch())
            return {
                name: value
                for name, value in obs.summary().counters.items()
                if name.startswith(("cache.", "codec."))
            }

        serial = measured(1)
        parallel = measured(4)
        assert serial  # the namespaces are populated at all
        assert serial == parallel
