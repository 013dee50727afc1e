"""The repro.api facade: surface, equivalence, warning-free paths."""

import warnings

import pytest

from repro import api
from repro.core.config import CNTCacheConfig
from repro.exec import ExecEngine, SimJob
from repro.harness.runner import _run_workload


class TestSurface:
    def test_all_is_the_contract(self):
        assert api.__all__ == [
            "make_cache", "make_engine", "plan", "profile", "simulate",
        ]
        for name in api.__all__:
            assert callable(getattr(api, name))

    def test_entry_points_are_keyword_only(self):
        with pytest.raises(TypeError):
            api.make_cache(CNTCacheConfig())
        with pytest.raises(TypeError):
            api.simulate("stream")
        with pytest.raises(TypeError):
            api.plan("f3")


class TestMakeCache:
    def test_default_is_the_paper_config(self):
        sim = api.make_cache()
        assert sim.backend_name == "array"
        assert sim.config == CNTCacheConfig()

    def test_overrides_build_a_fresh_config(self):
        sim = api.make_cache(scheme="baseline")
        assert sim.config.scheme == "baseline"

    def test_overrides_layer_on_a_given_config(self):
        config = CNTCacheConfig(window=32)
        sim = api.make_cache(config=config, scheme="dbi")
        assert sim.config.window == 32
        assert sim.config.scheme == "dbi"
        # The caller's config object is not mutated.
        assert config.scheme == CNTCacheConfig().scheme

    def test_config_used_as_is_without_overrides(self):
        config = CNTCacheConfig(scheme="invert")
        assert api.make_cache(config=config).config is config


class TestMakeEngine:
    def test_defaults(self):
        engine = api.make_engine()
        assert isinstance(engine, ExecEngine)
        assert engine.jobs == 1
        assert engine.cache_dir is None
        assert engine.obs is None


class TestSimulate:
    def test_simulate_run_matches_internal_runner(self, tiny_runs):
        run = tiny_runs["stream"]
        config = CNTCacheConfig()
        via_api = api.simulate(workload=run, config=config)
        direct = _run_workload(config, run)
        assert via_api.workload == "stream"
        assert via_api.total_fj == direct.total_fj

    def test_simulate_by_name_builds_the_workload(self):
        result = api.simulate(workload="crc32", size="tiny", seed=3)
        assert result.workload == "crc32"
        assert result.total_fj > 0

    def test_engine_path_is_equivalent(self, tiny_runs):
        run = tiny_runs["crc32"]
        config = CNTCacheConfig(scheme="baseline")
        engineless = api.simulate(workload=run, config=config)
        engined = api.simulate(
            workload="crc32", size="tiny", seed=3,
            config=config, engine=ExecEngine(),
        )
        assert engined.total_fj == engineless.total_fj
        assert engined.scheme == engineless.scheme == "baseline"


class TestPlan:
    def test_plan_returns_jobs(self):
        jobs = api.plan(experiment="f3", size="tiny", seed=7)
        assert jobs
        assert all(isinstance(job, SimJob) for job in jobs)

    def test_pure_model_experiment_plans_empty(self):
        assert api.plan(experiment="t1", size="tiny") == []


class TestDeprecationShims:
    """The facade stays free of DeprecationWarning."""

    def test_facade_itself_is_warning_free(self, tiny_runs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.make_cache()
            api.simulate(workload=tiny_runs["stream"])
            api.plan(experiment="t1")


class TestBackendSelection:
    """backend= threads identically through every construction surface."""

    def test_simulate_backends_agree_in_process(self, tiny_runs):
        run = tiny_runs["stream"]
        scalar = api.simulate(workload=run, backend="scalar")
        array = api.simulate(workload=run)
        assert array.stats.to_dict() == scalar.stats.to_dict()

    def test_simulate_backends_agree_through_an_engine(self, tiny_runs):
        run = tiny_runs["stream"]
        scalar = api.simulate(
            workload=run, engine=ExecEngine(), backend="scalar"
        )
        array = api.simulate(workload=run, engine=ExecEngine())
        assert array.stats.to_dict() == scalar.stats.to_dict()

    def test_engine_rejects_unknown_backend(self, tiny_runs):
        from repro.exec import JobError

        with pytest.raises(JobError, match="backend"):
            api.simulate(
                workload=tiny_runs["stream"], engine=ExecEngine(),
                backend="gpu",
            )
