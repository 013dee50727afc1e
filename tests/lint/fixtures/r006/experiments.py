# lint: skip-file
"""Seeded R006 violations: an experiment driving the simulator directly.

Linted with ``honor_skip_file=False`` by the rule tests; never imported.
"""

CONFIG = object()


def bad_experiment(run):
    sim = CNTCache(CONFIG)  # noqa: F821
    sim.run(run.trace)
    direct = _run_workload(CONFIG, run)  # noqa: F821
    chained = CNTCache(CONFIG).run(run.trace)  # noqa: F821
    rerun = harness.replay(CONFIG, run.trace)  # noqa: F821
    facade = api.simulate(workload=run, config=CONFIG)  # noqa: F821
    built = api.make_cache(CONFIG)  # noqa: F821
    return sim, direct, chained, rerun, facade, built


def blessed_exception(run):
    return replay(CONFIG, run.trace)  # noqa: F821  # lint: disable=R006
