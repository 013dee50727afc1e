# lint: skip-file
"""Seeded R006 facade violations: library code bypassing repro.api.

The ``repro/`` directory component makes :func:`in_repro_source` treat
this fixture as package code, so the facade branch applies.  Linted with
``honor_skip_file=False`` by the rule tests; never imported.
"""

CONFIG = object()


def bad_helper(run):
    sim = CNTCache(CONFIG)  # noqa: F821
    return sim


def blessed_low_level(config, trace):
    # replay() stays a sanctioned primitive outside experiments.py.
    return replay(config, trace)  # noqa: F821


def blessed_exception(run):
    return CNTCache(CONFIG)  # noqa: F821  # lint: disable=R006
