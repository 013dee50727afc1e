"""Plans are built once per process per ``(size, seed, programs)``.

Each ``_plan_*`` function in ``EXPERIMENT_PLANS`` shares one memo that
holds the plans of one key.  A memoised plan must be indistinguishable
from a fresh build (same keys, same fingerprints), and callers must not
be able to change what the next caller gets.
"""

from __future__ import annotations

import pytest

from repro.exec import JobError
from repro.harness import experiments
from repro.harness.experiments import EXPERIMENT_PLANS, plan_experiment


@pytest.fixture(autouse=True)
def empty_memo():
    experiments._plans_for.cache_clear()
    yield
    experiments._plans_for.cache_clear()


def fingerprints(plan: dict) -> dict:
    return {key: job.fingerprint for key, job in plan.items()}


@pytest.mark.parametrize("size, seed", [("tiny", 7), ("small", 11)])
def test_memoised_plans_match_fresh_builds(size, seed):
    for experiment_id, plan in EXPERIMENT_PLANS.items():
        memoised = plan(size, seed)
        again = plan(size, seed)
        fresh = plan.__wrapped__(size, seed)
        assert list(memoised) == list(fresh), experiment_id
        assert fingerprints(memoised) == fingerprints(fresh), experiment_id
        # The second call hands out the same job objects: their cached
        # fingerprints are reused, not computed again.
        assert all(again[key] is job for key, job in memoised.items())


def test_mutating_a_returned_plan_does_not_change_the_next_call():
    plan = EXPERIMENT_PLANS["f3"]
    first = plan("tiny", 7)
    expected = fingerprints(first)
    first.clear()
    assert fingerprints(plan("tiny", 7)) == expected
    listed = plan_experiment("f3", "tiny", 7)
    listed.pop()
    assert len(plan_experiment("f3", "tiny", 7)) == len(expected)


def test_other_programs_get_a_new_plan(monkeypatch):
    plan = EXPERIMENT_PLANS["f3"]
    suite = plan("tiny", 7)
    monkeypatch.setattr(experiments, "workload_names", lambda: ["crc32"])
    narrowed = plan("tiny", 7)
    assert {name for name, _ in narrowed} == {"crc32"}
    assert len(narrowed) == len(experiments.MAIN_SCHEMES)
    monkeypatch.undo()
    assert fingerprints(plan("tiny", 7)) == fingerprints(suite)


def test_the_memo_holds_one_key():
    plan = EXPERIMENT_PLANS["f3"]
    first = plan("tiny", 7)
    plan("tiny", 11)
    assert experiments._plans_for.cache_info().currsize == 1
    rebuilt = plan("tiny", 7)
    assert fingerprints(rebuilt) == fingerprints(first)
    assert all(rebuilt[key] is not job for key, job in first.items())


def test_a_float_seed_is_rejected_after_its_int_was_memoised():
    plan = EXPERIMENT_PLANS["f3"]
    plan("tiny", 7)
    with pytest.raises(JobError, match="seed must be an int"):
        plan("tiny", 7.0)
