"""Experiment harness: runners, tables and the experiment registry.

Entry points:

* :func:`~repro.harness.runner.replay` — one trace through one config.
* :func:`~repro.harness.runner.compare_schemes` — scheme shoot-out on one
  workload.
* :func:`~repro.harness.runner.run_suite` — the full benchmark matrix.
* :mod:`~repro.harness.experiments` — every paper table/figure by id
  (``t1``, ``f3``, ...); also runnable via ``python -m repro.harness.cli``.

Experiments declare their simulations as :class:`repro.exec.SimJob`
values and resolve them through an :class:`repro.exec.ExecEngine`
(deduplicated, optionally parallel and disk-cached);
:func:`~repro.harness.experiments.plan_experiment` exposes the job plan
of any experiment without running it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.harness.experiments import (
        EXPERIMENT_PLANS,
        EXPERIMENTS,
        ExperimentResult,
        plan_experiment,
        run_experiment,
    )
    from repro.harness.oracle import oracle_bound
    from repro.harness.runner import (
        RunResult,
        compare_schemes,
        replay,
        run_suite,
    )
    from repro.harness.tables import render_markdown, render_table

__all__ = [
    "replay",
    "compare_schemes",
    "run_suite",
    "RunResult",
    "oracle_bound",
    "render_table",
    "render_markdown",
    "EXPERIMENTS",
    "EXPERIMENT_PLANS",
    "ExperimentResult",
    "plan_experiment",
    "run_experiment",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "replay": "repro.harness.runner",
        "compare_schemes": "repro.harness.runner",
        "run_suite": "repro.harness.runner",
        "RunResult": "repro.harness.runner",
        "oracle_bound": "repro.harness.oracle",
        "render_table": "repro.harness.tables",
        "render_markdown": "repro.harness.tables",
        "EXPERIMENTS": "repro.harness.experiments",
        "EXPERIMENT_PLANS": "repro.harness.experiments",
        "ExperimentResult": "repro.harness.experiments",
        "plan_experiment": "repro.harness.experiments",
        "run_experiment": "repro.harness.experiments",
    },
)
