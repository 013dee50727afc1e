"""CNT-Cache: an Energy-Efficient Carbon Nanotube Cache with Adaptive Encoding.

Full reproduction of the DATE 2020 paper: the CNFET SRAM energy model, a
valued-trace cache simulator, the adaptive encoding architecture
(partitioned inversion codec + Algorithm 1 direction predictor + deferred
update FIFOs), baseline encoders, a 15-kernel workload suite, and the
experiment harness that regenerates every table and figure.

Quickstart (via the stable facade, :mod:`repro.api`)::

    from repro import CNTCacheConfig, api, get_workload

    run = get_workload("records").build("small", seed=7)
    cnt = api.simulate(workload=run, config=CNTCacheConfig(scheme="cnt"))
    base = api.simulate(workload=run, config=CNTCacheConfig(scheme="baseline"))
    print(f"saving: {cnt.stats.savings_vs(base.stats):.1%}")

See DESIGN.md for the system inventory, EXPERIMENTS.md for the
paper-vs-measured record of every experiment, docs/API.md for the facade
surface and docs/OBSERVABILITY.md for probes/manifests/profiling.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro import api
    from repro.cnfet import BitEnergyModel, LeakageModel, Sram6TCell, render_table1
    from repro.core import (
        CNTCacheConfig,
        EnergyStats,
        SCHEMES,
        preset,
        preset_names,
    )
    from repro.harness import compare_schemes, oracle_bound, replay, run_suite
    from repro.harness.experiments import EXPERIMENTS, run_experiment
    from repro.obs import Obs
    from repro.trace import Access, Op, read_trace, write_trace
    from repro.workloads import WORKLOADS, get_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "api",
    "BitEnergyModel",
    "LeakageModel",
    "Sram6TCell",
    "render_table1",
    "CNTCacheConfig",
    "EnergyStats",
    "Obs",
    "SCHEMES",
    "preset",
    "preset_names",
    "Access",
    "Op",
    "read_trace",
    "write_trace",
    "WORKLOADS",
    "get_workload",
    "workload_names",
    "replay",
    "compare_schemes",
    "run_suite",
    "oracle_bound",
    "EXPERIMENTS",
    "run_experiment",
    "__version__",
]


__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": "repro.api",
        "BitEnergyModel": "repro.cnfet.energy",
        "LeakageModel": "repro.cnfet.leakage",
        "Sram6TCell": "repro.cnfet.sram",
        "render_table1": "repro.cnfet.energy",
        "CNTCacheConfig": "repro.core.config",
        "EnergyStats": "repro.core.stats",
        "Obs": "repro.obs.session",
        "SCHEMES": "repro.core.config",
        "preset": "repro.core.presets",
        "preset_names": "repro.core.presets",
        "Access": "repro.trace.record",
        "Op": "repro.trace.record",
        "read_trace": "repro.trace.io",
        "write_trace": "repro.trace.io",
        "WORKLOADS": "repro.workloads.registry",
        "get_workload": "repro.workloads.program",
        "workload_names": "repro.workloads.program",
        "replay": "repro.harness.runner",
        "compare_schemes": "repro.harness.runner",
        "run_suite": "repro.harness.runner",
        "oracle_bound": "repro.harness.oracle",
        "EXPERIMENTS": "repro.harness.experiments",
        "run_experiment": "repro.harness.experiments",
    },
)
