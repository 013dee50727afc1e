"""Every table and figure of the evaluation, regenerable by id.

Experiment ids follow DESIGN.md: ``t1``/``t2``/``t3`` are tables,
``f3``..``f9`` figures, plus the ablations ``a1``..``a4``.  Each experiment
function takes (size, seed) and returns an :class:`ExperimentResult` whose
``render()`` prints the same rows/series the paper reports.

Execution model
---------------
Experiments never drive the simulator directly (lint rule R006).  Each
one *declares* the simulations it needs as :class:`~repro.exec.SimJob`
values — see the ``_plan_*`` helpers and the :data:`EXPERIMENT_PLANS`
registry — and consumes :class:`~repro.exec.ExecResult`\\ s from an
:class:`~repro.exec.ExecEngine`.  The engine deduplicates equal jobs
across all experiments of a session (e.g. the baseline reference run is
simulated once, however many figures divide by it), can execute the plan
across worker processes (``cntcache --jobs N``) and can persist results
in a content-addressed cache (``--cache-dir``).  A plan is built once per
process for each ``(size, seed, workload_names())``: ``cntcache all``
unions the plans up front, and each experiment's own call then reuses
the same jobs instead of building and hashing them again.

Run them all with ``python -m repro.harness.cli all`` or individually, e.g.
``python -m repro.harness.cli f3 --size default``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable

from repro.cnfet.corners import cmos_reference_model, scale_to_vdd
from repro.cnfet.energy import BitEnergyModel
from repro.cnfet.sram import Sram6TCell
from repro.core.config import CNTCacheConfig
from repro.exec import (
    ExecEngine,
    ExecResult,
    SimJob,
    audit_job,
    l2_job,
    oracle_job,
    trace_job,
    workload_job,
)
from repro.harness.charts import bar_chart, column_chart
from repro.harness.multilevel import default_l2_config
from repro.harness.tables import render_table
from repro.predictor.history import history_bits
from repro.workloads.program import workload_names

#: Scheme set of the main comparison figure.
MAIN_SCHEMES = ("baseline", "static-invert", "dbi", "invert", "cnt")

#: The paper's headline number (abstract).
PAPER_AVERAGE_SAVING = 0.222

#: key -> SimJob mapping declared by one experiment (dict preserves the
#: declaration order, which fixes the execution order deterministically).
JobPlan = dict[tuple, SimJob]


@dataclass
class ExperimentResult:
    """A rendered experiment: table data plus free-form notes."""

    id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    floatfmt: str = ".2f"
    #: Machine-readable payload for tests and downstream plotting.
    data: dict = field(default_factory=dict)
    #: Optional pre-rendered ASCII chart (figures only).
    chart: str | None = None

    def render(self) -> str:
        """Aligned text table + optional chart + notes."""
        out = render_table(
            self.headers, self.rows, floatfmt=self.floatfmt,
            title=f"[{self.id}] {self.title}",
        )
        if self.chart:
            out += "\n\n" + self.chart
        if self.notes:
            out += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return out


def _engine(engine: ExecEngine | None) -> ExecEngine:
    """The engine to resolve jobs with (a private serial one by default)."""
    if engine is not None:
        return engine
    from repro.api import make_engine

    return make_engine()


# --------------------------------------------------------------------- #
# plan memo: each job is built and fingerprinted once per process
# --------------------------------------------------------------------- #
@lru_cache(maxsize=1, typed=True)
def _plans_for(
    size: str, seed: int, programs: tuple[str, ...]
) -> dict[str, JobPlan]:
    """The plans built so far for one ``(size, seed, programs)``.

    ``maxsize=1``: a call with another key drops every plan of the old
    one, so the memo never holds more than one suite's jobs.  ``typed``
    keeps ``seed=7.0`` from reusing the plans of ``seed=7`` (it must
    raise :class:`~repro.exec.JobError` as an unmemoised build does).
    """
    return {}


def _memoised(
    plan: Callable[[str, int], JobPlan],
) -> Callable[[str, int], JobPlan]:
    """Build ``plan(size, seed)`` once per key; return a fresh dict per call.

    Plans are pure in ``(size, seed, workload_names())``, so ``cntcache
    all``'s up-front union and each experiment's own call share one set
    of frozen :class:`SimJob` values and their cached fingerprints.
    """

    @wraps(plan)
    def memoised(size: str, seed: int) -> JobPlan:
        built = _plans_for(size, seed, tuple(workload_names()))
        jobs = built.get(plan.__name__)
        if jobs is None:
            jobs = built[plan.__name__] = plan(size, seed)
        return dict(jobs)

    return memoised


# --------------------------------------------------------------------- #
# suite-saving helpers shared by the sweep experiments
# --------------------------------------------------------------------- #
def _suite_plan(
    config: CNTCacheConfig,
    size: str,
    seed: int,
    tag: object,
    names: list[str] | None = None,
) -> JobPlan:
    """Measured-vs-baseline jobs of ``config`` over the workload suite."""
    if names is None:
        names = workload_names()
    jobs: JobPlan = {}
    for name in names:
        jobs[(tag, name, "measured")] = workload_job(config, name, size, seed)
        jobs[(tag, name, "reference")] = workload_job(
            config.variant(scheme="baseline"), name, size, seed
        )
    return jobs


def _suite_saving(
    results: dict[tuple, ExecResult], tag: object, names: list[str]
) -> tuple[float, dict[str, float]]:
    """(average, per-workload) fractional saving for one sweep point."""
    per: dict[str, float] = {}
    for name in names:
        measured = results[(tag, name, "measured")].stats
        reference = results[(tag, name, "reference")].stats
        per[name] = measured.savings_vs(reference)
    return sum(per.values()) / len(per), per


# --------------------------------------------------------------------- #
# T1: the per-bit energy table
# --------------------------------------------------------------------- #
def experiment_t1(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Table I: CNFET SRAM read/write energy per bit value."""
    cell = Sram6TCell()
    derived = BitEnergyModel.from_cell(cell)
    pinned = BitEnergyModel.paper_table1()
    rows = [
        ["read '0'", derived.e_rd0, pinned.e_rd0],
        ["read '1'", derived.e_rd1, pinned.e_rd1],
        ["write '0'", derived.e_wr0, pinned.e_wr0],
        ["write '1'", derived.e_wr1, pinned.e_wr1],
        ["write asymmetry (x)", derived.write_asymmetry, pinned.write_asymmetry],
        [
            "delta balance",
            derived.delta_read / derived.delta_write,
            pinned.delta_read / pinned.delta_write,
        ],
    ]
    return ExperimentResult(
        id="t1",
        title="CNFET SRAM per-bit access energy (fJ)",
        headers=["operation", "cell model", "pinned Table I"],
        rows=rows,
        notes=[
            "paper (abstract): writing '1' is 'almost 10X' writing '0'",
            "paper (Sec. III): E_rd0-E_rd1 'quite close' to E_wr1-E_wr0",
        ],
        data={"derived": derived, "pinned": pinned},
    )


# --------------------------------------------------------------------- #
# T2: simulated cache configuration
# --------------------------------------------------------------------- #
def experiment_t2(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Table II: the simulated D-Cache configuration."""
    config = CNTCacheConfig()
    rows = [
        ["capacity", f"{config.size // 1024} KiB"],
        ["associativity", f"{config.assoc}-way"],
        ["line size", f"{config.line_size} B"],
        ["sets", config.n_sets],
        ["replacement", config.replacement.upper()],
        ["write policy", "write-back, write-allocate"],
        ["prediction window W", config.window],
        ["partitions K", config.partitions],
        ["hysteresis dT", config.delta_t],
        ["update FIFO depth", config.fifo_depth],
        ["H&D bits per line", config.metadata_bits_per_line],
        ["storage overhead", f"{100 * config.storage_overhead:.2f}%"],
        ["Vdd", "0.9 V"],
    ]
    return ExperimentResult(
        id="t2",
        title="Simulated CNT-Cache configuration",
        headers=["parameter", "value"],
        rows=rows,
        data={"config": config},
    )


# --------------------------------------------------------------------- #
# T4: access-timing breakdown (the paper's "negligible" encoder claim)
# --------------------------------------------------------------------- #
def experiment_t4(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Table IV: access latency breakdown and encoder timing overhead."""
    from repro.cnfet.timing import SramTimingModel

    model = SramTimingModel()
    plain = model.access(encoded=False)
    encoded = model.access(encoded=True)
    rows = [
        ["row decoder", plain.decoder_ps, encoded.decoder_ps],
        ["wordline", plain.wordline_ps, encoded.wordline_ps],
        ["bitline discharge", plain.bitline_ps, encoded.bitline_ps],
        ["sense/output", plain.sense_ps, encoded.sense_ps],
        ["encoder (inv+mux)", plain.encoder_ps, encoded.encoder_ps],
        ["total", plain.total_ps, encoded.total_ps],
    ]
    overhead = encoded.encoder_overhead
    return ExperimentResult(
        id="t4",
        title="Access latency breakdown (ps): plain vs encoded datapath",
        headers=["stage", "baseline", "CNT-Cache"],
        rows=rows,
        notes=[
            f"encoder adds {100 * overhead:.1f}% latency - the paper calls "
            "the inverter+mux structure's influence 'negligible'",
        ],
        data={"plain": plain, "encoded": encoded, "overhead": overhead},
    )


# --------------------------------------------------------------------- #
# T5: workload characterisation (the standard evaluation-setup table)
# --------------------------------------------------------------------- #
@_memoised
def _plan_t5(size: str, seed: int) -> JobPlan:
    config = CNTCacheConfig(scheme="baseline")
    jobs: JobPlan = {}
    for name in workload_names():
        jobs[("trace", name)] = trace_job(name, size, seed)
        jobs[("hit", name)] = workload_job(config, name, size, seed)
    return jobs


def experiment_t5(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Table V: the benchmark suite's trace characteristics."""
    results = _engine(engine).run_map(_plan_t5(size, seed))
    rows = []
    traces: dict[str, dict] = {}
    for name in workload_names():
        trace = results[("trace", name)].values
        traces[name] = trace
        write_ratio = (
            trace["writes"] / trace["accesses"] if trace["accesses"] else 0.0
        )
        ones_density = (
            trace["one_bits"] / trace["total_bits"]
            if trace["total_bits"]
            else 0.0
        )
        rows.append(
            [
                name,
                trace["accesses"],
                write_ratio,
                ones_density,
                trace["footprint_bytes"] // 1024,
                results[("hit", name)].stats.hit_rate,
            ]
        )
    return ExperimentResult(
        id="t5",
        title="Workload characterisation",
        headers=["workload", "accesses", "write ratio", "ones density",
                 "footprint KiB", "L1 hit rate"],
        rows=rows,
        floatfmt=".3f",
        data={"traces": traces},
    )


# --------------------------------------------------------------------- #
# F3: the main result
# --------------------------------------------------------------------- #
@_memoised
def _plan_f3(size: str, seed: int) -> JobPlan:
    base_config = CNTCacheConfig()
    return {
        (name, scheme): workload_job(
            base_config.variant(scheme=scheme), name, size, seed
        )
        for name in workload_names()
        for scheme in MAIN_SCHEMES
    }


def experiment_f3(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Per-benchmark dynamic-energy saving vs the baseline CNFET cache."""
    results = _engine(engine).run_map(_plan_f3(size, seed))
    names = workload_names()
    rows = []
    averages = {scheme: 0.0 for scheme in MAIN_SCHEMES if scheme != "baseline"}
    per_scheme: dict[str, dict[str, float]] = {s: {} for s in averages}
    for name in names:
        base = results[(name, "baseline")].stats
        row: list = [name]
        for scheme in MAIN_SCHEMES:
            if scheme == "baseline":
                continue
            stats = results[(name, scheme)].stats
            saving = stats.savings_vs(base)
            per_scheme[scheme][name] = saving
            averages[scheme] += saving
            row.append(100 * saving)
        rows.append(row)
    count = len(names)
    rows.append(
        ["AVERAGE"] + [100 * averages[s] / count for s in per_scheme]
    )
    cnt_avg = averages["cnt"] / count
    chart = bar_chart(
        {name: 100 * saving for name, saving in per_scheme["cnt"].items()},
        width=36,
        unit="%",
        title="cnt saving per workload:",
    )
    return ExperimentResult(
        id="f3",
        title="Dynamic energy saving vs baseline CNFET cache (%)",
        headers=["workload"] + [s for s in MAIN_SCHEMES if s != "baseline"],
        rows=rows,
        notes=[
            f"paper reports 22.2% average for the full CNT-Cache; "
            f"measured cnt average = {100 * cnt_avg:.1f}%",
        ],
        data={"per_scheme": per_scheme, "cnt_average": cnt_avg},
        chart=chart,
    )


# --------------------------------------------------------------------- #
# F4: window sweep
# --------------------------------------------------------------------- #
_F4_WINDOWS = (4, 8, 16, 32, 64)


@_memoised
def _plan_f4(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for window in _F4_WINDOWS:
        jobs.update(_suite_plan(CNTCacheConfig(window=window), size, seed, window))
    return jobs


def experiment_f4(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Average saving vs prediction window W (history overhead included)."""
    results = _engine(engine).run_map(_plan_f4(size, seed))
    names = workload_names()
    rows = []
    series: dict[int, float] = {}
    for window in _F4_WINDOWS:
        average, _ = _suite_saving(results, window, names)
        series[window] = average
        rows.append(
            [window, history_bits(window), 100 * average]
        )
    best = max(series, key=series.get)
    return ExperimentResult(
        id="f4",
        title="Saving vs prediction window W (cnt scheme)",
        headers=["W", "history bits/line", "avg saving %"],
        rows=rows,
        notes=[f"best window on this suite: W={best}"],
        data={"series": series},
        chart=column_chart(
            {window: 100 * saving for window, saving in series.items()},
            height=8,
            y_unit="%",
        ),
    )


# --------------------------------------------------------------------- #
# F5: partition sweep
# --------------------------------------------------------------------- #
_F5_PARTITIONS = (1, 2, 4, 8, 16, 32)
_F5_MIXED = ("records", "fft", "pointer_chase", "stringsearch", "spmv",
             "matmul")


@_memoised
def _plan_f5(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for partitions in _F5_PARTITIONS:
        jobs.update(
            _suite_plan(CNTCacheConfig(partitions=partitions), size, seed,
                        partitions)
        )
    return jobs


def experiment_f5(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Average saving vs partition count K (direction overhead included)."""
    results = _engine(engine).run_map(_plan_f5(size, seed))
    names = workload_names()
    mixed = [name for name in names if name in _F5_MIXED]
    rows = []
    series_all: dict[int, float] = {}
    series_mixed: dict[int, float] = {}
    for partitions in _F5_PARTITIONS:
        series_all[partitions], _ = _suite_saving(results, partitions, names)
        series_mixed[partitions], _ = _suite_saving(results, partitions, mixed)
        rows.append(
            [
                partitions,
                partitions,  # direction bits per line
                100 * series_all[partitions],
                100 * series_mixed[partitions],
            ]
        )
    return ExperimentResult(
        id="f5",
        title="Saving vs partition count K (cnt scheme)",
        headers=["K", "dir bits/line", "avg saving % (all)",
                 "avg saving % (mixed-content)"],
        rows=rows,
        notes=[
            "K>1 pays off on lines whose partitions disagree (records, fft);"
            " homogeneous lines see only the extra direction-bit traffic",
        ],
        data={"all": series_all, "mixed": series_mixed},
        chart=column_chart(
            {k: 100 * saving for k, saving in series_mixed.items()},
            height=8,
            y_unit="%",
            title="mixed-content workloads:",
        ),
    )


# --------------------------------------------------------------------- #
# F6: hysteresis sweep
# --------------------------------------------------------------------- #
_F6_DELTAS = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5)


@_memoised
def _plan_f6(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for delta_t in _F6_DELTAS:
        jobs.update(
            _suite_plan(CNTCacheConfig(delta_t=delta_t), size, seed, delta_t)
        )
    return jobs


def experiment_f6(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Average saving and switch count vs the hysteresis margin dT."""
    results = _engine(engine).run_map(_plan_f6(size, seed))
    names = workload_names()
    rows = []
    series: dict[float, float] = {}
    for delta_t in _F6_DELTAS:
        average, _ = _suite_saving(results, delta_t, names)
        switches = sum(
            results[(delta_t, name, "measured")].stats.direction_switches
            for name in names
        )
        series[delta_t] = average
        rows.append([delta_t, 100 * average, switches])
    return ExperimentResult(
        id="f6",
        title="Saving vs encoding-switch hysteresis dT (cnt scheme)",
        headers=["dT", "avg saving %", "total switches"],
        rows=rows,
        notes=[
            "the paper's draft text: 'the new pattern becomes the stable "
            "optimization pattern only when E_orig - E_new > dT x E_orig'",
        ],
        data={"series": series},
        floatfmt=".3f",
    )


# --------------------------------------------------------------------- #
# F7: energy breakdown
# --------------------------------------------------------------------- #
@_memoised
def _plan_f7(size: str, seed: int) -> JobPlan:
    return {
        (scheme, name): workload_job(
            CNTCacheConfig(scheme=scheme), name, size, seed
        )
        for scheme in MAIN_SCHEMES
        for name in workload_names()
    }


def experiment_f7(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Suite-aggregate energy breakdown per scheme."""
    from repro.core.stats import ENERGY_COMPONENTS, EnergyStats

    results = _engine(engine).run_map(_plan_f7(size, seed))
    names = workload_names()
    rows = []
    totals: dict[str, EnergyStats] = {}
    for scheme in MAIN_SCHEMES:
        aggregate = EnergyStats()
        for name in names:
            aggregate = aggregate + results[(scheme, name)].stats
        totals[scheme] = aggregate
        rows.append(
            [scheme]
            + [getattr(aggregate, c) / 1e6 for c in ENERGY_COMPONENTS]
            + [aggregate.total_fj / 1e6]
        )
    return ExperimentResult(
        id="f7",
        title="Energy breakdown by component (nJ, suite aggregate)",
        headers=["scheme"]
        + [c.removesuffix("_fj") for c in ENERGY_COMPONENTS]
        + ["total"],
        rows=rows,
        data={"totals": totals},
        floatfmt=".1f",
    )


# --------------------------------------------------------------------- #
# F8: oracle gap
# --------------------------------------------------------------------- #
@_memoised
def _plan_f8(size: str, seed: int) -> JobPlan:
    config = CNTCacheConfig()
    jobs: JobPlan = {}
    for name in workload_names():
        jobs[(name, "baseline")] = workload_job(
            config.variant(scheme="baseline"), name, size, seed
        )
        jobs[(name, "cnt")] = workload_job(config, name, size, seed)
        jobs[(name, "oracle")] = oracle_job(config, name, size, seed)
    return jobs


def experiment_f8(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """CNT-Cache vs the posteriori oracle encoder."""
    results = _engine(engine).run_map(_plan_f8(size, seed))
    names = workload_names()
    rows = []
    capture: dict[str, float] = {}
    for name in names:
        base = results[(name, "baseline")].stats
        cnt = results[(name, "cnt")].stats
        oracle_fj = results[(name, "oracle")].values["oracle_fj"]
        cnt_saving = cnt.savings_vs(base)
        oracle_saving = 1.0 - oracle_fj / base.total_fj
        captured = cnt_saving / oracle_saving if oracle_saving > 0 else 0.0
        capture[name] = captured
        rows.append(
            [name, 100 * cnt_saving, 100 * oracle_saving, 100 * captured]
        )
    rows.append(
        [
            "AVERAGE",
            sum(row[1] for row in rows) / len(names),
            sum(row[2] for row in rows) / len(names),
            100 * sum(capture.values()) / len(names),
        ]
    )
    return ExperimentResult(
        id="f8",
        title="CNT-Cache vs posteriori oracle encoder",
        headers=["workload", "cnt saving %", "oracle saving %", "captured %"],
        rows=rows,
        data={"capture": capture},
    )


# --------------------------------------------------------------------- #
# T3: storage overhead
# --------------------------------------------------------------------- #
def experiment_t3(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """H&D storage overhead as a function of W and K."""
    rows = []
    for window in (4, 8, 16, 32, 64):
        for partitions in (1, 8, 16):
            config = CNTCacheConfig(window=window, partitions=partitions)
            rows.append(
                [
                    window,
                    partitions,
                    config.history_bits_per_line,
                    config.direction_bits_per_line,
                    config.metadata_bits_per_line,
                    100 * config.storage_overhead,
                ]
            )
    return ExperimentResult(
        id="t3",
        title="H&D metadata overhead per 512-bit line",
        headers=["W", "K", "H bits", "D bits", "total", "overhead %"],
        rows=rows,
    )


# --------------------------------------------------------------------- #
# F9: supply-voltage sweep, CNFET vs CMOS
# --------------------------------------------------------------------- #
_F9_VDDS = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2)


def _f9_configs(vdd: float) -> dict[str, CNTCacheConfig]:
    cnfet_model = scale_to_vdd(BitEnergyModel.paper_table1(), vdd)
    cmos_model = cmos_reference_model(vdd)
    scale = (vdd / 0.9) ** 2
    return {
        "cmos": CNTCacheConfig(
            scheme="baseline", energy=cmos_model,
            peripheral_fj_per_access=2200.0 * scale,
        ),
        "cnfet": CNTCacheConfig(
            scheme="baseline", energy=cnfet_model,
            peripheral_fj_per_access=1000.0 * scale,
        ),
        "cnt": CNTCacheConfig(
            energy=cnfet_model, peripheral_fj_per_access=1000.0 * scale
        ),
    }


@_memoised
def _plan_f9(size: str, seed: int) -> JobPlan:
    return {
        (vdd, label): workload_job(config, "records", size, seed)
        for vdd in _F9_VDDS
        for label, config in _f9_configs(vdd).items()
    }


def experiment_f9(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Energy per access vs Vdd: CMOS baseline vs CNFET baseline vs CNT-Cache."""
    results = _engine(engine).run_map(_plan_f9(size, seed))
    rows = []
    series: dict[float, tuple[float, float, float]] = {}
    for vdd in _F9_VDDS:
        cmos = results[(vdd, "cmos")].stats.energy_per_access_fj
        cnfet_base = results[(vdd, "cnfet")].stats.energy_per_access_fj
        cnt = results[(vdd, "cnt")].stats.energy_per_access_fj
        series[vdd] = (cmos, cnfet_base, cnt)
        rows.append([f"{vdd:.1f}", cmos, cnfet_base, cnt])
    return ExperimentResult(
        id="f9",
        title="Energy per access vs Vdd (fJ, records workload)",
        headers=["Vdd", "CMOS baseline", "CNFET baseline", "CNT-Cache"],
        rows=rows,
        notes=["CMOS peripheral is pitched 2.2x the CNFET peripheral"],
        data={"series": series},
        floatfmt=".0f",
    )


# --------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------- #
_A1_PERIPHERALS = (0.0, 500.0, 1000.0, 2000.0, 4000.0)


@_memoised
def _plan_a1(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for peripheral in _A1_PERIPHERALS:
        config = CNTCacheConfig(peripheral_fj_per_access=peripheral)
        jobs.update(_suite_plan(config, size, seed, peripheral))
    return jobs


def experiment_a1(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Ablation: sensitivity of the average saving to the peripheral constant."""
    results = _engine(engine).run_map(_plan_a1(size, seed))
    names = workload_names()
    rows = []
    series: dict[float, float] = {}
    for peripheral in _A1_PERIPHERALS:
        average, _ = _suite_saving(results, peripheral, names)
        series[peripheral] = average
        rows.append([peripheral, 100 * average])
    return ExperimentResult(
        id="a1",
        title="Ablation: average saving vs peripheral energy constant",
        headers=["peripheral fJ/access", "avg saving %"],
        rows=rows,
        notes=["1000 fJ is the pinned calibration (EXPERIMENTS.md)"],
        data={"series": series},
    )


_A2_FILL_POLICIES = ("neutral", "read-greedy", "write-greedy")


@_memoised
def _plan_a2(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for fill_policy in _A2_FILL_POLICIES:
        config = CNTCacheConfig(fill_policy=fill_policy)
        jobs.update(_suite_plan(config, size, seed, fill_policy))
    return jobs


def experiment_a2(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Ablation: fill-policy choice for the adaptive scheme."""
    results = _engine(engine).run_map(_plan_a2(size, seed))
    names = workload_names()
    rows = []
    for fill_policy in _A2_FILL_POLICIES:
        average, _ = _suite_saving(results, fill_policy, names)
        rows.append([fill_policy, 100 * average])
    return ExperimentResult(
        id="a2",
        title="Ablation: adaptive-scheme fill policy",
        headers=["fill policy", "avg saving %"],
        rows=rows,
    )


_A3_GRANULARITIES = ("line", "word")


@_memoised
def _plan_a3(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for granularity in _A3_GRANULARITIES:
        config = CNTCacheConfig(access_granularity=granularity)
        jobs.update(_suite_plan(config, size, seed, granularity))
    return jobs


def experiment_a3(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Ablation: access granularity (row activation vs divided wordline)."""
    results = _engine(engine).run_map(_plan_a3(size, seed))
    names = workload_names()
    rows = []
    for granularity in _A3_GRANULARITIES:
        average, _ = _suite_saving(results, granularity, names)
        rows.append([granularity, 100 * average])
    return ExperimentResult(
        id="a3",
        title="Ablation: array access granularity",
        headers=["granularity", "avg saving %"],
        rows=rows,
        notes=[
            "'line' matches the paper's Eq. 4/5 (full-row activation); "
            "'word' models a divided-wordline array where per-line "
            "metadata traffic dominates",
        ],
    )


_A4_FIFOS = ((1, 1), (4, 1), (8, 1), (8, 2), (32, 1))


@_memoised
def _plan_a4(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for depth, drain in _A4_FIFOS:
        config = CNTCacheConfig(fifo_depth=depth, drain_per_access=drain)
        jobs.update(_suite_plan(config, size, seed, (depth, drain)))
    return jobs


def experiment_a4(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Ablation: update-FIFO depth and drain rate."""
    results = _engine(engine).run_map(_plan_a4(size, seed))
    names = workload_names()
    rows = []
    for depth, drain in _A4_FIFOS:
        average, _ = _suite_saving(results, (depth, drain), names)
        forced = sum(
            results[((depth, drain), name, "measured")].stats.forced_drains
            for name in names
        )
        rows.append([depth, drain, 100 * average, forced])
    return ExperimentResult(
        id="a4",
        title="Ablation: deferred-update FIFO sizing",
        headers=["depth", "drain/access", "avg saving %", "forced drains"],
        rows=rows,
    )


@_memoised
def _plan_a5(size: str, seed: int) -> JobPlan:
    config = CNTCacheConfig()
    return {
        (name,): audit_job(config, name, size, seed)
        for name in workload_names()
    }


def experiment_a5(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Analysis: hindsight accuracy of Algorithm 1's window decisions."""
    results = _engine(engine).run_map(_plan_a5(size, seed))
    rows = []
    accuracies: dict[str, float] = {}
    for name in workload_names():
        audit = results[(name,)].values
        decisions = audit["decisions"]
        accuracy = audit["correct"] / decisions if decisions else 0.0
        accuracies[name] = accuracy
        rows.append(
            [
                name,
                decisions,
                100 * accuracy,
                audit["switched_correct"] + audit["switched_wrong"],
                audit["switched_wrong"],
            ]
        )
    rows.sort(key=lambda row: row[2], reverse=True)
    scored = [row for row in rows if row[1] > 0]
    if scored:
        rows.append(
            [
                "AVERAGE",
                sum(row[1] for row in scored) // len(scored),
                sum(row[2] for row in scored) / len(scored),
                sum(row[3] for row in scored) // len(scored),
                sum(row[4] for row in scored) // len(scored),
            ]
        )
    return ExperimentResult(
        id="a5",
        title="Hindsight accuracy of the encoding-direction predictor",
        headers=["workload", "decisions", "accuracy %", "switches",
                 "wrong switches"],
        rows=rows,
        notes=[
            "accuracy = fraction of per-partition decisions a one-window "
            "lookahead oracle confirms",
        ],
        data={"accuracy": accuracies},
    )


_F10_CAPACITIES = (4, 8, 16, 32, 64)


@_memoised
def _plan_f10(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for capacity_kib in _F10_CAPACITIES:
        config = CNTCacheConfig(size=capacity_kib * 1024)
        jobs.update(_suite_plan(config, size, seed, capacity_kib))
    return jobs


def experiment_f10(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Saving vs cache capacity (hit-rate regime sweep)."""
    results = _engine(engine).run_map(_plan_f10(size, seed))
    names = workload_names()
    rows = []
    series: dict[int, float] = {}
    for capacity_kib in _F10_CAPACITIES:
        average, _ = _suite_saving(results, capacity_kib, names)
        hit_rate_total = 0.0
        for name in names:
            hit_rate_total += results[
                (capacity_kib, name, "measured")
            ].stats.hit_rate
        series[capacity_kib] = average
        rows.append(
            [capacity_kib, hit_rate_total / len(names), 100 * average]
        )
    return ExperimentResult(
        id="f10",
        title="Saving vs cache capacity (cnt scheme)",
        headers=["KiB", "avg hit rate", "avg saving %"],
        rows=rows,
        notes=[
            "smaller caches shift energy from demand accesses toward "
            "fills/writebacks, where the encoder has less history to act on",
        ],
        data={"series": series},
    )


@_memoised
def _plan_f11(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for name in workload_names():
        for scheme in ("baseline", "cnt"):
            jobs[(name, scheme)] = l2_job(
                default_l2_config(scheme), name, size, seed
            )
    return jobs


def experiment_f11(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Extension: CNT-Cache as an L2 behind a conventional 8 KiB L1."""
    results = _engine(engine).run_map(_plan_f11(size, seed))
    rows = []
    savings: dict[str, float] = {}
    for name in workload_names():
        base = results[(name, "baseline")]
        cnt = results[(name, "cnt")]
        stream_accesses = base.values["stream_accesses"]
        if not stream_accesses:
            continue
        saving = cnt.stats.savings_vs(base.stats)
        savings[name] = saving
        rows.append(
            [
                name,
                stream_accesses,
                base.values["stream_writes"] / stream_accesses,
                100 * saving,
            ]
        )
    rows.append(
        [
            "AVERAGE",
            sum(row[1] for row in rows) // len(rows),
            sum(row[2] for row in rows) / len(rows),
            100 * sum(savings.values()) / len(savings),
        ]
    )
    return ExperimentResult(
        id="f11",
        title="Extension: CNT-Cache at L2 (stream = L1 refills + writebacks)",
        headers=["workload", "L2 accesses", "write ratio", "cnt saving %"],
        rows=rows,
        notes=[
            "L1: 8 KiB 2-way unencoded; L2: 256 KiB 8-way, paper parameters",
        ],
        data={"savings": savings},
    )


_A6_SCHEMES = ("invert", "cnt", "cnt-quant", "cnt-shared")


@_memoised
def _plan_a6(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for scheme in _A6_SCHEMES:
        jobs.update(_suite_plan(CNTCacheConfig(scheme=scheme), size, seed, scheme))
    return jobs


def experiment_a6(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Extension: 2-bit quantised write-intensity counter vs exact Wr_num."""
    results = _engine(engine).run_map(_plan_a6(size, seed))
    names = workload_names()
    rows = []
    savings: dict[str, float] = {}
    for scheme in _A6_SCHEMES:
        config = CNTCacheConfig(scheme=scheme)
        average, _ = _suite_saving(results, scheme, names)
        savings[scheme] = average
        rows.append(
            [
                scheme,
                config.history_bits_per_line,
                config.metadata_bits_per_line,
                100 * average,
            ]
        )
    return ExperimentResult(
        id="a6",
        title="Extension: cheaper history hardware for the predictor",
        headers=["scheme", "H bits/line", "H&D bits/line", "avg saving %"],
        rows=rows,
        notes=[
            "cnt-quant keeps A_num exact but quantises Wr_num to 4 levels "
            "before indexing the Eq. 6 table",
            "cnt-shared keeps one full counter pair per set (per-line "
            "share amortised across the ways) at the cost of aliasing",
        ],
        data={"savings": savings},
    )


_A7_WRITE_POLICIES = ("wb-wa", "wt-wa", "wt-nwa", "wb-nwa")


@_memoised
def _plan_a7(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for write_policy in _A7_WRITE_POLICIES:
        config = CNTCacheConfig(write_policy=write_policy)
        jobs.update(_suite_plan(config, size, seed, write_policy))
    return jobs


def experiment_a7(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Ablation: write policy (write-back/-through, allocate/bypass)."""
    results = _engine(engine).run_map(_plan_a7(size, seed))
    names = workload_names()
    rows = []
    savings: dict[str, float] = {}
    for write_policy in _A7_WRITE_POLICIES:
        average, _ = _suite_saving(results, write_policy, names)
        savings[write_policy] = average
        rows.append([write_policy, 100 * average])
    return ExperimentResult(
        id="a7",
        title="Ablation: write policy (cnt vs matching baseline)",
        headers=["write policy", "avg saving %"],
        rows=rows,
        notes=[
            "each policy's saving is measured against a baseline cache "
            "using the same policy, isolating the encoding effect",
        ],
        data={"savings": savings},
    )


@_memoised
def _plan_a8(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for run_seed in range(seed, seed + 5):
        jobs.update(_suite_plan(CNTCacheConfig(), size, run_seed, run_seed))
    return jobs


def experiment_a8(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Stability: the headline average across independent workload seeds."""
    import statistics

    results = _engine(engine).run_map(_plan_a8(size, seed))
    names = workload_names()
    averages = []
    rows = []
    for run_seed in range(seed, seed + 5):
        average, _ = _suite_saving(results, run_seed, names)
        averages.append(average)
        rows.append([run_seed, 100 * average])
    rows.append(["MEAN", 100 * statistics.mean(averages)])
    rows.append(["STDEV", 100 * statistics.stdev(averages)])
    return ExperimentResult(
        id="a8",
        title="Stability: cnt average saving across workload seeds",
        headers=["seed", "avg saving %"],
        rows=rows,
        data={"averages": averages},
    )


def _a9_models() -> list[tuple[str, object]]:
    from repro.cnfet.leakage import LeakageModel

    return [
        ("none (paper)", None),
        ("CNFET", LeakageModel.cnfet()),
        ("CMOS-class", LeakageModel.cmos()),
    ]


@_memoised
def _plan_a9(size: str, seed: int) -> JobPlan:
    jobs: JobPlan = {}
    for label, leakage in _a9_models():
        config = CNTCacheConfig(leakage=leakage)
        jobs.update(_suite_plan(config, size, seed, label))
    return jobs


def experiment_a9(
    size: str = "small", seed: int = 7, engine: ExecEngine | None = None
) -> ExperimentResult:
    """Extension: state-dependent leakage vs the dynamic-only metric."""
    results = _engine(engine).run_map(_plan_a9(size, seed))
    names = workload_names()
    rows = []
    data: dict[str, dict[str, float]] = {}
    for label, _leakage in _a9_models():
        average, _ = _suite_saving(results, label, names)
        suite = [results[(label, name, "measured")].stats for name in names]
        leak_total = math.fsum(stats.leakage_fj for stats in suite)
        grand_total = math.fsum(stats.total_fj for stats in suite)
        static_share = leak_total / grand_total if grand_total else 0.0
        data[label] = {"saving": average, "static_share": static_share}
        rows.append([label, 100 * static_share, 100 * average])
    return ExperimentResult(
        id="a9",
        title="Extension: state-dependent leakage accounting",
        headers=["leakage model", "static share %", "avg saving %"],
        rows=rows,
        notes=[
            "storing 1s leaks ~30% more per cell; at CNFET leakage levels "
            "the interaction with encoding is negligible, vindicating the "
            "paper's dynamic-only metric",
        ],
        data=data,
    )


#: The experiment registry.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "t1": experiment_t1,
    "t2": experiment_t2,
    "t3": experiment_t3,
    "t4": experiment_t4,
    "t5": experiment_t5,
    "f3": experiment_f3,
    "f4": experiment_f4,
    "f5": experiment_f5,
    "f6": experiment_f6,
    "f7": experiment_f7,
    "f8": experiment_f8,
    "f9": experiment_f9,
    "a1": experiment_a1,
    "a2": experiment_a2,
    "a3": experiment_a3,
    "a4": experiment_a4,
    "a5": experiment_a5,
    "f10": experiment_f10,
    "f11": experiment_f11,
    "a6": experiment_a6,
    "a7": experiment_a7,
    "a8": experiment_a8,
    "a9": experiment_a9,
}

#: Per-experiment job declarations (experiments without simulations are
#: absent).  ``cntcache all`` unions these, dedupes via the planner and
#: executes the whole evaluation's unique job set up front.
EXPERIMENT_PLANS: dict[str, Callable[[str, int], JobPlan]] = {
    "t5": _plan_t5,
    "f3": _plan_f3,
    "f4": _plan_f4,
    "f5": _plan_f5,
    "f6": _plan_f6,
    "f7": _plan_f7,
    "f8": _plan_f8,
    "f9": _plan_f9,
    "a1": _plan_a1,
    "a2": _plan_a2,
    "a3": _plan_a3,
    "a4": _plan_a4,
    "a5": _plan_a5,
    "f10": _plan_f10,
    "f11": _plan_f11,
    "a6": _plan_a6,
    "a7": _plan_a7,
    "a8": _plan_a8,
    "a9": _plan_a9,
}


def plan_experiment(
    experiment_id: str, size: str = "small", seed: int = 7
) -> list[SimJob]:
    """The jobs one experiment would need (empty for pure-model tables).

    A new list each call, over jobs built once per process per ``(size,
    seed, workload_names())``.
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    plan = EXPERIMENT_PLANS.get(experiment_id)
    return [] if plan is None else list(plan(size, seed).values())


def run_experiment(
    experiment_id: str,
    size: str = "small",
    seed: int = 7,
    engine: ExecEngine | None = None,
    obs=None,
) -> ExperimentResult:
    """Run one experiment by id (sharing ``engine``'s memo/cache if given).

    ``engine``/``obs`` follow the harness-wide convention documented in
    :mod:`repro.harness.runner`; with an ``obs`` session, the experiment's
    job resolutions land in its manifest.
    """
    try:
        function = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    if obs is None:
        return function(size=size, seed=seed, engine=engine)
    with _engine(engine).observing(obs) as attached:
        return function(size=size, seed=seed, engine=attached)
