"""Paper-fidelity numbers pinned against the committed pin record.

``benchmarks/trajectory/BENCH_0001.json`` is the one copy of every pin
(see :mod:`repro.obs.bench`; ``cntcache bench`` checks the same record).
It holds the three fidelity values the reproduction stands on: the
Table I write asymmetry (~9.94x), the Eq. 3 read/write delta balance
(~1.0007) and the F3 average cnt saving at ``tiny`` (18.05%, against
the paper's 22.2%).  They are deterministic, so any relative drift
beyond numeric noise fails here.

The energies the figures are built from are pinned exactly: the record
holds a digest of every ``EnergyStats`` field (floats by ``float.hex``)
of one program's ``simulate`` run under each of ``PINNED_CONFIGS``.  A
drift of the Table I vector far below the 1e-6 tolerance of the
averages, or a change to any addition order, moves it.
"""

from pathlib import Path

import pytest

from repro.api import simulate
from repro.cnfet.energy import BitEnergyModel
from repro.cnfet.sram import Sram6TCell
from repro.harness.experiments import run_experiment
from repro.obs.bench import DIGEST_WORKLOAD, PINNED_CONFIGS, load_pins, stats_digest

RECORD = Path(__file__).resolve().parents[1] / "benchmarks/trajectory/BENCH_0001.json"

#: Relative tolerance of every fidelity pin.
REL = 1e-6


@pytest.fixture(scope="module")
def pins():
    return load_pins(RECORD)


def pinned(pins, name):
    return pytest.approx(pins.fidelity[f"fidelity.{name}"], rel=REL)


def test_table1_write_asymmetry(pins):
    model = BitEnergyModel.from_cell(Sram6TCell())
    assert model.write_asymmetry == pinned(pins, "write_asymmetry")


def test_eq3_delta_balance(pins):
    model = BitEnergyModel.from_cell(Sram6TCell())
    balance = model.delta_read / model.delta_write
    assert balance == pinned(pins, "delta_balance")


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_simulated_energy_stats_are_bit_pinned(pins, name):
    result = simulate(
        workload=DIGEST_WORKLOAD,
        config=PINNED_CONFIGS[name],
        size=pins.size,
        seed=pins.seed,
    )
    assert stats_digest(result.stats) == pins.digests[name]


def test_f3_cnt_average_saving(pins):
    assert (pins.size, pins.seed) == ("tiny", 7)
    f3 = run_experiment("f3", size=pins.size, seed=pins.seed)
    assert f3.data["cnt_average"] == pinned(pins, "cnt_average_saving")
