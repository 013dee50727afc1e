"""Paper-fidelity numbers pinned at 1e-6 against the committed bench record.

``benchmarks/trajectory/BENCH_0001.json`` holds the three fidelity
values the reproduction stands on: the Table I write asymmetry (~9.94x),
the Eq. 3 read/write delta balance (~1.0007) and the F3 average cnt
saving at ``tiny`` (18.05%, against the paper's 22.2%).  They are
deterministic, so any relative drift beyond numeric noise fails here.

The energies the figures are built from are pinned exactly:
``STATS_DIGESTS`` holds a digest of every ``EnergyStats`` field
(floats by ``float.hex``) of one program's ``simulate`` run under
``baseline`` and ``cnt``, and under configs that reach the other paths
of the pricing fold: DBI re-votes, shared and quantised history
counters, leakage tracking, word-granularity accounting and a
no-write-allocate write-through cache.  A drift of the Table I vector
far below the 1e-6 tolerance of the averages, or a change to any
addition order, moves it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import simulate
from repro.cnfet.energy import BitEnergyModel
from repro.cnfet.leakage import LeakageModel
from repro.cnfet.sram import Sram6TCell
from repro.core.config import CNTCacheConfig
from repro.harness.experiments import run_experiment

RECORD = Path(__file__).resolve().parents[1] / "benchmarks/trajectory/BENCH_0001.json"

#: Relative tolerance of every fidelity pin.
REL = 1e-6


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def pinned(record, name):
    return pytest.approx(record["metrics"][f"fidelity.{name}"], rel=REL)


def test_table1_write_asymmetry(record):
    model = BitEnergyModel.from_cell(Sram6TCell())
    assert model.write_asymmetry == pinned(record, "write_asymmetry")


def test_eq3_delta_balance(record):
    model = BitEnergyModel.from_cell(Sram6TCell())
    balance = model.delta_read / model.delta_write
    assert balance == pinned(record, "delta_balance")


#: The pinned configs, by test id.
PINNED_CONFIGS = {
    "baseline": CNTCacheConfig(scheme="baseline"),
    "cnt": CNTCacheConfig(scheme="cnt"),
    "dbi": CNTCacheConfig(scheme="dbi"),
    "cnt-shared": CNTCacheConfig(scheme="cnt-shared"),
    "cnt-quant": CNTCacheConfig(scheme="cnt-quant"),
    "cnt-leakage": CNTCacheConfig(scheme="cnt", leakage=LeakageModel.cnfet()),
    "cnt-word": CNTCacheConfig(scheme="cnt", access_granularity="word"),
    "cnt-wt-nwa": CNTCacheConfig(scheme="cnt", write_policy="wt-nwa"),
}

#: ``simulate(workload="qsort", size="tiny", seed=7)`` digests, by config.
STATS_DIGESTS = {
    "baseline": "3ed2bea1ca227849",
    "cnt": "aba7c5b5e0129e87",
    "dbi": "6219ae5922b19029",
    "cnt-shared": "dd9799e290ee641d",
    "cnt-quant": "a96062584f7f5fcc",
    "cnt-leakage": "dc7df6937f244ef2",
    "cnt-word": "db3aec491e2da6cc",
    "cnt-wt-nwa": "aab4d767596a2ac3",
}


def stats_digest(stats) -> str:
    """Short SHA-256 of every stats field, floats spelled by ``float.hex``."""
    exact = {
        name: value.hex() if isinstance(value, float) else value
        for name, value in stats.to_dict().items()
    }
    payload = json.dumps(exact, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(STATS_DIGESTS))
def test_simulated_energy_stats_are_bit_pinned(name):
    result = simulate(
        workload="qsort", config=PINNED_CONFIGS[name], size="tiny", seed=7
    )
    assert stats_digest(result.stats) == STATS_DIGESTS[name]


def test_f3_cnt_average_saving(record):
    assert (record["size"], record["seed"]) == ("tiny", 7)
    f3 = run_experiment("f3", size=record["size"], seed=record["seed"])
    assert f3.data["cnt_average"] == pinned(record, "cnt_average_saving")
