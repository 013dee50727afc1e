"""``cntcache bench``: the fidelity gate.

``benchmarks/trajectory/BENCH_0001.json`` is the one copy of every
fidelity pin the reproduction stands on:

* three floats, compared at a relative 1e-6: the Table I write
  asymmetry (~9.94x), the Eq. 3 read/write delta balance (~1.0007) and
  the F3 average cnt saving at the record's size and seed (18.05% at
  ``tiny``, against the paper's 22.2%);
* eight digests, compared exactly: every ``EnergyStats`` field (floats
  by ``float.hex``) of one ``qsort`` run under each of
  :data:`PINNED_CONFIGS`.  The averages are ratios and move by less
  than 1e-6 of themselves when one Table I entry moves by 1e-6; the
  digests move for any such drift, and for any change to an addition
  order.

:func:`load_pins` is the record's one reader; tier-1
(``tests/test_fidelity_pins.py``) and ``cntcache bench`` both use it.
:func:`compare` judges a measurement against the pins, plus the hard
array/scalar replay speedup floor of :data:`SPEEDUP_FLOOR`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import records
from repro.cnfet.leakage import LeakageModel
from repro.core.config import CNTCacheConfig
from repro.obs import probe
from repro.schemas import BENCH

if TYPE_CHECKING:
    from repro.core.stats import EnergyStats

#: Record format tag; bump the version in :mod:`repro.schemas` when
#: record fields change incompatibly.
BENCH_SCHEMA = BENCH.tag

#: The committed pin record, relative to the repository root.
RECORD = Path("benchmarks/trajectory/BENCH_0001.json")

#: Relative tolerance of every fidelity float.
REL = 1e-6

#: Hard floor of the array/scalar replay throughput ratio.
SPEEDUP_FLOOR = 5.0

#: The fidelity floats, by record key.
FIDELITY = (
    "fidelity.cnt_average_saving",
    "fidelity.delta_balance",
    "fidelity.write_asymmetry",
)

#: The program whose ``EnergyStats`` are digested.
DIGEST_WORKLOAD = "qsort"

#: The digested configs, by record key.  Beyond ``baseline`` and
#: ``cnt`` they reach the other paths of the pricing fold: DBI
#: re-votes, shared and quantised history counters, leakage tracking,
#: word-granularity accounting and a no-write-allocate write-through
#: cache.
PINNED_CONFIGS: dict[str, CNTCacheConfig] = {
    "baseline": CNTCacheConfig(scheme="baseline"),
    "cnt": CNTCacheConfig(scheme="cnt"),
    "dbi": CNTCacheConfig(scheme="dbi"),
    "cnt-shared": CNTCacheConfig(scheme="cnt-shared"),
    "cnt-quant": CNTCacheConfig(scheme="cnt-quant"),
    "cnt-leakage": CNTCacheConfig(scheme="cnt", leakage=LeakageModel.cnfet()),
    "cnt-word": CNTCacheConfig(scheme="cnt", access_granularity="word"),
    "cnt-wt-nwa": CNTCacheConfig(scheme="cnt", write_policy="wt-nwa"),
}


class BenchError(ValueError):
    """Raised when the pin record is missing or malformed."""


@dataclass(frozen=True)
class Pins:
    """The pinned values, or a measurement of them.

    ``fidelity`` maps each :data:`FIDELITY` key to its float and
    ``digests`` each :data:`PINNED_CONFIGS` key to its stats digest;
    both are measured at ``size`` and ``seed``.
    """

    size: str
    seed: int
    fidelity: dict[str, float]
    digests: dict[str, str]


def _parse(payload: dict[str, Any]) -> Pins:
    fidelity = payload.get("metrics")
    digests = payload.get("digests")
    if not isinstance(fidelity, dict) or sorted(fidelity) != sorted(FIDELITY):
        raise BenchError(f"metrics must hold exactly {', '.join(FIDELITY)}")
    if not all(type(value) is float for value in fidelity.values()):
        raise BenchError("fidelity pins must be floats")
    if not isinstance(digests, dict) or sorted(digests) != sorted(PINNED_CONFIGS):
        raise BenchError(f"digests must hold exactly {', '.join(PINNED_CONFIGS)}")
    if not all(isinstance(value, str) for value in digests.values()):
        raise BenchError("digest pins must be strings")
    size, seed = payload.get("size"), payload.get("seed")
    if not isinstance(size, str) or type(seed) is not int:
        raise BenchError("size must be a string and seed an int")
    return Pins(size=size, seed=seed, fidelity=fidelity, digests=digests)


def load_pins(path: str | Path = RECORD) -> Pins:
    """The pins at ``path``.

    Raises :class:`BenchError` when the record is missing, and when it
    is bad (truncated, foreign, not an object, wrongly shaped) after
    counting the skip under ``bench.skipped_records``.
    """
    payload = records.read_record(Path(path), BENCH_SCHEMA)
    if payload is None:
        raise BenchError(f"no pin record at {path}")
    try:
        if isinstance(payload, records.Skip):
            raise BenchError(payload.reason)
        return _parse(payload)
    except BenchError as error:
        probe.counter("bench.skipped_records")
        raise BenchError(f"unusable pin record {path}: {error}") from None


def stats_digest(stats: "EnergyStats") -> str:
    """Short SHA-256 of every stats field, floats spelled by ``float.hex``."""
    exact = {
        name: value.hex() if isinstance(value, float) else value
        for name, value in stats.to_dict().items()
    }
    payload = json.dumps(exact, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def measure_fidelity(size: str, seed: int) -> dict[str, float]:
    """The three fidelity floats, by :data:`FIDELITY` key."""
    from repro.cnfet.energy import BitEnergyModel
    from repro.cnfet.sram import Sram6TCell
    from repro.harness.experiments import run_experiment

    model = BitEnergyModel.from_cell(Sram6TCell())
    f3 = run_experiment("f3", size=size, seed=seed)
    return {
        "fidelity.cnt_average_saving": float(f3.data["cnt_average"]),
        "fidelity.delta_balance": model.delta_read / model.delta_write,
        "fidelity.write_asymmetry": model.write_asymmetry,
    }


def measure_digests(
    size: str, seed: int, configs: dict[str, CNTCacheConfig] = PINNED_CONFIGS
) -> dict[str, str]:
    """:func:`stats_digest` of a :data:`DIGEST_WORKLOAD` run per config."""
    from repro.api import simulate

    return {
        name: stats_digest(
            simulate(
                workload=DIGEST_WORKLOAD, config=config, size=size, seed=seed
            ).stats
        )
        for name, config in configs.items()
    }


def array_speedup(size: str, seed: int) -> float:
    """Best-of-3 array over scalar replay throughput on ``stream``.

    Best-of-N on both sides: the floor is a hard gate, so neither the
    numerator nor the denominator should ride one unlucky scheduler tick.
    """
    from repro.harness.runner import replay
    from repro.workloads.program import get_workload

    run = get_workload("stream").build(size, seed=seed)

    def best(backend: str) -> float:
        fastest = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            replay(CNTCacheConfig(), run.trace, run.preloads, backend=backend)
            fastest = min(fastest, time.perf_counter() - started)
        return fastest

    return best("scalar") / best("array")


@dataclass(frozen=True)
class Verdict:
    """One pin: the measured and the pinned value, and whether they agree."""

    pin: str
    measured: float | str
    pinned: float | str
    ok: bool

    def describe(self) -> str:
        """One line for the CLI/CI log."""
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.pin:30} {self.measured} (pinned {self.pinned})"


def compare(pins: Pins, measured: Pins, speedup: float) -> list[Verdict]:
    """Judge ``measured`` against ``pins``: one verdict per pin.

    Fidelity floats agree within a relative :data:`REL`, digests only
    when equal, and ``speedup`` must reach :data:`SPEEDUP_FLOOR`.
    """
    verdicts: list[Verdict] = []
    for name, pinned in pins.fidelity.items():
        value = measured.fidelity[name]
        ok = abs(value - pinned) <= REL * abs(pinned)
        verdicts.append(Verdict(name, value, pinned, ok))
    for name, digest in pins.digests.items():
        found = measured.digests[name]
        verdicts.append(Verdict(f"digest.{name}", found, digest, found == digest))
    verdicts.append(
        Verdict(
            "sim.array_speedup",
            round(speedup, 2),
            f">= {SPEEDUP_FLOOR:g}x",
            speedup >= SPEEDUP_FLOOR,
        )
    )
    return verdicts


def check(path: str | Path = RECORD) -> list[Verdict]:
    """Measure every pin of the record at ``path`` and judge it."""
    pins = load_pins(path)
    measured = Pins(
        size=pins.size,
        seed=pins.seed,
        fidelity=measure_fidelity(pins.size, pins.seed),
        digests=measure_digests(pins.size, pins.seed),
    )
    return compare(pins, measured, array_speedup(pins.size, pins.seed))


__all__ = [
    "BENCH_SCHEMA",
    "DIGEST_WORKLOAD",
    "FIDELITY",
    "PINNED_CONFIGS",
    "RECORD",
    "REL",
    "SPEEDUP_FLOOR",
    "BenchError",
    "Pins",
    "Verdict",
    "array_speedup",
    "check",
    "compare",
    "load_pins",
    "measure_digests",
    "measure_fidelity",
    "stats_digest",
]
