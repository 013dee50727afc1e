"""Energy and event accounting for a simulated cache run.

All energies are femtojoules of *dynamic* energy in the L1 data array and
its H&D metadata columns, which is exactly the quantity the paper's 22.2%
claim is about.  The breakdown mirrors the architecture: demand reads,
demand writes, fills, writebacks, metadata traffic, deferred re-encode
writes and the encoder/predictor logic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields


class StatsError(ValueError):
    """Raised on invalid stats operations."""


#: Names of the energy components, in reporting order.
ENERGY_COMPONENTS = (
    "data_read_fj",
    "data_write_fj",
    "fill_fj",
    "writeback_fj",
    "metadata_read_fj",
    "metadata_write_fj",
    "reencode_fj",
    "logic_fj",
    "peripheral_fj",
    "leakage_fj",
)


@dataclass
class EnergyStats:
    """Counters and energy accumulators of one simulation."""

    # events
    accesses: int = 0
    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    windows_completed: int = 0
    direction_switches: int = 0
    partition_flips: int = 0
    pending_dropped: int = 0
    forced_drains: int = 0

    # energy, femtojoules
    data_read_fj: float = 0.0
    data_write_fj: float = 0.0
    fill_fj: float = 0.0
    writeback_fj: float = 0.0
    metadata_read_fj: float = 0.0
    metadata_write_fj: float = 0.0
    reencode_fj: float = 0.0
    logic_fj: float = 0.0
    peripheral_fj: float = 0.0
    leakage_fj: float = 0.0

    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # accumulation (the only sanctioned way in — lint rule R001)
    # ------------------------------------------------------------------ #
    def add(self, component: str, fj: float) -> None:
        """Accumulate ``fj`` femtojoules into a named energy component.

        All simulator code must meter energy through here (enforced by
        lint rule R001): the component name is validated against
        :data:`ENERGY_COMPONENTS` and the increment must be finite and
        non-negative, so a typo'd component or a NaN can never silently
        corrupt the paper's headline metric.
        """
        if component not in ENERGY_COMPONENTS:
            raise StatsError(
                f"unknown energy component {component!r}; "
                f"known: {ENERGY_COMPONENTS}"
            )
        if not math.isfinite(fj) or fj < 0:
            raise StatsError(
                f"energy increment for {component!r} must be finite and "
                f"non-negative, got {fj!r}"
            )
        setattr(self, component, getattr(self, component) + fj)

    def add_extra(self, key: str, value: float) -> None:
        """Accumulate into a free-form ``extra`` metric."""
        if not math.isfinite(value):
            raise StatsError(f"extra {key!r} increment must be finite")
        self.extra[key] = self.extra.get(key, 0.0) + value

    # ------------------------------------------------------------------ #
    # derived
    # ------------------------------------------------------------------ #
    @property
    def total_fj(self) -> float:
        """Total dynamic energy, fJ (the paper's reported metric).

        Compensated (``math.fsum``) so the total is exact regardless of
        component magnitudes.
        """
        return math.fsum(getattr(self, name) for name in ENERGY_COMPONENTS)

    @property
    def data_fj(self) -> float:
        """Data-array-only energy (no metadata/logic), fJ."""
        return math.fsum(
            (
                self.data_read_fj,
                self.data_write_fj,
                self.fill_fj,
                self.writeback_fj,
                self.reencode_fj,
            )
        )

    @property
    def overhead_fj(self) -> float:
        """Scheme overhead energy (metadata traffic + logic), fJ."""
        return math.fsum(
            (self.metadata_read_fj, self.metadata_write_fj, self.logic_fj)
        )

    @property
    def hit_rate(self) -> float:
        """Demand hit rate."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def energy_per_access_fj(self) -> float:
        """Average dynamic energy per demand access, fJ."""
        if self.accesses == 0:
            return 0.0
        return self.total_fj / self.accesses

    def savings_vs(self, baseline: "EnergyStats") -> float:
        """Fractional energy saving relative to ``baseline`` (0.222 = 22.2%)."""
        if baseline.total_fj <= 0:
            raise StatsError("baseline has no energy to compare against")
        return 1.0 - self.total_fj / baseline.total_fj

    # ------------------------------------------------------------------ #
    # combination / export
    # ------------------------------------------------------------------ #
    @classmethod
    def merge(cls, parts: Iterable["EnergyStats"]) -> "EnergyStats":
        """Combine many runs into one (multi-level/suite aggregation).

        Event counters are summed exactly (ints); every energy component
        (and every ``extra`` metric) is combined with ``math.fsum``, so
        the merged totals are deterministic and independent of the order
        in which the parts are supplied — shard results can be merged in
        completion order without perturbing the reported femtojoules.
        """
        materialized = list(parts)
        merged = cls()
        for name in _COUNTER_FIELDS:
            setattr(merged, name, sum(getattr(part, name) for part in materialized))
        for name in ENERGY_COMPONENTS:
            setattr(
                merged, name, math.fsum(getattr(part, name) for part in materialized)
            )
        keys = sorted({key for part in materialized for key in part.extra})
        for key in keys:
            merged.extra[key] = math.fsum(
                part.extra.get(key, 0.0) for part in materialized
            )
        return merged

    def __add__(self, other: "EnergyStats") -> "EnergyStats":
        return EnergyStats.merge((self, other))

    def to_dict(self) -> dict:
        """Lossless, JSON-ready snapshot — the exact inverse of
        :meth:`from_dict`.

        Unlike :meth:`as_dict` (a flat reporting view that mixes in derived
        quantities), this carries exactly the dataclass state: every counter,
        every energy component and the ``extra`` map, nothing else.  Because
        JSON round-trips Python ints and finite floats exactly,
        ``EnergyStats.from_dict(json.loads(json.dumps(stats.to_dict())))``
        reproduces ``stats`` bit for bit — the property the exec engine's
        result cache and worker transport rely on.
        """
        payload: dict = {name: getattr(self, name) for name in _SCALAR_FIELDS}
        payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EnergyStats":
        """Rebuild a stats object from a :meth:`to_dict` snapshot.

        Validation is strict in both directions — unknown keys and missing
        keys are errors — so a cache entry written by a different engine
        schema can never be half-read into silently wrong numbers.
        """
        if not isinstance(payload, dict):
            raise StatsError(
                f"stats payload must be a dict, got {type(payload).__name__}"
            )
        if payload.keys() != _PAYLOAD_KEYS:
            unknown = payload.keys() - _PAYLOAD_KEYS
            missing = _PAYLOAD_KEYS - payload.keys()
            raise StatsError(
                f"stats payload key mismatch: unknown={sorted(unknown)} "
                f"missing={sorted(missing)}"
            )
        stats = cls()
        for name in _COUNTER_FIELDS:
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise StatsError(f"{name} must be an int, got {value!r}")
            setattr(stats, name, value)
        for name in ENERGY_COMPONENTS:
            value = payload[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise StatsError(f"{name} must be a number, got {value!r}")
            value = float(value)
            if not math.isfinite(value) or value < 0:
                raise StatsError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
            setattr(stats, name, value)
        extra = payload["extra"]
        if not isinstance(extra, dict):
            raise StatsError(f"extra must be a dict, got {type(extra).__name__}")
        for key, value in extra.items():
            if not isinstance(key, str):
                raise StatsError(f"extra keys must be strings, got {key!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise StatsError(f"extra {key!r} must be a number, got {value!r}")
            if not math.isfinite(float(value)):
                raise StatsError(f"extra {key!r} must be finite, got {value!r}")
            stats.extra[key] = float(value)
        return stats

    def as_dict(self) -> dict[str, float | int]:
        """Flat-dict view (counters + energies + derived)."""
        out: dict[str, float | int] = {
            name: getattr(self, name) for name in _SCALAR_FIELDS
        }
        out["total_fj"] = self.total_fj
        out["data_fj"] = self.data_fj
        out["overhead_fj"] = self.overhead_fj
        out["hit_rate"] = self.hit_rate
        out["energy_per_access_fj"] = self.energy_per_access_fj
        out.update(self.extra)
        return out

    def report(self) -> str:
        """Multi-line human-readable breakdown."""
        lines = [
            f"accesses          {self.accesses:>12}",
            f"  reads/writes    {self.reads:>12} / {self.writes}",
            f"  hit rate        {self.hit_rate:>12.4f}",
            f"  evictions/wb    {self.evictions:>12} / {self.writebacks}",
            f"windows completed {self.windows_completed:>12}",
            f"direction switches{self.direction_switches:>12}"
            f" ({self.partition_flips} partition flips)",
            "energy (fJ):",
        ]
        for name in ENERGY_COMPONENTS:
            lines.append(f"  {name:<18} {getattr(self, name):>16.1f}")
        lines.append(f"  {'total_fj':<18} {self.total_fj:>16.1f}")
        lines.append(
            f"  per access        {self.energy_per_access_fj:>16.2f}"
        )
        return "\n".join(lines)


#: The scalar fields of :class:`EnergyStats` (``extra`` aside) in
#: declaration order, and the counters among them: resolved once here
#: rather than by ``dataclasses.fields`` on every cache-read decode.
_SCALAR_FIELDS = tuple(
    spec.name for spec in fields(EnergyStats) if spec.name != "extra"
)
_COUNTER_FIELDS = tuple(
    name for name in _SCALAR_FIELDS if name not in ENERGY_COMPONENTS
)
#: The keys of a :meth:`EnergyStats.to_dict` snapshot.
_PAYLOAD_KEYS = frozenset(_SCALAR_FIELDS + ("extra",))
