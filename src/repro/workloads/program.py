"""Workload abstraction and result container."""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.obs import probe
from repro.trace.record import Access
from repro.trace.stats import TraceStats, analyze_trace
from repro.workloads.mem import TracedMemory

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.backends.array import Substrate
    from repro.core.config import CNTCacheConfig

#: Supported problem sizes.  ``tiny`` keeps unit tests fast, ``small`` suits
#: pytest-benchmark, ``default`` is what the experiment harness runs.
SIZES = ("tiny", "small", "default")


class WorkloadError(ValueError):
    """Raised on invalid workload construction or use."""


def preload_digest(preloads: Iterable[tuple[int, bytes]]) -> str:
    """Short content hash of a preload image (job observability/integrity)."""
    digest = hashlib.sha256()
    for addr, payload in sorted(preloads):
        digest.update(addr.to_bytes(8, "little"))
        digest.update(len(payload).to_bytes(4, "little"))
        digest.update(payload)
    return digest.hexdigest()[:16]


@dataclass
class WorkloadRun:
    """The output of one workload execution."""

    name: str
    size: str
    seed: int
    trace: list[Access]
    #: Kernel-specific integer checksum for functional verification.
    checksum: int
    #: Initial memory image (program inputs / loader tables): poke these
    #: into the simulated main memory before replaying the trace so cache
    #: fills fetch true line contents.
    preloads: list[tuple[int, bytes]] = field(default_factory=list)
    _stats: TraceStats | None = field(default=None, repr=False)
    _substrate: "Substrate | None" = field(
        default=None, repr=False, compare=False
    )
    _digest: str | None = field(default=None, repr=False, compare=False)
    #: L1-filtered streams of this trace, keyed by the L1 geometry and
    #: the engine that filtered them (filled by :mod:`repro.exec.worker`).
    streams: dict[tuple, list[Access]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def stats(self) -> TraceStats:
        """Lazy trace characterisation."""
        if self._stats is None:
            self._stats = analyze_trace(self.trace)
        return self._stats

    @property
    def image_digest(self) -> str:
        """:func:`preload_digest` of the run's image, hashed once."""
        if self._digest is None:
            self._digest = preload_digest(self.preloads)
        return self._digest

    def substrate(self, config: "CNTCacheConfig") -> "Substrate":
        """The trace recorded at ``config``'s geometry, kept in one slot.

        Every encoding config of one geometry folds over the same
        recorded substrate (see :mod:`repro.backends.array`); the slot
        keeps the last geometry asked for, so consecutive jobs of one
        (trace, geometry) group record it once.
        """
        from repro.backends.array import record_substrate, substrate_key

        key = substrate_key(config)
        if self._substrate is None or self._substrate.key != key:
            self._substrate = None  # never hold two substrates at once
            self._substrate = record_substrate(config, self.trace, self.preloads)
            probe.counter("workload.substrate_records")
        return self._substrate


@dataclass(frozen=True)
class Workload:
    """A named, sized, seeded trace-producing kernel.

    ``kernel(mem, size, seed) -> checksum`` runs the program against a
    :class:`TracedMemory` and returns a checksum of its output.
    """

    name: str
    description: str
    kernel: Callable[[TracedMemory, str, int], int]

    def build(self, size: str = "small", seed: int = 0) -> WorkloadRun:
        """Execute the kernel and capture its valued trace."""
        if size not in SIZES:
            raise WorkloadError(
                f"unknown size {size!r}; known sizes: {SIZES}"
            )
        mem = TracedMemory()
        with probe.timer(f"workload.{self.name}.build"):
            checksum = self.kernel(mem, size, seed)
        if probe.ENABLED:
            probe.event(
                "workload.build",
                workload=self.name,
                size=size,
                seed=seed,
                accesses=len(mem.trace),
            )
        return WorkloadRun(
            name=self.name,
            size=size,
            seed=seed,
            trace=mem.trace,
            checksum=checksum,
            preloads=mem.preloads,
        )


def get_workload(name: str) -> Workload:
    """Look a workload up by name."""
    from repro.workloads.registry import WORKLOADS

    try:
        return WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None


def workload_names() -> list[str]:
    """All registered workload names, sorted."""
    from repro.workloads.registry import WORKLOADS

    return sorted(WORKLOADS)
