"""Per-layer timing from outside the program.

The benchmark does not add spans to ``src/``: it replaces public module
and class attributes with timing wrappers for the duration of a traced
measurement.  Every call site in the program looks these names up at
call time (``repro.exec.worker`` imports its collaborators inside the
job functions), so the wrappers see every call made in this process.
Pool workers are forked from the measuring process and inherit the
wrappers, but their tallies stay in the worker; on ``suite-parallel``
only the parent-side layers and ``ExecResult.wall_s`` reach the report.

Each wrapped entry point tallies two numbers under its layer name:
``<name>.s`` (inclusive seconds) and ``<name>.calls``.  An optional
``count`` hook adds derived counts from the arguments and the result
(store hits, oracle accesses).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

Counter = Callable[[tuple, Any], dict[str, int]]


class Layers:
    """Timing wrappers around the program's layer entry points."""

    def __init__(self) -> None:
        self.tally: dict[str, float] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(
        self, owner: object, attr: str, name: str, count: Counter | None = None
    ) -> None:
        """Replace ``owner.attr`` by a wrapper tallying under ``name``."""
        original = getattr(owner, attr)
        tally = self.tally

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tally[f"{name}.s"] += time.perf_counter() - started
                tally[f"{name}.calls"] += 1
            if count is not None:
                for key, n in count(args, result).items():
                    tally[key] += n
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point the suite and the sweep reach."""
        from repro.analysis import accuracy
        from repro.exec import worker
        from repro.exec.store import ResultStore
        from repro.harness import multilevel, oracle, runner
        from repro.workloads.program import Workload

        self.wrap(Workload, "build", "workloads.build")
        self.wrap(worker, "build_run", "workloads.build_run")
        self.wrap(
            ResultStore,
            "read",
            "exec.store.read",
            lambda args, result: {"exec.store.hits": result is not None},
        )
        self.wrap(ResultStore, "write", "exec.store.write")
        self.wrap(runner, "replay", "runner.replay")
        self.wrap(
            oracle,
            "oracle_bound",
            "oracle.bound",
            lambda args, result: {"oracle.accesses": len(args[1])},
        )
        self.wrap(multilevel, "l1_filtered_stream", "multilevel.l1_filter")
        self.wrap(accuracy, "audit_predictions", "accuracy.audit")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, float]:
        """The tallies since the last call, then reset them."""
        snapshot = dict(self.tally)
        self.tally.clear()
        return snapshot
