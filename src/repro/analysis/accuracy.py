"""Hindsight audit of Algorithm 1's decisions.

The predictor assumes the *next* window will look like the one just
observed.  This audit replays a trace with a window observer attached,
pairs up consecutive window events of each line, and scores every decision
against what the following window actually wanted:

* a *kept* encoding is correct if, knowing the next window's write mix,
  switching would still not have paid;
* a *switch* is correct if the next window's mix still favours it.

The per-partition score uses exactly the paper's own economics
(:func:`~repro.predictor.threshold.should_switch_exact`), so "correct"
means "the decision the predictor would have made with perfect
one-window lookahead".
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cntcache import CNTCache, WindowEvent
from repro.predictor.threshold import should_switch_exact
from repro.trace.record import Access

if TYPE_CHECKING:
    from repro.backends.array import Substrate


@dataclass
class PredictionAudit:
    """Outcome of a hindsight audit."""

    decisions: int = 0
    correct: int = 0
    kept_correct: int = 0
    kept_wrong: int = 0
    switched_correct: int = 0
    switched_wrong: int = 0
    _pending: dict = field(default_factory=dict, repr=False)

    @property
    def accuracy(self) -> float:
        """Fraction of per-partition decisions that hindsight confirms."""
        return self.correct / self.decisions if self.decisions else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Flat view for tables."""
        return {
            "decisions": self.decisions,
            "accuracy": self.accuracy,
            "kept_correct": self.kept_correct,
            "kept_wrong": self.kept_wrong,
            "switched_correct": self.switched_correct,
            "switched_wrong": self.switched_wrong,
        }


def audit_predictions(
    sim: CNTCache,
    trace: Iterable[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
    substrate: "Substrate | None" = None,
) -> PredictionAudit:
    """Replay ``trace`` through ``sim`` and audit every window decision.

    ``sim`` must use an adaptive scheme (``invert`` or ``cnt``); the audit
    installs itself as the simulator's window observer.  ``substrate`` is
    ``trace`` already recorded over ``preloads`` at ``sim``'s geometry
    (:meth:`~repro.workloads.program.WorkloadRun.substrate`): a fresh
    ``sim`` of an engine that folds substrates then only prices it.
    """
    if not sim.config.uses_predictor:
        raise ValueError(
            f"scheme {sim.config.scheme!r} runs no predictor to audit"
        )
    audit = PredictionAudit()
    model = sim.model
    partition_bits = sim.codec.partition_bits

    def on_window(event: WindowEvent) -> None:
        key = (event.set_index, event.way, event.tag)
        previous = audit._pending.get(key)
        if previous is not None:
            # Score the PREVIOUS decision against THIS window's mix.
            for flip, ones in zip(previous.flips, event.ones):
                # Would perfect lookahead have switched at the previous
                # boundary?  Evaluate with this window's wr_num and the
                # stored population as it stood after the decision.
                hindsight = should_switch_exact(
                    partition_bits,
                    event.window,
                    event.wr_num,
                    ones,
                    model,
                )
                audit.decisions += 1
                # ``hindsight`` True means the CURRENT encoding (i.e. the
                # result of the previous decision) is wrong for this
                # window.  So the previous decision was correct iff the
                # encoding it produced needs no further switch.
                if not hindsight:
                    audit.correct += 1
                    if flip:
                        audit.switched_correct += 1
                    else:
                        audit.kept_correct += 1
                elif flip:
                    audit.switched_wrong += 1
                else:
                    audit.kept_wrong += 1
        audit._pending[key] = event

    sim.window_observer = on_window
    if substrate is None:
        sim.preload_all(preloads)
        sim.run(trace)
    else:
        sim.run(trace, substrate=substrate)  # type: ignore[call-arg]
    audit._pending.clear()
    return audit
