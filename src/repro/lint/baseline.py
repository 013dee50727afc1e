"""Checked-in lint baseline with ratchet semantics.

A baseline file records *accepted* findings (pre-existing debt) so the
gate can be turned on for a tree that is not yet clean: baselined
findings are filtered out of the report, anything new fails.  The
ratchet runs both ways — an entry that no longer matches any finding is
*stale* and also fails the run, forcing ``--update-baseline`` to shrink
the file.  Debt can therefore only ever decrease.

Entries match on ``(path, rule, message)`` and deliberately ignore the
line number, so unrelated edits shifting a finding up or down a file do
not churn the baseline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro import records
from repro.lint.engine import LintError
from repro.lint.findings import Finding
from repro.schemas import BASELINE


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding, line-agnostic."""

    path: str
    rule: str
    message: str

    @classmethod
    def for_finding(cls, finding: Finding) -> "BaselineEntry":
        """The entry that would absorb ``finding``."""
        return cls(
            path=finding.path, rule=finding.rule_id, message=finding.message
        )

    def to_dict(self) -> dict[str, str]:
        """JSON-ready form (one element of the file's ``entries``)."""
        return {"path": self.path, "rule": self.rule, "message": self.message}


@dataclass
class BaselineResult:
    """Outcome of applying a baseline to a finding list."""

    #: Findings not covered by any entry — these still gate.
    new: list[Finding]
    #: How many findings the baseline absorbed.
    suppressed: int
    #: Entries that matched nothing — the debt they recorded is gone and
    #: the ratchet demands the file shrink to match.
    stale: list[BaselineEntry]


def load_baseline(path: Path) -> list[BaselineEntry]:
    """Parse a baseline file (raises :class:`LintError` on any defect)."""
    payload = records.read_record(path, BASELINE.tag)
    if payload is None:
        raise LintError(f"cannot read baseline {path}: no such file")
    if isinstance(payload, records.Skip):
        raise LintError(f"malformed baseline {path}: {payload.reason}")
    try:
        return [
            BaselineEntry(str(raw["path"]), str(raw["rule"]), str(raw["message"]))
            for raw in payload["entries"]
        ]
    except (KeyError, TypeError) as exc:
        raise LintError(
            f"baseline {path} needs an 'entries' list of objects with "
            "path/rule/message keys"
        ) from exc


def apply_baseline(
    findings: list[Finding], entries: list[BaselineEntry]
) -> BaselineResult:
    """Split ``findings`` into new vs baselined; detect stale entries.

    An entry absorbs any number of findings with its (path, rule,
    message) triple — one entry covers a rule firing twice in one file
    with identical messages, which keeps the file small and stable.
    """
    by_key = Counter(entries)
    new: list[Finding] = []
    suppressed = 0
    used: set[BaselineEntry] = set()
    for finding in findings:
        key = BaselineEntry.for_finding(finding)
        if by_key.get(key, 0) > 0:
            suppressed += 1
            used.add(key)
        else:
            new.append(finding)
    stale = sorted(
        {entry for entry in entries if entry not in used},
        key=lambda entry: (entry.path, entry.rule, entry.message),
    )
    return BaselineResult(new=new, suppressed=suppressed, stale=stale)


def write_baseline(findings: list[Finding], path: Path) -> int:
    """Write ``findings`` as the new accepted debt; returns entry count.

    Duplicate (path, rule, message) triples collapse to one entry.
    """
    entries = sorted(
        {BaselineEntry.for_finding(finding) for finding in findings},
        key=lambda entry: (entry.path, entry.rule, entry.message),
    )
    payload = {
        "schema": BASELINE.tag,
        "entries": [entry.to_dict() for entry in entries],
    }
    records.write_atomic(path, records.dumps(payload, indent=2) + "\n")
    return len(entries)


__all__ = [
    "BaselineEntry",
    "BaselineResult",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]
