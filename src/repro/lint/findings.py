"""The finding type every lint rule reports; any finding fails the gate."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``file:line: rule-id message``."""

    path: str
    line: int
    rule_id: str
    message: str

    @property
    def sort_key(self) -> tuple[str, int, str]:
        """Stable report ordering: path, then line, then rule id."""
        return (self.path, self.line, self.rule_id)

    def format(self) -> str:
        """The canonical ``file:line: R00X message`` line."""
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, str | int]:
        """JSON-friendly view (the ``--format json`` output record)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }
