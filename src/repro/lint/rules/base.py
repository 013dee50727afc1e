"""Rule interface and registry plumbing for the lint engine."""

from __future__ import annotations

import abc
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule


class LintRule(abc.ABC):
    """One static-analysis rule.

    ``scope`` selects the dispatch style: ``"module"`` rules are invoked
    once per parsed file, ``"project"`` rules once per run with the full
    :class:`~repro.lint.engine.LintContext` (for cross-file checks such as
    registry/``__all__`` coverage).
    """

    #: Stable identifier (``R001``...); used in output and suppressions.
    rule_id: str = "R000"
    #: One-line description shown by ``--list-rules``.
    summary: str = ""
    scope: str = "module"

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        """Yield findings for one file (module-scope rules)."""
        return iter(())

    def check_project(self, context: "LintContext") -> Iterator[Finding]:
        """Yield findings for the whole run (project-scope rules)."""
        return iter(())

    def finding(
        self, path: str, line: int, message: str
    ) -> Finding:
        """Build a finding carrying this rule's id."""
        return Finding(path, line, self.rule_id, message)
