"""AST lint engine: file discovery, parsing, suppressions, rule dispatch.

The engine is purely static — linted files are parsed with :mod:`ast`,
never imported — so it is safe to run over fixture files that seed
deliberate violations.

Suppression protocol (mirrors the usual ``# noqa`` conventions):

* ``# lint: disable=R001`` (or ``R001,R005``) at the end of a line
  suppresses those rules for that line; ``# lint: disable`` with no ids
  suppresses every rule on the line.
* ``# lint: skip-file`` within the first two lines excludes the file from
  directory walks entirely (used by the seeded-violation test fixtures).
  Engines created with ``honor_skip_file=False`` lint such files anyway —
  that is how the lint test suite exercises the fixtures.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.lint.findings import Finding, Severity
from repro.lint.project import ProjectIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.rules.base import LintRule


class LintError(ValueError):
    """Raised on invalid lint engine usage (bad paths, unknown rules)."""


_RULE_ID_RE = re.compile(r"^[A-Z]\d{3}$")


_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable(?:=(?P<ids>[A-Z0-9,\s]+))?")
_SKIP_FILE_RE = re.compile(r"#\s*lint:\s*skip-file")

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".ruff_cache"})


@dataclass(frozen=True)
class LintConfig:
    """Engine options.

    ``enabled_rules``
        Restrict the run to these rule ids (``None`` = all registered).
    ``honor_skip_file``
        When True (default, and always in the CLI) files whose first two
        lines carry ``# lint: skip-file`` are ignored by directory walks.
    ``scope_to_source``
        When True (default) the domain rules R001-R004 only examine files
        under a ``repro`` source tree, so test/fixture code may freely
        build energy tables and codec stubs.  The lint test suite turns
        this off to lint its fixtures.
    ``check_invariants``
        When True the CLI also runs the physics-invariant checker
        (:mod:`repro.lint.invariants`) and reports violations as ``P0xx``
        findings.
    """

    enabled_rules: frozenset[str] | None = None
    honor_skip_file: bool = True
    scope_to_source: bool = True
    check_invariants: bool = True

    def __post_init__(self) -> None:
        if self.enabled_rules is not None:
            bad = [
                rule_id
                for rule_id in self.enabled_rules
                if _RULE_ID_RE.match(rule_id) is None
            ]
            if bad:
                raise LintError(f"malformed rule ids: {sorted(bad)}")
        if not isinstance(self.honor_skip_file, bool):
            raise LintError("honor_skip_file must be a bool")
        if not isinstance(self.scope_to_source, bool):
            raise LintError("scope_to_source must be a bool")
        if not isinstance(self.check_invariants, bool):
            raise LintError("check_invariants must be a bool")


@dataclass
class ParsedModule:
    """One parsed source file plus its suppression table."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: line number -> suppressed rule ids (``None`` = every rule).
    suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict)
    skip_file: bool = False

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True if ``# lint: disable`` on ``line`` covers ``rule_id``."""
        if line not in self.suppressions:
            return False
        ids = self.suppressions[line]
        return ids is None or rule_id in ids


@dataclass
class LintContext:
    """Everything project-scope rules may inspect."""

    config: LintConfig
    modules: list[ParsedModule] = field(default_factory=list)
    #: Pass-1 output: dotted names, symbol tables, resolved import graph.
    #: Built by :func:`lint_paths` before any rule runs; ``None`` only for
    #: hand-assembled contexts in unit tests of module-scope rules.
    project: ProjectIndex | None = None

    def modules_in_dir(self, directory: Path) -> list[ParsedModule]:
        """The parsed modules living directly in ``directory``."""
        return [m for m in self.modules if m.path.parent == directory]

    def directories(self) -> list[Path]:
        """Every directory that contributed at least one parsed module."""
        return sorted({m.path.parent for m in self.modules})


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str] | None], bool]:
    table: dict[int, frozenset[str] | None] = {}
    lines = source.splitlines()
    skip = any(_SKIP_FILE_RE.search(line) for line in lines[:2])
    for number, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = match.group("ids")
        if ids is None:
            table[number] = None
        else:
            table[number] = frozenset(
                token.strip() for token in ids.split(",") if token.strip()
            )
    return table, skip


def parse_module(path: Path) -> ParsedModule | Finding:
    """Parse one file; a syntax error becomes an ``R000`` finding."""
    display = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {display}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return Finding(
            path=display,
            line=exc.lineno or 1,
            rule_id="R000",
            severity=Severity.ERROR,
            message=f"syntax error: {exc.msg}",
        )
    suppressions, skip = _parse_suppressions(source)
    return ParsedModule(
        path=path,
        display_path=display,
        source=source,
        tree=tree,
        suppressions=suppressions,
        skip_file=skip,
    )


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield ``.py`` files: explicit files as-is, directories recursively."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    yield candidate
        else:
            raise LintError(f"no such file or directory: {path}")


def _selected_rules(config: LintConfig) -> list["LintRule"]:
    from repro.lint.rules import iter_rules

    rules = list(iter_rules())
    if config.enabled_rules is None:
        return rules
    known = {rule.rule_id for rule in rules}
    unknown = config.enabled_rules - known
    if unknown:
        raise LintError(f"unknown rule ids: {sorted(unknown)}")
    return [rule for rule in rules if rule.rule_id in config.enabled_rules]


def lint_paths(
    paths: Sequence[Path | str], config: LintConfig | None = None
) -> list[Finding]:
    """Run every selected rule over ``paths``; returns sorted findings.

    Two passes: first every file is parsed and indexed into a
    :class:`~repro.lint.project.ProjectIndex` (names, symbols, import
    graph); then rules run — module-scope rules per file, project-scope
    rules once over the index.
    """
    config = config if config is not None else LintConfig()
    context = LintContext(config=config)
    findings: list[Finding] = []
    discovered = 0
    for path in iter_python_files(paths):
        discovered += 1
        parsed = parse_module(path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        if config.honor_skip_file and parsed.skip_file:
            continue
        context.modules.append(parsed)
    if discovered == 0:
        listing = ", ".join(str(p) for p in paths) or "(no paths)"
        raise LintError(f"no Python files found under: {listing}")

    context.project = ProjectIndex.build(context.modules)

    for rule in _selected_rules(config):
        if rule.scope == "module":
            for module in context.modules:
                findings.extend(rule.check_module(module, context))
        else:
            findings.extend(rule.check_project(context))

    kept = [
        finding
        for finding in findings
        if not _finding_suppressed(finding, context)
    ]
    return sorted(kept, key=lambda finding: finding.sort_key)


def _finding_suppressed(finding: Finding, context: LintContext) -> bool:
    for module in context.modules:
        if module.display_path == finding.path:
            return module.is_suppressed(finding.line, finding.rule_id)
    return False


def base_names(node: ast.ClassDef) -> list[str]:
    """Bare names of a class's bases (``a.b.C`` -> ``C``)."""
    names: list[str] = []
    for node_base in node.bases:
        if isinstance(node_base, ast.Name):
            names.append(node_base.id)
        elif isinstance(node_base, ast.Attribute):
            names.append(node_base.attr)
    return names


def in_repro_source(module: ParsedModule) -> bool:
    """True for files under a ``repro`` package source tree."""
    return "repro" in module.path.parts


__all__ = [
    "LintConfig",
    "LintContext",
    "LintError",
    "ParsedModule",
    "base_names",
    "in_repro_source",
    "iter_python_files",
    "lint_paths",
    "parse_module",
]
