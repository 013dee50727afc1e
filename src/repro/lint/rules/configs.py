"""Config-validation coverage — rule R004.

A ``*Config`` dataclass whose fields silently bypass ``__post_init__``
validation is how impossible geometries (or an energy table with
``E_wr0 > E_wr1``) sneak into sweeps.  Every field of such a dataclass
must be touched by its ``__post_init__``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _annotation_text(node: ast.expr) -> str:
    return ast.dump(node)


class ConfigValidationRule(LintRule):
    """R004: every ``*Config`` dataclass field is validated.

    Invariant: a bad config value fails at construction, before it
    reaches a simulator or a cache key.  Fails without it:
    ``TestR004::test_fires_on_unvalidated_field_and_missing_post_init``
    in ``tests/lint/test_rules.py``.
    """

    rule_id = "R004"
    summary = (
        "every field of a *Config dataclass must be referenced by its "
        "__post_init__ validation"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        from repro.lint.engine import in_repro_source

        if context.config.scope_to_source and not in_repro_source(module):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and _is_dataclass_decorated(node)
            ):
                yield from self._check_config_class(module, node)

    def _check_config_class(
        self, module: "ParsedModule", node: ast.ClassDef
    ) -> Iterator[Finding]:
        fields: list[tuple[str, int]] = []
        post_init: ast.FunctionDef | None = None
        for statement in node.body:
            if (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and not statement.target.id.startswith("_")
                and "ClassVar" not in _annotation_text(statement.annotation)
            ):
                fields.append((statement.target.id, statement.lineno))
            elif (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "__post_init__"
            ):
                post_init = statement
        if not fields:
            return
        if post_init is None:
            yield self.finding(
                module.display_path,
                node.lineno,
                f"config dataclass '{node.name}' has {len(fields)} fields "
                "but no __post_init__ validation",
            )
            return
        touched = _self_attributes(post_init)
        for name, line in fields:
            if name not in touched:
                yield self.finding(
                    module.display_path,
                    line,
                    f"field '{name}' of '{node.name}' is never referenced "
                    "by __post_init__ validation",
                )


def _self_attributes(function: ast.FunctionDef) -> frozenset[str]:
    names: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return frozenset(names)
