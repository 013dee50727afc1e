"""Error-swallowing discipline — rule R007.

The resilience layer (:mod:`repro.resilience`) exists so that *every*
job error is classified, retried or surfaced as a structured
:class:`~repro.resilience.FailureRecord`.  A ``try`` block that catches
``Exception`` (or ``BaseException``) — or that catches anything and then
silently ``pass``es — defeats that: the error disappears before the
taxonomy ever sees it, and a sweep "succeeds" with holes in its data.

The handful of sanctioned broad catches (the engine's classify-and-retry
sites, best-effort cleanup on an already-failing disk) carry
``# lint: disable=R007`` on the ``except`` line, each with a comment
saying why the catch is safe.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: Exception names too broad to catch without a sanctioned reason.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _caught_names(node: ast.expr) -> list[str]:
    """Bare names an ``except`` clause catches (tuples flattened)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        names: list[str] = []
        for element in node.elts:
            names.extend(_caught_names(element))
        return names
    return []


def _is_silent_body(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing at all (``pass`` / ``...``)."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # a docstring or bare `...` — still does nothing
        return False
    return True


class ErrorSwallowRule(LintRule):
    """R007: no broad ``except Exception`` and no silent ``pass`` handlers.

    In ``repro`` source modules, flags every ``except`` clause that
    catches ``Exception``/``BaseException`` (alone or inside a tuple)
    and every typed handler whose body is pure ``pass`` — errors must be
    classified through :mod:`repro.resilience`, logged, re-raised or
    recorded, never swallowed.  A bare ``except:`` is ruff's ``E722``.
    ``# lint: disable=R007`` on the ``except`` line marks the sanctioned
    sites (classify-and-retry, best-effort cleanup).

    Invariant: every job error reaches the :mod:`repro.resilience`
    taxonomy.  Fails without it:
    ``TestR007::test_fires_on_broad_catches_and_silent_swallows`` in
    ``tests/lint/test_rules.py``.
    """

    rule_id = "R007"
    summary = (
        "no 'except Exception:' catches or silent 'pass' handlers in "
        "repro source; classify, record or re-raise instead"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        from repro.lint.engine import in_repro_source

        if context.config.scope_to_source and not in_repro_source(module):
            return
        for node in ast.walk(module.tree):
            # A bare `except:` (type is None) is ruff's E722.
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            caught = _caught_names(node.type)
            broad = sorted(_BROAD_NAMES.intersection(caught))
            if _is_silent_body(node.body):
                catch = ", ".join(caught) or "?"
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"handler for '{catch}' silently swallows the error; "
                    "classify it via repro.resilience, log it, or re-raise "
                    "(# lint: disable=R007 for sanctioned cleanup sites)",
                )
            elif broad:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"catches overly-broad '{broad[0]}'; catch the specific "
                    "errors, or classify through repro.resilience "
                    "(# lint: disable=R007 for sanctioned retry sites)",
                )
