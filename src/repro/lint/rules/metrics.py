"""Metric-name discipline — rule R008.

Probe and trace metric names are the join keys of the observability
layer: manifests aggregate them across processes and ``profile
--json`` feeds them to CI trending.  A typo'd or ad-hoc name
(``exec.retires``, ``CamelCase``, a bare single token) silently forks
the time series — the counter still increments, nothing errors, and
the dashboard quietly shows a hole.

R008 therefore requires every *literal* metric name passed to the
probe/trace emission APIs to be a dotted lowercase identifier that is
registered in :mod:`repro.obs.names` (exactly, or under a declared
dynamic family prefix such as ``phase.``).  Dynamic names (f-strings,
variables) are not checkable statically and are skipped — the family
prefixes in the registry exist precisely for them.
``# lint: disable=R008`` on the call line is the escape hatch for
deliberate one-off names.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: ``probe.<attr>(name, ...)`` calls whose first argument is a metric name.
_PROBE_APIS = frozenset({"counter", "timing", "timer", "event", "gauge"})

#: ``trace.<attr>(name, ...)`` calls whose first argument is a metric name.
#: (``trace.emit`` takes an event *kind*, not a dotted metric — excluded.)
_TRACE_APIS = frozenset({"span"})

#: The shape every metric name must have: dotted lowercase identifiers.
_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def _metric_call(node: ast.Call) -> str | None:
    """The probe/trace API a call targets, or ``None``."""
    func = node.func
    if not isinstance(func, ast.Attribute) or not isinstance(
        func.value, ast.Name
    ):
        return None
    if func.value.id == "probe" and func.attr in _PROBE_APIS:
        return f"probe.{func.attr}"
    if func.value.id == "trace" and func.attr in _TRACE_APIS:
        return f"trace.{func.attr}"
    return None


def _literal_names(node: ast.expr) -> Iterator[tuple[ast.expr, str]]:
    """Yield ``(node, value)`` for every literal string the arg can be.

    Descends conditional expressions (both branches of
    ``"a.x" if flag else "a.y"`` are checkable); f-strings and names are
    dynamic and yield nothing.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node, node.value
    elif isinstance(node, ast.IfExp):
        yield from _literal_names(node.body)
        yield from _literal_names(node.orelse)


class MetricNameRule(LintRule):
    """R008: literal probe/trace metric names must be registered.

    In ``repro`` source modules, every literal first argument of
    ``probe.counter/timing/timer/event/gauge`` and ``trace.span`` must
    match the dotted-lowercase shape and be registered in
    :data:`repro.obs.names.METRIC_NAMES` (or fall under a declared
    dynamic family prefix).  ``# lint: disable=R008`` suppresses a
    deliberate one-off.

    Invariant: reports and trends never key on a misspelt metric.  Fails
    without it:
    ``TestR008::test_fires_on_typos_malformed_and_unregistered_names``
    in ``tests/lint/test_rules.py``.
    """

    rule_id = "R008"
    summary = (
        "literal probe/trace metric names must be dotted-lowercase and "
        "registered in repro.obs.names"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        from repro.lint.engine import in_repro_source
        from repro.obs.names import is_registered

        if context.config.scope_to_source and not in_repro_source(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            api = _metric_call(node)
            if api is None:
                continue
            for arg, name in _literal_names(node.args[0]):
                if _NAME_RE.match(name) is None:
                    yield self.finding(
                        module.display_path,
                        arg.lineno,
                        f"{api}({name!r}): metric names must be dotted "
                        "lowercase identifiers like 'cache.hits' "
                        "(# lint: disable=R008 for deliberate one-offs)",
                    )
                elif not is_registered(name):
                    yield self.finding(
                        module.display_path,
                        arg.lineno,
                        f"{api}({name!r}): unregistered metric name; add it "
                        "to repro.obs.names.METRIC_NAMES (typo'd names fork "
                        "the manifest time series silently)",
                    )
