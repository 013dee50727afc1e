"""Energy-accounting rules R001/R002.

These two rules are what keeps the paper's 22.2% dynamic-power claim
auditable: every femtojoule must flow through
:meth:`repro.core.stats.EnergyStats.add`, and every calibration constant
must live next to the device physics in ``repro/cnfet/``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: Substring that marks an identifier as carrying femtojoule values.
_FJ_MARKER = "_fj"

#: Path suffix of the one module allowed to mutate energy accumulators.
_STATS_SUFFIX = ("repro", "core", "stats.py")

#: Path part under which raw energy literals are legitimate physics.
_CNFET_PART = "cnfet"


def _is_fj_name(name: str) -> bool:
    return _FJ_MARKER in name.lower()


def _literal_value(node: ast.expr) -> float | None:
    """The numeric value of an (optionally negated) literal, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    return None


class EnergyAccumulationRule(LintRule):
    """R001: ``*_fj`` accumulators only change inside ``EnergyStats``.

    Flags any ``obj.<name>_fj += ...`` (or ``-=``, ``*=``, ...) outside
    ``repro/core/stats.py``.  Call ``EnergyStats.add(component, fj)``
    instead so totals, validation and compensated summation stay in one
    place.

    Invariant: every femtojoule total is summed by ``EnergyStats``
    (validated, compensated), so the reported savings stay auditable.
    Fails without it: ``TestR001::test_fires_on_adhoc_accumulation`` in
    ``tests/lint/test_rules.py``.
    """

    rule_id = "R001"
    summary = (
        "energy accumulation must go through EnergyStats.add(), not "
        "ad-hoc attribute '+=' outside repro/core/stats.py"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        from repro.lint.engine import in_repro_source

        if context.config.scope_to_source and not in_repro_source(module):
            return
        if module.path.parts[-3:] == _STATS_SUFFIX:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if isinstance(target, ast.Attribute) and _is_fj_name(target.attr):
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"ad-hoc accumulation into '{target.attr}'; route the "
                    "energy through EnergyStats.add() so it is metered",
                )


class EnergyLiteralRule(LintRule):
    """R002: no raw energy literals outside ``repro/cnfet/``.

    Flags non-zero numeric literals bound to ``*_fj*`` names (assignments,
    annotated defaults and keyword arguments).  Calibration constants
    belong in :mod:`repro.cnfet`; everywhere else, reference the named
    constant.

    Invariant: each calibration constant has one home, beside the device
    physics in ``repro/cnfet/``.  Fails without it:
    ``TestR002::test_fires_on_literals`` in
    ``tests/lint/test_rules.py``.
    """

    rule_id = "R002"
    summary = (
        "no raw float energy literals outside repro/cnfet/ — import the "
        "named calibration constant instead"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        from repro.lint.engine import in_repro_source

        if context.config.scope_to_source and not in_repro_source(module):
            return
        if _CNFET_PART in module.path.parts:
            return
        for node in ast.walk(module.tree):
            yield from self._check_node(module, node)

    def _check_node(
        self, module: "ParsedModule", node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                name = _bound_name(target)
                if name is not None and _is_fj_name(name):
                    yield from self._check_value(module, node.value, name)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            name = _bound_name(node.target)
            if name is not None and _is_fj_name(name):
                yield from self._check_value(module, node.value, name)
        elif isinstance(node, ast.keyword):
            if node.arg is not None and _is_fj_name(node.arg):
                yield from self._check_value(module, node.value, node.arg)

    def _check_value(
        self, module: "ParsedModule", value: ast.expr, name: str
    ) -> Iterator[Finding]:
        literal = _literal_value(value)
        if literal is not None and literal != 0.0:
            yield self.finding(
                module.display_path,
                value.lineno,
                f"raw energy literal {literal!r} bound to '{name}'; move "
                "the constant into repro/cnfet/ and reference it by name",
            )


def _bound_name(target: ast.expr) -> str | None:
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None
