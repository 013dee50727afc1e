"""Rule registry: id -> rule instance, in id order."""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.rules.base import LintRule
from repro.lint.rules.configs import ConfigValidationRule
from repro.lint.rules.determinism import (
    EnvironReadRule,
    FloatAccumulationRule,
    UnorderedSerializationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.lint.rules.energy import EnergyAccumulationRule, EnergyLiteralRule
from repro.lint.rules.execution import DirectSimulationRule
from repro.lint.rules.exports import CodecRegistrationRule
from repro.lint.rules.metrics import MetricNameRule
from repro.lint.rules.resilience import ErrorSwallowRule
from repro.lint.rules.schema_rules import (
    FingerprintCoverageRule,
    SchemaTagLiteralRule,
)

#: Every registered rule, keyed by id.
RULES: dict[str, LintRule] = {
    rule.rule_id: rule
    for rule in (
        EnergyAccumulationRule(),
        EnergyLiteralRule(),
        CodecRegistrationRule(),
        ConfigValidationRule(),
        DirectSimulationRule(),
        ErrorSwallowRule(),
        MetricNameRule(),
        WallClockRule(),
        UnseededRandomRule(),
        EnvironReadRule(),
        UnorderedSerializationRule(),
        FloatAccumulationRule(),
        SchemaTagLiteralRule(),
        FingerprintCoverageRule(),
    )
}


def iter_rules() -> Iterator[LintRule]:
    """Rules in id order."""
    for rule_id in sorted(RULES):
        yield RULES[rule_id]


__all__ = [
    "RULES",
    "iter_rules",
    "LintRule",
    "EnergyAccumulationRule",
    "EnergyLiteralRule",
    "CodecRegistrationRule",
    "ConfigValidationRule",
    "DirectSimulationRule",
    "EnvironReadRule",
    "ErrorSwallowRule",
    "FingerprintCoverageRule",
    "FloatAccumulationRule",
    "MetricNameRule",
    "SchemaTagLiteralRule",
    "UnorderedSerializationRule",
    "UnseededRandomRule",
    "WallClockRule",
]
