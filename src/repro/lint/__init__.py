"""Project-wide static analysis for the CNT-Cache reproduction.

Layers (see docs/STATIC_ANALYSIS.md for the full rule catalog):

* a two-pass AST engine (:mod:`repro.lint.engine`): pass 1 builds a
  :class:`~repro.lint.project.ProjectIndex` — dotted module names,
  symbol tables and the resolved import graph — over every linted
  file; pass 2 dispatches the rules of :mod:`repro.lint.rules`:
  energy/architecture rules R001-R008, the determinism sanitizer
  D001-D005 (backed by the reaching-definitions data-flow of
  :mod:`repro.lint.dataflow`) and the schema-consistency rules
  S001-S002 (backed by :mod:`repro.schemas` and the import graph);
* a physics-invariant checker (:mod:`repro.lint.invariants`) that
  statically evaluates every shipped :class:`~repro.cnfet.energy.
  BitEnergyModel` over all process corners and the Vdd sweep range
  (checks P001-P006);
* CLI wiring: ``cntcache lint`` and ``python -m repro.lint``, with
  ``--format json``.
"""

from repro.lint.engine import (
    LintConfig,
    LintContext,
    LintError,
    ParsedModule,
    iter_python_files,
    lint_paths,
    parse_module,
)
from repro.lint.findings import Finding, Severity
from repro.lint.project import ModuleSymbols, ProjectIndex, module_name_for
from repro.lint.invariants import (
    CMOS_PROFILE,
    CNFET_PROFILE,
    DEFAULT_VDD_GRID,
    InvariantProfile,
    InvariantViolation,
    check_energy_table,
    check_model,
    check_shipped_models,
    check_vdd_sweep,
)
from repro.lint.rules import RULES, iter_rules

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "LintContext",
    "LintError",
    "ParsedModule",
    "iter_python_files",
    "lint_paths",
    "parse_module",
    "ModuleSymbols",
    "ProjectIndex",
    "module_name_for",
    "RULES",
    "iter_rules",
    "InvariantProfile",
    "InvariantViolation",
    "CNFET_PROFILE",
    "CMOS_PROFILE",
    "DEFAULT_VDD_GRID",
    "check_energy_table",
    "check_model",
    "check_shipped_models",
    "check_vdd_sweep",
]
