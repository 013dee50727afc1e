"""Project-wide static analysis for the CNT-Cache reproduction.

A source-code gate only: it parses, never imports, and checks what no
other gate checks (docs/STATIC_ANALYSIS.md has the full rule catalog).
ruff covers generic Python hygiene and the tier-1 suite covers the
shipped energy tables (``tests/cnfet/test_shipped_tables.py``).

* a two-pass AST engine (:mod:`repro.lint.engine`): pass 1 builds a
  :class:`~repro.lint.project.ProjectIndex` — dotted module names,
  symbol tables and the resolved import graph — over every linted
  file; pass 2 dispatches the rules of :mod:`repro.lint.rules`:
  energy/architecture rules R001-R004 and R006-R008, the determinism
  sanitizer D001-D005 (backed by the reaching-definitions data-flow of
  :mod:`repro.lint.dataflow`) and the schema-consistency rules
  S001-S002 (backed by :mod:`repro.schemas` and the import graph);
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
from repro.lint.findings import Finding
from repro.lint.project import ModuleSymbols, ProjectIndex, module_name_for
from repro.lint.rules import RULES, iter_rules

__all__ = [
    "Finding",
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
]
