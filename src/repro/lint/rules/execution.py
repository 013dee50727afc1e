"""Execution-discipline rule R006.

Two related disciplines share this rule id:

* **Experiments declare, they don't drive.**  The experiment layer must
  *declare* simulations as :class:`repro.exec.SimJob` values and resolve
  them through an :class:`repro.exec.ExecEngine`.  Driving the simulator
  directly from an experiment bypasses the planner's deduplication, the
  result cache and the parallel executor — and silently re-measures what
  another figure already measured.
* **Everything else goes through the facade.**  Outside
  ``repro/api.py``, the backend registry package (``repro/backends/``,
  the layer the facade delegates to) and the modules that define the
  simulators, package code must not construct ``CNTCache(...)`` or
  ``ArrayCNTCache(...)`` directly; the facade
  (:func:`repro.api.make_cache`, :func:`repro.api.simulate`) is the one
  sanctioned entry, so the public surface can evolve without chasing
  scattered call sites.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: File the experiment-discipline branch polices.
_TARGET_NAME = "experiments.py"

#: Bare call names that mean "simulate right here, right now": the
#: runner's entry points and the facade's (``api.simulate``,
#: ``api.make_cache``).  ``make_engine`` stays allowed: it builds the
#: engine experiments resolve their jobs through.
_DIRECT_RUNNERS = frozenset({"_run_workload", "replay", "simulate", "make_cache"})

#: Simulator classes whose construction must go through the facade
#: (every backend of the registry, not just the scalar reference).
_SIMULATORS = frozenset({"CNTCache", "ArrayCNTCache"})

#: Files allowed to bypass the facade: the facade itself, and the
#: modules that define the simulators (its docstrings/tests-of-self
#: aside, the classes must be constructible somewhere).
_FACADE_EXEMPT = frozenset({"api.py", "cntcache.py"})

#: Package allowed to bypass the facade wholesale: ``repro.backends``
#: is the registry :func:`repro.api.make_cache` delegates to, so it is
#: a sanctioned construction site by definition.
_FACADE_EXEMPT_PACKAGE = "backends"


def _call_name(func: ast.expr) -> str | None:
    """The bare name a call resolves to (``a.b.f(...)`` -> ``f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class DirectSimulationRule(LintRule):
    """R006: simulate through the engine; construct through the facade.

    Inside an ``experiments.py`` module, flags any call to
    ``_run_workload(...)``, ``replay(...)``, ``simulate(...)`` or
    ``make_cache(...)`` and any construction of a
    backend simulator class (``CNTCache(...)``/``ArrayCNTCache(...)``,
    which covers the chained ``CNTCache(...).run(...)`` form too) —
    declare a :class:`repro.exec.SimJob` and resolve it through the
    engine instead.  In every other ``repro`` source module except the
    facade (``api.py``), the ``repro.backends`` registry package and
    the simulators' own modules, flags simulator construction — use
    :func:`repro.api.make_cache`.
    ``# lint: disable=R006`` marks the rare deliberate exception.

    Invariant: every experiment job is deduplicated, cached and
    parallelized by the exec engine, and built through one facade.
    Fails without it:
    ``TestR006::test_fires_on_direct_simulation_in_experiments_module``
    in ``tests/lint/test_rules.py``.
    """

    rule_id = "R006"
    summary = (
        "experiments.py must declare SimJobs via repro.exec, and code "
        "outside repro.api/repro.backends must not construct a backend "
        "simulator directly"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        from repro.lint.engine import in_repro_source

        if context.config.scope_to_source and not in_repro_source(module):
            return
        if module.path.name == _TARGET_NAME:
            yield from self._check_experiments(module)
        elif (
            in_repro_source(module)
            and module.path.name not in _FACADE_EXEMPT
            and _FACADE_EXEMPT_PACKAGE not in module.path.parts
        ):
            yield from self._check_facade(module)

    # -------------------------------------------------------------- #
    # branch 1: the experiment registry
    # -------------------------------------------------------------- #
    def _check_experiments(self, module: "ParsedModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name in _DIRECT_RUNNERS:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"direct simulation via '{name}(...)' in an experiment; "
                    "declare a SimJob and resolve it through the ExecEngine "
                    "(repro.exec) so it dedupes, caches and parallelizes",
                )
            elif name in _SIMULATORS:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"experiment constructs {name}(...) directly; "
                    "declare a SimJob and resolve it through the ExecEngine "
                    "(repro.exec) instead of driving the simulator inline",
                )

    # -------------------------------------------------------------- #
    # branch 2: everything else must use the facade
    # -------------------------------------------------------------- #
    def _check_facade(self, module: "ParsedModule") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name in _SIMULATORS:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"constructs {name}(...) directly, bypassing the "
                    "stable facade; use repro.api.make_cache() so the "
                    "construction site stays evolvable",
                )
