"""S-rules: schema-consistency checks backed by :mod:`repro.schemas`.

S001 keeps every schema tag in the codebase flowing from the central
registry — a literal ``"exec-v3"`` typed in two places is two places a
version bump can miss.  S002 is the project-scope flagship: it walks the
resolved import graph to prove the exec code fingerprint *transitively*
covers every module reachable from the simulation roots, so no code that
can influence a cached result escapes the fingerprint.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.project import matches_prefix
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: What a schema tag looks like: ``family-vN`` with a lowercase dashed
#: family.  Deliberately tight — version-suffixed identifiers such as
#: ``cnt-v1`` in prose would be caught too, which is the point: every
#: tag-shaped literal must either come from the registry or not exist.
_TAG_RE = re.compile(r"^[a-z][a-z0-9]*(?:-[a-z][a-z0-9]*)*-v\d+$")

#: The registry module itself is the one place tags may be assembled.
_REGISTRY_SUFFIX = ("repro", "schemas.py")


def _docstring_positions(tree: ast.Module) -> set[int]:
    """ids of Constant nodes that are docstrings / bare string statements."""
    positions: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        for statement in body:
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                positions.add(id(statement.value))
    return positions


class SchemaTagLiteralRule(LintRule):
    """S001: schema tags come from :mod:`repro.schemas`, never literals.

    Flags any string literal shaped like ``family-vN`` inside ``repro``
    source (docstrings excluded).  A registered tag's finding names the
    constant to use (``CONSTANT.tag``); tag-shaped literals that are
    *not* registered are flagged as unregistered — either register
    the schema or rename the string so it stops looking like a tag.

    Invariant: each schema tag is defined once, in :mod:`repro.schemas`.
    Fails without it:
    ``TestS001::test_fires_on_registered_and_unknown_tag_literals`` in
    ``tests/lint/test_schema_rules.py``.
    """

    rule_id = "S001"
    summary = (
        "schema-tag literal; import the constant from repro.schemas and "
        "use its .tag"
    )

    def check_module(
        self, module: "ParsedModule", context: "LintContext"
    ) -> Iterator[Finding]:
        if context.config.scope_to_source and "repro" not in module.path.parts:
            return
        if module.path.parts[-2:] == _REGISTRY_SUFFIX:
            return
        try:
            from repro.schemas import CONSTANT_BY_TAG
        except ImportError:  # pragma: no cover - partial checkouts
            CONSTANT_BY_TAG = {}
        docstrings = _docstring_positions(module.tree)
        for node in ast.walk(module.tree):
            if (
                not isinstance(node, ast.Constant)
                or not isinstance(node.value, str)
                or id(node) in docstrings
                or _TAG_RE.match(node.value) is None
            ):
                continue
            constant = CONSTANT_BY_TAG.get(node.value)
            if constant is not None:
                message = (
                    f"schema tag literal '{node.value}'; use "
                    f"repro.schemas.{constant}.tag so version bumps have "
                    "a single home"
                )
            else:
                message = (
                    f"tag-shaped literal '{node.value}' is not in the "
                    "repro.schemas registry; register the schema or "
                    "rename the string"
                )
            yield self.finding(module.display_path, node.lineno, message)


@dataclass(frozen=True)
class FingerprintSpec:
    """What S002 verifies: roots, the covered set, sanctioned exemptions.

    ``declared_in`` locates the fingerprint list for findings that have
    no better anchor (a covered module that no longer exists).
    """

    roots: tuple[str, ...]
    covered: frozenset[str]
    exempt: tuple[str, ...]
    declared_in: str = "src/repro/exec/job.py"


def default_fingerprint_spec() -> FingerprintSpec | None:
    """The live spec, read from :mod:`repro.exec.job` (None if absent)."""
    try:
        from repro.exec import job
    except ImportError:  # pragma: no cover - partial checkouts
        return None
    return FingerprintSpec(
        roots=tuple(job.FINGERPRINT_ROOTS),
        covered=frozenset(job.fingerprint_module_names()),
        exempt=tuple(job.FINGERPRINT_EXEMPT),
    )


class FingerprintCoverageRule(LintRule):
    """S002: the exec fingerprint transitively covers the import graph.

    Every module reachable from the simulation roots (``repro.cache``,
    ``repro.encoding``, ``repro.cnfet``) through imports (module-level,
    function-level or a package's lazy export table) must be hashed into
    the exec code fingerprint — otherwise editing it would change
    simulation results without invalidating cached ones.  Deferring an
    import into the function that uses it does not make it result
    neutral, so the walk follows every edge.
    Exempt prefixes (``repro.obs``: result-neutral observability;
    ``repro.faults``: transient-only, healed byte-identically) terminate
    the walk but are reported if *they* import uncovered modules at the
    boundary edge.

    The spec is injectable for tests; the default reads the live
    declaration in :mod:`repro.exec.job` at check time, so a stale
    fingerprint list turns the gate red immediately.

    Invariant: editing any module that can change a result invalidates
    the cached results it produced.  Fails without it:
    ``TestS002OnTheMiniPackage::test_uncovered_reachable_module_is_flagged_with_witness``
    in ``tests/lint/test_schema_rules.py``.
    """

    rule_id = "S002"
    summary = (
        "module reachable from simulation roots is missing from the exec "
        "code-fingerprint list"
    )
    scope = "project"

    def __init__(self, spec: FingerprintSpec | None = None) -> None:
        self._spec = spec

    def check_project(self, context: "LintContext") -> Iterator[Finding]:
        spec = self._spec or default_fingerprint_spec()
        if spec is None or context.project is None:
            return
        index = context.project
        reached = index.reachable_from(
            spec.roots, toplevel_only=False, stop_prefixes=spec.exempt
        )
        for name in sorted(reached):
            if name in spec.covered or matches_prefix(name, spec.exempt):
                continue
            witness = reached[name]
            if witness is None:
                symbols = index.symbols.get(name)
                path = str(symbols.path) if symbols else spec.declared_in
                line = 1
                how = "it sits under a fingerprint root"
            else:
                importer = index.symbols.get(witness.importer)
                path = (
                    str(importer.path) if importer else spec.declared_in
                )
                line = witness.line
                how = f"imported by {witness.importer}"
            yield self.finding(
                path,
                line,
                f"module '{name}' is reachable from the simulation roots "
                f"({how}) but absent from the exec code-fingerprint list "
                f"in {spec.declared_in}; editing it would change results "
                "without invalidating cached ones",
            )


__all__ = [
    "FingerprintCoverageRule",
    "FingerprintSpec",
    "SchemaTagLiteralRule",
    "default_fingerprint_spec",
]
