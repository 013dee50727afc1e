"""Codec export/registry coverage — rule R003.

Every concrete :class:`~repro.encoding.base.LineCodec` subclass must be
reachable both ways a consumer looks for it: exported in the package's
``__init__.py`` ``__all__`` and registered in the package's
``registry.py`` (see :mod:`repro.encoding.registry`).  Unregistered
codecs are exactly how encoding variants silently drop out of sweep
experiments.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from repro.lint.findings import Finding
from repro.lint.rules.base import LintRule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import LintContext, ParsedModule

#: Name of the abstract codec root class.
_ROOT = "LineCodec"


class CodecRegistrationRule(LintRule):
    """R003: concrete codec classes are exported and registered.

    Invariant: every scheme a config names resolves to a codec that its
    package exports.  Fails without it:
    ``TestR003::test_fires_on_unexported_unregistered_codec`` in
    ``tests/lint/test_rules.py``.
    """

    rule_id = "R003"
    scope = "project"
    summary = (
        "every concrete LineCodec subclass must appear in the package's "
        "__init__ __all__ and in its registry.py"
    )

    def check_project(self, context: "LintContext") -> Iterator[Finding]:
        from repro.lint.engine import base_names

        for directory in context.directories():
            group = context.modules_in_dir(directory)
            if context.config.scope_to_source and "repro" not in directory.parts:
                continue
            # name -> (module, ClassDef) for every class in the package dir
            classes: dict[str, tuple["ParsedModule", ast.ClassDef]] = {}
            bases: dict[str, list[str]] = {}
            for module in group:
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.ClassDef):
                        classes[node.name] = (module, node)
                        bases[node.name] = base_names(node)
            codecs = sorted(
                name
                for name in classes
                if name != _ROOT
                and not name.startswith("_")
                and _descends_from_root(name, bases)
            )
            if not codecs:
                continue
            yield from self._check_package(directory, group, classes, codecs)

    def _check_package(
        self,
        directory: Path,
        group: list["ParsedModule"],
        classes: dict[str, tuple["ParsedModule", ast.ClassDef]],
        codecs: list[str],
    ) -> Iterator[Finding]:
        init = _module_named(group, "__init__.py")
        registry = _module_named(group, "registry.py")
        exported = None if init is None else _dunder_all(init.tree)
        registered = (
            None if registry is None else _referenced_names(registry.tree)
        )
        for name in codecs:
            module, node = classes[name]
            if exported is None:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"codec '{name}' lives in a package whose __init__.py "
                    "has no __all__ to export it from",
                )
            elif name not in exported:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"codec '{name}' is missing from __all__ in "
                    f"{directory.name}/__init__.py",
                )
            if registered is None:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"codec '{name}' lives in a package without a "
                    "registry.py to register it in",
                )
            elif name not in registered:
                yield self.finding(
                    module.display_path,
                    node.lineno,
                    f"codec '{name}' is not registered in "
                    f"{directory.name}/registry.py",
                )


def _descends_from_root(
    name: str, bases: dict[str, list[str]], _seen: frozenset[str] = frozenset()
) -> bool:
    if name in _seen:
        return False
    for parent in bases.get(name, ()):
        if parent == _ROOT:
            return True
        if parent in bases and _descends_from_root(
            parent, bases, _seen | {name}
        ):
            return True
    return False


def _module_named(
    group: list["ParsedModule"], filename: str
) -> "ParsedModule | None":
    for module in group:
        if module.path.name == filename:
            return module
    return None


def _dunder_all(tree: ast.Module) -> frozenset[str] | None:
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    return frozenset(
                        element.value
                        for element in value.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str)
                    )
    return None


def _referenced_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", maxsplit=1)[-1])
    return frozenset(names)
