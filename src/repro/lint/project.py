"""Pass 1 of the lint engine: the project-wide model.

Before any rule runs, the engine builds a :class:`ProjectIndex` over
every parsed module: dotted module names (derived from ``__init__.py``
package structure, never imports), a top-level symbol table per module
and the import graph with per-edge source locations.  The graph also
holds one edge per entry of a package's lazy export table
(``lazy_exports(__name__, {name: module, ...})``, see
:mod:`repro._lazy`): the package imports that module on first use of
the name.  Project-scope rules — fingerprint coverage (S002),
registry/export coverage (R003) — consume the index instead of
re-walking every tree; module-scope rules use it to place a file in the
package topology (e.g. "is this module simulation semantics?").

Everything here is purely static: files are parsed, never imported, so
the index is safe to build over fixture trees that seed deliberate
violations.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.engine import ParsedModule


def module_name_for(path: Path) -> str:
    """The dotted module name of ``path``, derived from package layout.

    Walks ancestor directories while they contain ``__init__.py``:
    ``src/repro/cache/cache.py`` -> ``repro.cache.cache`` and
    ``src/repro/cache/__init__.py`` -> ``repro.cache``.  A file outside
    any package names itself (``conftest.py`` -> ``conftest``).
    """
    path = path.resolve()
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root
            break
        current = parent
    return ".".join(parts) if parts else path.stem


@dataclass(frozen=True)
class ImportEdge:
    """One resolved intra-project import: ``importer`` -> ``target``."""

    importer: str
    target: str
    line: int
    #: True for module-level (eagerly executed) imports; False for
    #: imports nested inside a function and for lazy export-table
    #: entries — both run only when the code that needs them does.
    toplevel: bool


@dataclass
class ModuleSymbols:
    """Top-level names a module defines (the pass-1 symbol table)."""

    name: str
    path: Path
    is_package: bool
    functions: dict[str, int] = field(default_factory=dict)
    classes: dict[str, int] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)

    def defines(self, symbol: str) -> bool:
        """True if the module binds ``symbol`` at top level."""
        return (
            symbol in self.functions
            or symbol in self.classes
            or symbol in self.constants
        )


#: The helper whose dict-literal argument is a lazy export table.
_LAZY_EXPORTS = "lazy_exports"


class _ImportCollector(ast.NodeVisitor):
    """Collects raw import statements, tagging function-nested ones.

    Also collects the ``(module, line)`` entries of lazy export tables:
    every string value of a dict literal passed to ``lazy_exports``.
    """

    def __init__(self) -> None:
        self.imports: list[tuple[ast.Import | ast.ImportFrom, bool]] = []
        self.lazy: list[tuple[str, int]] = []
        self._function_depth = 0

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            called = func.attr
        else:
            called = getattr(func, "id", None)
        if called == _LAZY_EXPORTS:
            for argument in node.args:
                if isinstance(argument, ast.Dict):
                    self.lazy.extend(
                        (value.value, value.lineno)
                        for value in argument.values
                        if isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                    )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.append((node, self._function_depth == 0))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.append((node, self._function_depth == 0))


def _collect_symbols(module: "ParsedModule", name: str) -> ModuleSymbols:
    symbols = ModuleSymbols(
        name=name,
        path=module.path,
        is_package=module.path.name == "__init__.py",
    )
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            symbols.classes[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    symbols.constants[target.id] = node.lineno
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                symbols.constants[node.target.id] = node.lineno
    return symbols


class ProjectIndex:
    """The project-wide model every rule may consult (pass 1 output).

    ``modules``
        Dotted name -> parsed module, for every linted file.
    ``symbols``
        Dotted name -> :class:`ModuleSymbols`.
    ``imports``
        Importer dotted name -> resolved intra-project edges.  Only
        edges whose target is itself a linted module are kept; stdlib
        and third-party imports are ignored.
    """

    def __init__(self) -> None:
        self.modules: dict[str, "ParsedModule"] = {}
        self.symbols: dict[str, ModuleSymbols] = {}
        self.imports: dict[str, list[ImportEdge]] = {}
        self._name_by_path: dict[Path, str] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, modules: Iterable["ParsedModule"]) -> "ProjectIndex":
        """Index ``modules``: names, symbols, then resolved imports."""
        index = cls()
        for module in modules:
            name = module_name_for(module.path)
            # Duplicate names (two loose files both named ``util.py`` in
            # unrelated fixture dirs) keep the first occurrence; rules
            # needing exact identity should key by path.
            if name not in index.modules:
                index.modules[name] = module
                index.symbols[name] = _collect_symbols(module, name)
            index._name_by_path[module.path.resolve()] = name
        for name, module in index.modules.items():
            index.imports[name] = list(index._resolve_imports(name, module))
        return index

    def _resolve_imports(
        self, importer: str, module: "ParsedModule"
    ) -> Iterable[ImportEdge]:
        collector = _ImportCollector()
        collector.visit(module.tree)
        package = (
            importer
            if self.symbols[importer].is_package
            else importer.rpartition(".")[0]
        )
        for node, toplevel in collector.imports:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = self._known_target(alias.name)
                    if target is not None:
                        yield ImportEdge(importer, target, node.lineno, toplevel)
                continue
            base = self._absolute_base(node, package)
            if base is None:
                continue
            base_target = self._known_target(base)
            if base_target is not None:
                yield ImportEdge(importer, base_target, node.lineno, toplevel)
            for alias in node.names:
                # ``from pkg import submodule`` also binds the submodule.
                candidate = f"{base}.{alias.name}"
                if candidate in self.modules and candidate != base_target:
                    yield ImportEdge(importer, candidate, node.lineno, toplevel)
        for dotted, line in collector.lazy:
            target = self._known_target(dotted)
            if target is not None:
                yield ImportEdge(importer, target, line, False)

    @staticmethod
    def _absolute_base(node: ast.ImportFrom, package: str) -> str | None:
        """The absolute module path a ``from ... import`` names."""
        if node.level == 0:
            return node.module
        # Relative import: strip ``level - 1`` trailing components from
        # the containing package, then append the stated module.
        parts = package.split(".") if package else []
        if node.level - 1 > len(parts):
            return None  # beyond the project root — unresolvable
        if node.level > 1:
            parts = parts[: -(node.level - 1)]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    def _known_target(self, dotted: str) -> str | None:
        """The longest known module that is ``dotted`` or a prefix of it."""
        name = dotted
        while name:
            if name in self.modules:
                return name
            name = name.rpartition(".")[0]
        return None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def name_of(self, module: "ParsedModule") -> str:
        """The dotted name of a parsed module in this index."""
        resolved = module.path.resolve()
        if resolved in self._name_by_path:
            return self._name_by_path[resolved]
        return module_name_for(module.path)

    def members_of(self, package: str) -> list[str]:
        """Every indexed module inside ``package`` (inclusive)."""
        prefix = package + "."
        return sorted(
            name
            for name in self.modules
            if name == package or name.startswith(prefix)
        )

    def reachable_from(
        self,
        roots: Iterable[str],
        *,
        toplevel_only: bool = True,
        stop_prefixes: tuple[str, ...] = (),
    ) -> dict[str, ImportEdge | None]:
        """Modules importable from ``roots``, with a witness edge each.

        ``roots`` are package or module names; every indexed module under
        a root seeds the walk (witness ``None``).  Traversal follows
        resolved import edges (module-level only unless ``toplevel_only``
        is False) breadth-first, recording the first edge that reached
        each module.  A module matching ``stop_prefixes`` is still
        *reported* as reached but its own imports are not followed —
        that is how a contractually result-neutral layer (``repro.obs``)
        terminates the fingerprint-coverage walk.
        """
        reached: dict[str, ImportEdge | None] = {}
        queue: deque[str] = deque()
        for root in roots:
            for name in self.members_of(root):
                if name not in reached:
                    reached[name] = None
                    queue.append(name)
        while queue:
            current = queue.popleft()
            if _matches_prefix(current, stop_prefixes):
                continue
            for edge in self.imports.get(current, ()):
                if toplevel_only and not edge.toplevel:
                    continue
                if edge.target not in reached:
                    reached[edge.target] = edge
                    queue.append(edge.target)
        return reached


def _matches_prefix(name: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        name == prefix or name.startswith(prefix + ".") for prefix in prefixes
    )


def matches_prefix(name: str, prefixes: tuple[str, ...]) -> bool:
    """True if ``name`` equals or lives under any dotted ``prefix``."""
    return _matches_prefix(name, prefixes)


__all__ = [
    "ImportEdge",
    "ModuleSymbols",
    "ProjectIndex",
    "matches_prefix",
    "module_name_for",
]
