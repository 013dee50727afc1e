"""Lazy package namespaces: a package's exports load on first use.

A package ``__init__`` that re-exports its submodules' names with
``from ... import`` statements imports every one of them as soon as any
caller touches the package.  Instead, a package declares one literal
table of ``exported name -> defining module`` and hands it to
:func:`lazy_exports`, which returns the package's module-level
``__getattr__`` and ``__dir__`` (PEP 562)::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "ExecEngine": "repro.exec.engine",
        "SimJob": "repro.exec.job",
    })

``from repro.exec import ExecEngine`` then imports ``repro.exec.engine``
and nothing else.  A package keeps its literal ``__all__`` and a
``TYPE_CHECKING`` block with the eager imports, so type checkers see the
same names as before.  The lint index reads these tables as import
edges of the package (``repro.lint.project``), so the fingerprint
coverage proof (rule S002) still follows them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazy package namespace.

    ``exports`` maps each exported name to the absolute name of the
    module defining it; a name equal to that module's last component
    exports the module itself (``"api": "repro.api"``).  The first lookup
    imports that module and binds the value in the package namespace,
    so later lookups never reach ``__getattr__``.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source)
        if source.rpartition(".")[2] == name:
            value: Any = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__all__ = ["lazy_exports"]
