# lint: skip-file
"""A lazy package namespace: no eager import names ``hidden``."""
from repro._lazy import lazy_exports

__all__ = ["fold", "twist"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "fold": "lazypkg.facade.covered",
        "twist": "lazypkg.facade.hidden",
    },
)
