# lint: skip-file
"""Fingerprinted module behind the lazy table."""


def fold(n):
    """Covered semantics."""
    return n // 2
