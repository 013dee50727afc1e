# lint: skip-file
"""Reachable only through the lazy table and missing from coverage."""


def twist(n):
    """Semantics-bearing arithmetic the fingerprint would miss."""
    return n * 3 + 1
