# lint: skip-file
"""Only ever imported inside a function body: reachable all the same."""


def fallback(n):
    """Uncovered: a deferred import changes results like an eager one."""
    return n - 1
