# lint: skip-file
"""Core simulation module: imports a covered helper eagerly, one lazily."""
from minipkg import helper


def simulate(n):
    """The function-level import below still counts as reachability."""
    from minipkg import lazy

    return helper.assist(n) + lazy.fallback(n)
