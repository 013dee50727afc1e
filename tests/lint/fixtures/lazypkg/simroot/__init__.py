# lint: skip-file
"""Simulation root of the lazy fixture (plays repro.cache)."""
from lazypkg import facade


def simulate(n):
    """Reaches ``hidden`` only through the facade's lazy export table."""
    return facade.fold(n) + facade.twist(n)
