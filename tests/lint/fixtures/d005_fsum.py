# lint: skip-file
"""D005 fixture: bare float accumulation of *_fj values in loops."""


def total_energy(stats_list):
    """Line 9 below is the seeded D005 violation (plain loop shape)."""
    total = 0.0
    for stats in stats_list:
        total += stats.leakage_fj
    return total


def guarded(stats_list, include):
    """Line 18 below is a seeded D005 violation (guarded shape)."""
    grand = 0.0
    for stats in stats_list:
        if include:
            grand += stats.total_fj
    return grand


def clean(stats_list):
    """Counter accumulation and fsum-based totals stay quiet."""
    import math

    count = 0
    for stats in stats_list:
        count += 1
    return count, math.fsum(s.total_fj for s in stats_list)
