# lint: skip-file
"""Suppression fixture: identical violations, first one disabled."""


quiet_fj = 0.3  # lint: disable=R002

# Lines 5 and 10 seed the same R002 violation; only line 5 carries
# the disable comment, so only line 10 is reported.

loud_fj = 0.3
