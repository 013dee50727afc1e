# lint: skip-file
"""Synthetic package for the S002 lazy-export coverage test."""
