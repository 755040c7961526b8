"""Test-session setup: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
