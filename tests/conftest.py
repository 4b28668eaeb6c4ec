"""Tier-1 test settings: Hypothesis draws the same examples on every run,
locally and in CI, so a failure reproduces and tier 1 takes a fixed time.
Each property test still sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
