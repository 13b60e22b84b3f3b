"""Hypothesis profiles. ``--hypothesis-profile=ci`` makes every property test reproducible."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=100)
