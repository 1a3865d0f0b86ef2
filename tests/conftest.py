"""Shared test settings: one hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile("fedquant", max_examples=200, deadline=None)
settings.load_profile("fedquant")
