"""Hypothesis profiles: local runs draw fresh examples; CI selects the
derandomized "ci" profile with HYPOTHESIS_PROFILE=ci, so a property over
wide input ranges gives the same verdict on every run of a commit."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
