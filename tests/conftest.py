"""Hypothesis profiles: `ci` makes every property test draw the same examples
on every run. Select it with HYPOTHESIS_PROFILE=ci; local runs keep the
default profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
