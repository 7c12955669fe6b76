"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` runs each property with
2,000 examples (CI's delay-kernel step); unset, the default budget holds."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
