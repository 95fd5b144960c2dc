"""Shared test settings: a derandomised hypothesis profile for CI.

``HYPOTHESIS_PROFILE=ci`` makes every property test draw the same examples
on every run and print the blob that replays a failure, so a failure seen
in CI reproduces locally with the same variable set.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
    if os.environ.get("HYPOTHESIS_PROFILE"):
        settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
