"""Shared test configuration: one Hypothesis profile for every @given test.

Runs are derandomized (the same examples on every run) and have no
per-example deadline, so a property test cannot be flaky by default; each
test sets only its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("metalie", deadline=None, derandomize=True)
settings.load_profile("metalie")
