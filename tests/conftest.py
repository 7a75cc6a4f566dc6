"""Shared test configuration: one Hypothesis profile for every @given test,
and the `outcome` fixture of the edge-case tables.

Runs are derandomized (the same examples on every run) and have no
per-example deadline, so a property test cannot be flaky by default; each
test sets only its own `max_examples`.
"""

import pytest
from hypothesis import settings

settings.register_profile("metalie", deadline=None, derandomize=True)
settings.load_profile("metalie")


@pytest.fixture
def outcome():
    """outcome(call): what call() returns, or the (type, message) of the
    exception it raises, so that one table pins values and errors alike."""

    def run(call):
        try:
            return call()
        except Exception as e:
            return type(e), str(e)

    return run
