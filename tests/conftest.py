"""Settings shared by the test modules.

The hypothesis properties all run under one registered profile: a fixed
example budget, no deadline, derandomized and with no example database,
so every run draws the same examples.  Without hypothesis installed the
modules import the stand-ins below instead: every property test is
collected and skipped, and the other tests run as usual.
"""

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:

    class _Absent:
        """Takes the place of any strategy or strategy helper."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Absent()

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")

    def example(*args, **kwargs):
        return lambda test: test

else:
    settings.register_profile("nbhd", max_examples=60, deadline=None, derandomize=True, database=None)
    settings.load_profile("nbhd")
