"""The one Hypothesis profile of the suite: every property test draws the
same examples on every run (`derandomize`), and none fails on time alone
(`deadline=None`). A test's own `@settings` sets only its `max_examples`."""

from hypothesis import settings

settings.register_profile("dlw", derandomize=True, deadline=None)
settings.load_profile("dlw")
