"""The one Hypothesis profile of the suite: every property test draws the
same examples on every run (`derandomize`), and none fails on time alone
(`deadline=None`). A test's own `@settings` sets only its `max_examples`.

When a property fails, Hypothesis imports its patch writer, which imports
libcst where that is installed, and libcst imports `mypy_extensions.TypedDict`,
which warns that it is deprecated. Under `-W error` that warning, raised
inside pytest's report hook, ends the whole run with INTERNALERROR in place
of one failed test. So the writer is imported here, once, with only that
warning ignored; without libcst the import fails and nothing changes."""

import warnings

from hypothesis import settings

settings.register_profile("dlw", derandomize=True, deadline=None)
settings.load_profile("dlw")

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
