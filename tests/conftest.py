"""Session setup for the test suite.

When a ``@given`` test fails, Hypothesis imports
``hypothesis.extra._patching`` to write a patch with the failing example.
With libcst installed, that import emits a DeprecationWarning (from
``mypy_extensions.TypedDict``), which ``-W error::DeprecationWarning`` turns
into an INTERNALERROR that ends the run before the remaining tests. The
module is imported here once, with its warnings shown rather than raised;
every other warning filter stays as the command line sets it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("default")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
