import warnings

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it
    settings = None

# Every run draws the same examples, locally and in CI, and keeps no
# example database: a property test is as deterministic as the others.
if settings is not None:
    settings.register_profile("lrmc", derandomize=True, database=None,
                              deadline=None)
    settings.load_profile("lrmc")

# When a property test fails, Hypothesis imports its patch writer, which
# imports libcst and, where it is installed, mypy_extensions, whose
# TypedDict raises a DeprecationWarning; pyproject's filterwarnings turns
# that into an internal error that ends the session. Imported here first,
# with that warning ignored, a failing property test reports its failure
# and the session goes on. Without libcst there is no patch writer.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
