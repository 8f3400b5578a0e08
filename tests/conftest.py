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
