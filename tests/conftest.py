"""One hypothesis profile for every property test: the same examples on
every run, nothing stored between runs, and no per-example deadline.
Tests set only ``max_examples``."""

from hypothesis import settings

settings.register_profile("causalsurv", derandomize=True, database=None, deadline=None)
settings.load_profile("causalsurv")
