"""Test-suite settings shared by every module under tests/."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized, with no example database: every run draws the same examples.
settings.register_profile("tensorlimits", derandomize=True, deadline=None, database=None)
settings.load_profile("tensorlimits")

# Hypothesis still caches the constants it scans from loaded modules; keep that
# cache in a temporary directory, removed at exit, instead of .hypothesis/ in
# the working directory.
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)
