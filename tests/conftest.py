"""Test-suite settings shared by every module under tests/."""

import sys
import tempfile

import pytest
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


@pytest.fixture
def default_int_digits():
    """CPython's default limit on int <-> str digits while the test runs, as a fresh process has it
    (Python 3.10.0-3.10.6 have none); the limit in force before is restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(before)
