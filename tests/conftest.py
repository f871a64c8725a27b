"""Suite-wide settings: one fixed, derandomised ``hypothesis`` profile.

The properties draw the same examples on every run, write no example
database, and keep a bounded example count so that they stay a few seconds
of the suite. What hypothesis still stores (its cache of constants found in
the source) goes to a temporary directory that is removed after the run,
not to ``.hypothesis/`` in the working directory.
"""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    _storage = tempfile.TemporaryDirectory(prefix="tdoaloc-hypothesis-")
    set_hypothesis_home_dir(_storage.name)
    settings.register_profile(
        "tdoaloc", derandomize=True, database=None, deadline=None, max_examples=100
    )
    settings.load_profile("tdoaloc")

    def pytest_unconfigure(config):
        _storage.cleanup()
