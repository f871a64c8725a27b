"""Suite-wide settings: one fixed, derandomised ``hypothesis`` profile.

The properties draw the same examples on every run, write no example
database, and keep a bounded example count so that they stay a few seconds
of the suite.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "tdoaloc", derandomize=True, database=None, deadline=None, max_examples=100
    )
    settings.load_profile("tdoaloc")
