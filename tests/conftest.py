"""Test-session settings.

Hypothesis runs derandomized and without its example database, so a run
draws the same examples wherever it runs and whatever earlier runs left in
``.hypothesis/``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
