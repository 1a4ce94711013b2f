"""Tier-1 runs the same Hypothesis examples every time.

``.hypothesis/`` is git-ignored, so an example found by chance is
neither reproducible nor recorded: tier-1 must not depend on one.
Random exploration is the ``fuzz-smoke`` CI job's business, and the
``deep`` profile's (``--hypothesis-profile=deep``: fresh randomness and
2,000 examples for a property that reads its count from the profile);
a schedule worth keeping becomes an ``@example`` or a pinned regression.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", max_examples=2000, database=None)
settings.load_profile("tier1")
