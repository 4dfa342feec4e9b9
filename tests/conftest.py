"""Test-session settings.

Hypothesis keeps drawing random examples; a failing one prints its
@reproduce_failure blob, so the failure can be replayed exactly.
"""

from hypothesis import settings

settings.register_profile("cstrack", print_blob=True)
settings.load_profile("cstrack")
