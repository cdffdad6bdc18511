"""Test-session settings shared by every module.

Hypothesis prints a ``@reproduce_failure`` blob with each falsifying example,
so a rare failure can be replayed exactly even when no example database is
kept.  The profile inherits every other setting from the active one.
"""

from hypothesis import settings

settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")
