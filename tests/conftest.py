"""Test-session settings shared by every module.

Hypothesis prints a ``@reproduce_failure`` blob with each falsifying example,
so a rare failure can be replayed exactly even when no example database is
kept.  The profile inherits every other setting from the active one.

Every test runs under a watchdog: a test still running after
``WATCHDOG_SECONDS`` dumps every thread's traceback to stderr and ends the
run with exit code 1, so a regression that makes a test run without end
fails within minutes.  The slowest test takes a few seconds.
"""

import faulthandler
import os
import sys

import pytest
from hypothesis import settings

WATCHDOG_SECONDS = 120

settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of the real stderr: pytest captures fd 2 while a test runs, and
    # the watchdog's traceback must reach the terminal, not the capture.
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def watchdog(pytestconfig):
    stderr = pytestconfig.stash[_STDERR]
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
