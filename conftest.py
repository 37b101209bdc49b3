"""Test-session settings for the whole repository.

Imports write no bytecode, so a test run leaves no ``__pycache__`` under
``src/``: a compiled copy left there is read by later runs of the package,
and would make the benchmark's import time read lower than a fresh
checkout's.

When collection ends, every object it made (test modules, Hypothesis
strategies, parametrized inputs) is moved to the collector's permanent
generation, so the full collections the tests trigger no longer traverse it.
"""

import gc
import sys

sys.dont_write_bytecode = True


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()
