"""Test-session settings for the whole repository.

Imports write no bytecode, so a test run leaves no ``__pycache__`` under
``src/``: a compiled copy left there is read by later runs of the package,
and would make the benchmark's import time read lower than a fresh
checkout's.
"""

import sys

sys.dont_write_bytecode = True
