"""Lets ``python3 -m pytest perfbench`` run with the repository's addopts.

``pyproject.toml`` passes ``--timeout=300``; without pytest-timeout
installed nothing owns that option, so it is accepted here and ignored.
"""

import importlib.util

if importlib.util.find_spec("pytest_timeout") is None:

    def pytest_addoption(parser):
        parser.addoption("--timeout", default=None, help="ignored (no pytest-timeout)")
