"""Repository-wide pytest set-up: a hermetic cache directory.

``pytest_configure`` runs before any test module is imported, so the
``REPRO_CACHE_DIR`` it sets is the one every module-level store sees
(``repro.experiments.runner.SHARED_CACHE`` fixes its directory at
import, which makes a fixture too late).  The suite's results, native
artifacts and telemetry therefore land in a per-session temporary
directory, never in ``~/.cache/repro``.  Tests that need a directory of
their own still set one.
"""

from __future__ import annotations

import os
import shutil
import tempfile

_ENV = "REPRO_CACHE_DIR"
_saved = {}


def pytest_configure(config):
    _saved["previous"] = os.environ.get(_ENV)
    _saved["dir"] = tempfile.mkdtemp(prefix="repro-tests-")
    os.environ[_ENV] = _saved["dir"]


def pytest_unconfigure(config):
    if "dir" not in _saved:
        return
    if _saved["previous"] is None:
        os.environ.pop(_ENV, None)
    else:
        os.environ[_ENV] = _saved["previous"]
    shutil.rmtree(_saved.pop("dir"), ignore_errors=True)
