"""Session-wide test settings."""

import os
import shutil
import tempfile

_OWN_STORE = []


def pytest_configure(config):
    """Give the session its own trace store unless one is named.

    Tests emit many throwaway traces; they must not fill the user's
    ``~/.cache/repro/traces``.  An explicit ``REPRO_TRACE_STORE`` is
    kept, so CI can run the suite against a chosen store.  Subprocesses
    inherit the setting.
    """
    if not os.environ.get("REPRO_TRACE_STORE"):
        root = tempfile.mkdtemp(prefix="repro-trace-store-")
        os.environ["REPRO_TRACE_STORE"] = root
        _OWN_STORE.append(root)


def pytest_unconfigure(config):
    for root in _OWN_STORE:
        os.environ.pop("REPRO_TRACE_STORE", None)
        shutil.rmtree(root, ignore_errors=True)
