"""Suite-wide hang guard for runs without ``pytest-timeout``.

``SimWorld.run_spmd`` parks rank threads on empty mailboxes, so a
scheduling bug can hang a test for good.  Where ``pytest-timeout`` is
installed it enforces the ``timeout`` from ``pyproject.toml`` and this
guard stays off; without it, a test still running after ``timeout``
seconds dumps every thread's traceback to the terminal's stderr and
exits the process.
"""

import faulthandler
import os

import pytest

_STDERR = pytest.StashKey()


def pytest_configure(config):
    if config.pluginmanager.hasplugin("timeout"):
        return
    # a private duplicate of the terminal's stderr: output capture
    # redirects fd 2 during each test, and the dump must still be seen
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    if _STDERR in config.stash:
        config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def _hang_guard(request):
    err = request.config.stash.get(_STDERR, None)
    if err is None:
        yield
        return
    seconds = float(request.config.inicfg.get("timeout", 120))
    faulthandler.dump_traceback_later(seconds, exit=True, file=err)
    yield
    faulthandler.cancel_dump_traceback_later()
