"""Checks that every test shares."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or unreaped: the
    forked shares of ``sweep`` and ``grouping_error`` must all be reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process ({f'pid {pid}' if pid else 'still running'})")
