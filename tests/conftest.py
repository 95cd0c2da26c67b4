import multiprocessing

import pytest


@pytest.fixture
def fork_workers(monkeypatch):
    """Start a run's workers with `fork` whatever the default start method,
    so they inherit what the test patched in this process, such as a
    failing checker in `verify._CHECKERS`.  Under `spawn` or `forkserver`
    a worker imports the package afresh and sees none of it."""
    fork = multiprocessing.get_context("fork").Process
    monkeypatch.setattr(multiprocessing, "Process", fork)
