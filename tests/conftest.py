from __future__ import annotations

import contextlib
import signal
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture
def deadline():
    """deadline(seconds) is a context manager that raises TimeoutError in its
    block once the seconds are up, so a call that blocks fails the test."""
    @contextlib.contextmanager
    def within(seconds: int):
        def expire(signum, frame):
            raise TimeoutError(f"no result within {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return within


@pytest.fixture
def run_per_document(monkeypatch):
    """Closes each evaluation run at its first document boundary, so a corpus
    of several documents spans several runs and more than one job sends them
    to the worker pool, where a corpus that fits in one run is scored in the
    parent at any worker count."""
    from docbench import pipeline
    monkeypatch.setattr(pipeline, "_RUN_PAGES", 1)
