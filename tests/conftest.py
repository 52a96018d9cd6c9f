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


@pytest.fixture
def non_ascii_numbers() -> tuple[list[str], list[str]]:
    """Ground-truth lines that each put a non-ASCII digit one in one number
    field of an otherwise valid line, and the message each is malformed
    with. The digits are TANGSA DIGIT ONE, new in Unicode 14.0 (so int()
    reads it on Python 3.11 and not on 3.10), and ARABIC-INDIC DIGIT ONE."""
    lines, messages = [], []
    for one in ("\U00016ac1", "\u0661"):
        for position, name in enumerate(("x0", "y0", "x1", "y1", "R", "G", "B"), 1):
            fields = "w\t0\t0\t40\t10\t0\t0\t0\tf\ttitle".split("\t")
            fields[position] = one
            lines.append("\t".join(fields))
            kind = "non-numeric" if position <= 4 else "non-integer"
            messages.append(f"{kind} {name}: {one!r}")
    return lines, messages
