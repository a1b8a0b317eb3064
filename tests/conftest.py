"""Shared test helpers."""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """Context manager that raises TimeoutError once its wall-clock limit passes,
    so that a call that never returns fails the test instead of blocking the run."""
    return _deadline
