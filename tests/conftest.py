"""Shared test helpers."""

import contextlib
import signal

import numpy as np
import pytest

from diamond_wiretap import rate_functions as rf


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


def rho_bar(p):
    """The anticorrelation at which the combined power s(rho) vanishes:
    (P1 + P2)/(2*sqrt(P1*P2)) >= 1, exactly 1 where P1 = P2.  T1 of scenario
    2 is a maximum over [-rho_bar, 0]."""
    if p.p1 == p.p2:
        return 1.0
    return (p.p1 + p.p2) / (2.0 * rf._k(p))


def reference_rates(p, rho, names):
    """The rates ``names`` of channel ``p`` over the array ``rho``, in numpy:
    f1..f7 written out again from the closed forms of the ``rate_functions``
    docstring, and the ``indicator`` of the strict link conditions of
    PDF-PDF-M, +inf where C1 > f6 and C2 > f7 and 0 elsewhere.  For grids
    too long for the package's float kernel; its values may differ from the
    kernel's in the last bits."""
    r = np.asarray(rho, dtype=float)
    q = 1.0 - r * r
    s = np.maximum(p.p1 + p.p2 + 2.0 * r * np.sqrt(p.p1 * p.p2), 0.0)

    def f6():
        return 0.5 * np.log2((1.0 + p.g * s) / (1.0 + p.g * q * p.p2))

    def f7():
        return 0.5 * np.log2((1.0 + p.g * s) / (1.0 + p.g * q * p.p1))

    forms = {
        "f1": lambda: p.c1 + 0.5 * np.log2(1.0 + q * p.p2),
        "f2": lambda: p.c2 + 0.5 * np.log2(1.0 + q * p.p1),
        "f3": lambda: p.c1 + p.c2 + 0.5 * np.log2(np.maximum(q, 0.0)),
        "f4": lambda: 0.5 * np.log2(1.0 + s),
        "f5": lambda: 0.5 * np.log2(1.0 + p.g * s),
        "f6": f6,
        "f7": f7,
        "indicator": lambda: np.where((p.c1 > f6()) & (p.c2 > f7()), np.inf, 0.0),
    }
    with np.errstate(divide="ignore"):  # f3 is -inf at |rho| = 1
        return {name: forms[name]() for name in names}
