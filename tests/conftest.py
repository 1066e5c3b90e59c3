"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import fdtdkit.bench as bench


@pytest.fixture
def fast_timing(monkeypatch):
    # shrink the measurement window so unit tests stay quick; the arithmetic
    # under test is independent of the window length
    monkeypatch.setattr(bench, "MIN_WINDOW_S", 0.001)


@pytest.fixture
def refused_thread_starts(monkeypatch):
    # every submit fails as CPython's does when no thread can start, so a
    # test of that failure starts no thread at all
    def refuse(self, fn, /, *args, **kwargs):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
