"""Fixtures shared by the test modules."""

import pytest

import fdtdkit.bench as bench


@pytest.fixture
def fast_timing(monkeypatch):
    # shrink the measurement window so unit tests stay quick; the arithmetic
    # under test is independent of the window length
    monkeypatch.setattr(bench, "MIN_WINDOW_S", 0.001)
