"""Fixtures shared by the test modules."""

import pytest

from vbpc import _twocore


@pytest.fixture
def halves_calls(monkeypatch):
    """Count the calls that the scheduler cuts in two: products (solves
    included), Adam blocks, pool draws and Monte Carlo chunks."""
    calls = []
    real = _twocore._halves

    def counting(first, second):
        calls.append(1)
        real(first, second)

    monkeypatch.setattr(_twocore, "_halves", counting)
    return calls
