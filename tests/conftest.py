"""Fixtures shared by the test modules."""

import pytest

from vbpc import ndiff as nd


@pytest.fixture
def halves_calls(monkeypatch):
    """Count the calls that ndiff cuts in two: products (solves included),
    Adam blocks and pool draws."""
    calls = []
    real = nd._halves

    def counting(first, second):
        calls.append(1)
        real(first, second)

    monkeypatch.setattr(nd, "_halves", counting)
    return calls
