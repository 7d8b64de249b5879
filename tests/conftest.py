"""Fixtures shared by every test module."""

import pytest

from prony import prony_line


@pytest.fixture(autouse=True)
def _fresh_line_memo():
    """line_params remembers the most recent line and its domain; start
    every test without it, so that no test sees a family another built."""
    prony_line._line_of.cache_clear()
    yield
    prony_line._line_of.cache_clear()
