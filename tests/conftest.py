"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def fast_switching():
    """A shortened interpreter switch interval, so that threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
