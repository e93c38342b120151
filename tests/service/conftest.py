"""Shared fixtures for the service tests."""

import sys

import pytest


@pytest.fixture
def hostile_switch_interval():
    """Switch threads every microsecond for the test's duration, so a
    lost update or a missing lock shows in a bounded stress run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
