"""Shared fixtures for the test suite."""

import os

import pytest

# read when pytest loads this file, before any test module is collected
_THREADS_AT_START = os.environ.get("SMIRNOV_THREADS")


@pytest.fixture
def threads_at_start():
    """SMIRNOV_THREADS as it was before the test modules were collected."""
    return _THREADS_AT_START
