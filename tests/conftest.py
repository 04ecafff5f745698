"""Shared fixtures."""

import pytest

from pcgrav import fields as F


@pytest.fixture
def threads(request):
    """Worker threads of the wedge and ext_d pool for one test (indirect
    parameter), restored afterwards."""
    previous = F._threads
    F.set_threads(request.param)
    yield request.param
    F.set_threads(previous)
