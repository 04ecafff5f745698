"""Shared fixtures."""

import pytest

from pcgrav import fields as F


@pytest.fixture
def threads(request):
    """Worker threads of the pool that splits the Leibniz ladder's t range,
    for one test (indirect parameter), restored afterwards.  Kernel tests
    that take it run the same at any count: wedge and ext_d run in the
    calling thread."""
    previous = F._threads
    F.set_threads(request.param)
    yield request.param
    F.set_threads(previous)
