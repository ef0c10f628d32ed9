import numpy as np
import pytest


@pytest.fixture()
def rng(request):
    """A generator of the test's own, seeded from its node id: adding or removing a test
    leaves the data of every other test unchanged."""
    return np.random.default_rng(list(request.node.nodeid.encode()))
