import random

import pytest

from affine_verma import cli, liealg, verma


@pytest.fixture
def rng():
    return random.Random(20260816)


@pytest.fixture
def fresh_caches():
    """Empty algebra and module caches before and after the test.

    A module keeps the fixed states built on it (VermaModule.derived), so a
    test that patches how one is built must neither read a state built by
    an earlier test nor leave its own to later ones.  cli._last_rank goes
    too, so the next `verify all` starts its rank from cleared caches.
    """
    def clear():
        liealg.algebra.cache_clear()
        verma.vacuum_module.cache_clear()
        cli._last_rank = None

    clear()
    yield
    clear()
