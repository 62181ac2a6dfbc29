import numpy as np
import pytest
from hypothesis import settings

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a
# failure can be replayed from the commit alone.
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
