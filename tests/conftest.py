import numpy as np
import pytest

from egan import experience


@pytest.fixture(scope="session")
def small_buffer():
    """60 random-policy episodes; enough transitions for distribution checks."""
    return experience.collect_random(60, np.random.default_rng(2024), 200)


@pytest.fixture(scope="session")
def small_encoded(small_buffer):
    return experience.encode_batch(small_buffer, experience.compute_stats(small_buffer))
