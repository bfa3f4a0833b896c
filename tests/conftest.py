import numpy as np
import pytest

from dyadicsearch import ChannelSpec, TransmissionPattern, chernoff_information


def random_channel(rng: np.random.Generator, alphabet: int = 2, min_mass: float = 0.02) -> ChannelSpec:
    """Random informative full-support channel with masses bounded away from 0."""
    while True:
        f0 = rng.dirichlet(np.ones(alphabet))
        f1 = rng.dirichlet(np.ones(alphabet))
        f0 = np.maximum(f0, min_mass)
        f1 = np.maximum(f1, min_mass)
        f0 /= f0.sum()
        f1 /= f1.sum()
        if np.max(np.abs(f0 - f1)) > 1e-3:
            return ChannelSpec(outputs=tuple(range(alphabet)), f0=tuple(f0), f1=tuple(f1))


def random_moderate_channel(rng: np.random.Generator, alphabet: int = 2) -> ChannelSpec:
    """Random channel with C below ln 4, i.e. in the r >= 1 staircase regime."""
    while True:
        ch = random_channel(rng, alphabet=alphabet)
        if 0.02 <= chernoff_information(ch).nats <= 1.3:
            return ch


def bumped(t: TransmissionPattern, k: int) -> TransmissionPattern:
    """Copy of t with one extra use of bit k (1-based)."""
    counts = list(t.t) + [0] * max(0, k - len(t.t))
    counts[k - 1] += 1
    return TransmissionPattern(tuple(counts))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
