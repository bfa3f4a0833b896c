import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dyadicsearch import ChannelSpec, TransmissionPattern, chernoff_information
from dyadicsearch.sim import BLOCK_TRIALS, _bit_table, _block_rng, _draw_llr
from dyadicsearch.source import BIT_DEPTH_CAP, bits_array


# The Z channel: input 0 always gives output 0, input 1 gives 1 with 0.7.
# Output 1 has zero mass under input 0, so its log-likelihood ratio is +inf.
Z_CHANNEL = ChannelSpec(outputs=(0, 1), f0=(1.0, 0.0), f1=(0.3, 0.7))


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


def draw_block(cfg, block: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Targets and per-bit log-likelihood-ratio sums of one trial block,
    drawn trial by trial with ``sim._draw_llr`` in the simulator's order:
    the block's targets, then each transmitted bit up to the 52-bit cap in
    ascending index, under the law of the target's bit. Returns
    (u, [(k, llr_sum)]): the per-trial reference of ``sim._squared_errors``."""
    lo = block * BLOCK_TRIALS
    rng = _block_rng(cfg.seed, block)
    u = rng.random(min(cfg.trials, lo + BLOCK_TRIALS) - lo)
    sums = []
    for k, t_k in enumerate(cfg.pattern.t[:BIT_DEPTH_CAP], 1):
        if t_k:
            table = _bit_table(cfg.channel, k, t_k, tilted=False)
            sums.append((k, _draw_llr(rng, u.size, table, bits_array(u, k))))
    return u, sums


@functools.lru_cache(maxsize=None)
def bench_reference(ch: ChannelSpec):
    """The benchmark's independent pure-Python log-space reference
    (``bench/reference.py``) for ``ch``, shared so its ln V values are reused."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Reference(list(ch.f0), list(ch.f1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
