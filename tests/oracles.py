"""Scalar reference decoders the package is tested against.

The array kernel of ``dyadicsearch.decoder`` (``_sigmoid``, ``_bit_offset``)
decodes whole blocks from summed log-likelihood ratios, and ``source.bits_array``
reads the bits of many targets at once. The forms here update one posterior
at a time by Bayes' rule and read one bit at a time, so they are independent
of the vectorised code they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dyadicsearch import ChannelSpec, ValidationError
from dyadicsearch.source import BIT_DEPTH_CAP

_LOG_ODDS_SWITCH = 1e-12


def symbol_index(ch: ChannelSpec, y) -> int:
    """The index of output symbol ``y`` in ``ch.outputs``."""
    try:
        return ch.outputs.index(y)
    except ValueError:
        raise ValidationError(f"unknown output symbol {y!r}") from None


def log_ratio(ch: ChannelSpec, y) -> float:
    """ln(f1(y)/f0(y)); +/-inf when exactly one mass is zero."""
    i = symbol_index(ch, y)
    a, b = ch.f0[i], ch.f1[i]
    if b == 0.0:
        return -math.inf
    if a == 0.0:
        return math.inf
    return math.log(b / a)


@dataclass(frozen=True)
class PosteriorState:
    """Per-bit posteriors p_k, k = 1..depth; untracked bits are at prior 1/2."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not (0.0 <= x <= 1.0) for x in self.p):
            raise ValidationError("posterior probabilities must lie in [0, 1]")

    @property
    def depth(self) -> int:
        return len(self.p)


def posterior_update(p: float, y, ch: ChannelSpec) -> float:
    """One Bayes step for a single bit given output symbol y:
    p' = f1(y) p / (f1(y) p + f0(y) (1 - p)).

    0 and 1 are fixed points. Near-certain posteriors are updated in log-odds
    form to avoid underflow in p (1 - p). Once the log-odds pass about 37 in
    magnitude, p rounds to exactly 0 or 1 and stays there, so iterated
    updates are only faithful for short output sequences; the summed
    log-odds of the array kernel (``decoder._sigmoid``) is the exact path
    for long ones.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"posterior {p!r} outside [0, 1]")
    i = symbol_index(ch, y)
    a, b = ch.f0[i], ch.f1[i]
    den = b * p + a * (1.0 - p)
    if den == 0.0:
        raise ValidationError("impossible observation: zero likelihood under the posterior")
    if p == 0.0 or p == 1.0:
        return p
    if p * (1.0 - p) < _LOG_ODDS_SWITCH and a > 0.0 and b > 0.0:
        s = math.log(p / (1.0 - p)) + math.log(b / a)
        return 1.0 / (1.0 + math.exp(-s))
    return b * p / den


def mmse_estimate(state: PosteriorState) -> float:
    """E[X | history] = sum_k p_k 2^(-k), the prior tail summed in closed form.

    Written as 1/2 + sum_k (p_k - 1/2) 2^(-k) so the all-prior state returns
    exactly 0.5.
    """
    return 0.5 + math.fsum((pk - 0.5) * 2.0 ** -(k + 1) for k, pk in enumerate(state.p))


def conditional_distortion(state: PosteriorState) -> float:
    """E[(X_hat - X)^2 | history] = sum_k 4^(-k) p_k (1 - p_k) plus prior tail.

    Centered on the prior so the all-prior state returns exactly 1/12 (the
    variance of Uniform(0, 1)).
    """
    return 1.0 / 12.0 + math.fsum(
        (pk * (1.0 - pk) - 0.25) * 4.0 ** -(k + 1) for k, pk in enumerate(state.p)
    )


@dataclass(frozen=True)
class Message:
    """A target value in [0, 1]; ``bit_of`` reads its binary expansion."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValidationError(f"message value {self.value!r} outside [0, 1]")


def bit_of(m: Message, k: int) -> int:
    """k-th coefficient (k >= 1) of the terminating binary expansion."""
    if k < 1:
        raise ValidationError("bit index must be >= 1")
    if k > BIT_DEPTH_CAP:
        return 0
    # 1.0 has no terminating expansion; it reads as the deepest
    # representable point. Doubling a double in [0, 1) and subtracting off
    # the integer part is exact, so this walks the true expansion bit by bit.
    x = 1.0 - 2.0**-BIT_DEPTH_CAP if m.value >= 1.0 else m.value
    for _ in range(k - 1):
        x *= 2.0
        if x >= 1.0:
            x -= 1.0
    return 1 if 2.0 * x >= 1.0 else 0
