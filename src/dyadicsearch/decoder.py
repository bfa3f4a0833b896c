"""Per-bit Bayesian decoding and the exact distortion oracle.

Bits of the target are independent under the uniform prior, and transmissions
are memoryless, so the decoder state is just the per-bit posterior
p_k = P(X_k = 1 | history). One channel output y moves a posterior p to

    p' = f1(y) p / (f1(y) p + f0(y) (1 - p)).

The minimum mean squared error estimate and its conditional error follow in
closed form; bits beyond the tracked depth sit at their prior 1/2 and their
contribution is summed analytically.

Two forms of the same decoder live here. The array kernel (``_sigmoid``,
``_stable_pq``, ``_uniform_estimate``) works on log-odds: the log-odds of bit
k is the sum of the log-likelihood ratios ln(f1(y)/f0(y)) of its outputs, so
a whole block of trials decodes with a few vectorised operations. The
simulator and the exact oracle use it. The scalar forms
(``posterior_update``, ``mmse_estimate``, ``conditional_distortion``,
``PosteriorState``) update one posterior at a time by Bayes' rule; they are
the independent oracles the kernel is tested against.

The exact oracle exploits exchangeability: t i.i.d. outputs enter the
posterior only through their histogram, so E[p(1-p)] after t uses is an exact
finite sum over the C(t+m-1, m-1) histograms of an m-symbol alphabet (t+1
terms for binary channels). This is what makes exact large-n sweeps cheap.
The histograms are one integer array, built by stars and bars
(``policy.compositions``) for m >= 3, and the multinomial coefficients come
from one module-level table of ln i! (``math.lgamma(i + 1.0)``) that every
call shares and that grows on demand. A bit therefore costs numpy work over
its C(t+m-1, m-1) rows, and a whole pattern O(max t_k) ``lgamma`` calls. The
table holds ln i! only, the same in every process; results are cached per
(t_k, channel) by ``exact_bit_variance``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelSpec
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, compositions

HISTOGRAM_BUDGET = 1_000_000

_LOG_ZERO = -1e30  # stand-in for log 0; exp underflows to exactly 0.0
_LOG_ODDS_SWITCH = 1e-12


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
    """One Bayes step for a single bit given output symbol y.

    0 and 1 are fixed points. Near-certain posteriors are updated in log-odds
    form to avoid underflow in p (1 - p). Once the log-odds pass about 37 in
    magnitude, p rounds to exactly 0 or 1 and stays there, so iterated
    updates are only faithful for short output sequences; the summed
    log-odds of the array kernel (``_sigmoid``) is the exact path for long
    ones.
    """
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"posterior {p!r} outside [0, 1]")
    i = ch.symbol_index(y)
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
    return 0.5 + math.fsum(
        (pk - 0.5) * 2.0 ** -(k + 1) for k, pk in enumerate(state.p)
    )


def conditional_distortion(state: PosteriorState) -> float:
    """E[(X_hat - X)^2 | history] = sum_k 4^(-k) p_k (1 - p_k) plus prior tail.

    Centered on the prior so the all-prior state returns exactly 1/12 (the
    variance of Uniform(0, 1)).
    """
    return 1.0 / 12.0 + math.fsum(
        (pk * (1.0 - pk) - 0.25) * 4.0 ** -(k + 1) for k, pk in enumerate(state.p)
    )


def _sigmoid(s: np.ndarray) -> np.ndarray:
    """Posterior P(bit = 1) from log-odds s, without overflow at large |s|."""
    with np.errstate(over="ignore"):
        return np.where(s >= 0.0, 1.0 / (1.0 + np.exp(-s)), np.exp(s) / (1.0 + np.exp(s)))


def _stable_pq(s: np.ndarray) -> np.ndarray:
    # p (1 - p) for p = sigmoid(s), computed as e^{-|s|} / (1 + e^{-|s|})^2.
    e = np.exp(-np.abs(s))
    return e / (1.0 + e) ** 2


def _uniform_estimate(u_size: int, sums: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """MMSE decode 1/2 + sum_k (p_k - 1/2) 2^(-k) from per-bit log-odds sums."""
    est = np.full(u_size, 0.5)
    for k, s in sums:
        est += (_sigmoid(s) - 0.5) * 2.0**-k
    return est


def _histograms(t: int, m: int) -> np.ndarray:
    """All m-part compositions of t as an integer array, one histogram per row."""
    if m == 2:
        j = np.arange(t + 1, dtype=np.int64)
        return np.stack([t - j, j], axis=1)
    return np.concatenate(list(compositions(t, m)))


# ln i! = math.lgamma(i + 1.0) for i = 0, 1, ..., len - 1, shared by every
# call and grown on demand.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(t: int) -> np.ndarray:
    """The shared ln i! table, grown (at least doubling) to hold i = 0..t."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size <= t:
        grown = range(table.size, max(t + 1, 2 * table.size))
        table = np.concatenate([table, [math.lgamma(i + 1.0) for i in grown]])
        _LOG_FACTORIALS = table
    return table


def _safe_log(masses: tuple[float, ...]) -> np.ndarray:
    return np.array([math.log(p) if p > 0.0 else _LOG_ZERO for p in masses])


@functools.lru_cache(maxsize=None)
def exact_bit_variance(t_k: int, ch: ChannelSpec) -> float:
    """Exact E[Var(X_k | history)] after t_k i.i.d. uses for bit k.

    Enumerates output histograms: with the fair prior on the bit, a histogram
    h has weight (P(h|0) + P(h|1))/2 and posterior variance
    P(h|0) P(h|1) / (P(h|0) + P(h|1))^2, evaluated in log space. t_k = 0 is
    the prior variance 1/4.
    """
    if t_k < 0:
        raise ValidationError("repetition count must be >= 0")
    if t_k == 0:
        return 0.25
    m = len(ch.outputs)
    count = math.comb(t_k + m - 1, m - 1)
    if count > HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"histogram enumeration too large: {count} exceeds {HISTOGRAM_BUDGET}"
        )
    H = _histograms(t_k, m)
    lg = _log_factorials(t_k)
    # A binary row sum is one addition of non-negative terms, the same value
    # in any summation order, so it skips numpy's per-row reduction.
    row_lg = lg[H[:, 0]] + lg[H[:, 1]] if m == 2 else lg[H].sum(axis=1)
    log_mult = lg[t_k] - row_lg
    lp0 = log_mult + H @ _safe_log(ch.f0)
    lp1 = log_mult + H @ _safe_log(ch.f1)
    weight = 0.5 * np.exp(lp0) + 0.5 * np.exp(lp1)
    return float(np.sum(weight * _stable_pq(lp1 - lp0)))


def _distortion_term(k: int, t_k: int, ch: ChannelSpec) -> float:
    """4^-(k+1) E[Var(X_{k+1} | history)]: the term of 0-based bit k in D."""
    return 4.0 ** -(k + 1) * exact_bit_variance(t_k, ch)


def _distortion_sum(terms: Sequence[float]) -> float:
    """D from the terms of bits 1..q: their fsum plus the prior-variance tail."""
    return math.fsum(terms) + 0.25 * (4.0 ** -len(terms) / 3.0)


def exact_distortion(t: TransmissionPattern, ch: ChannelSpec) -> float:
    """Exact end-to-end distortion D(t) = sum_k 4^(-k) E[Var(X_k | history)].

    Per-bit terms come from ``exact_bit_variance``; bits beyond the last
    transmitted index contribute their prior variance, summed in closed form.
    Positive-term summation keeps relative precision at any scale.
    """
    return _distortion_sum([_distortion_term(k, tk, ch) for k, tk in enumerate(t.t)])
