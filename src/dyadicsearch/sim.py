"""Monte-Carlo estimation of end-to-end distortion.

The channel is memoryless, so the decoder sees a bit's t_k outputs only
through their output histogram; the sampler draws that histogram directly,
as a chain of m - 1 conditional binomials per bit (``_draw_llr``), and never
the t_k outputs one by one. The first link, the count of symbol 0, is drawn
by inverse CDF: one uniform per trial searched in a cached table of
Binomial(t_k, p) over the Hoeffding window |c - t_k p| < 5 sqrt(t_k), which
leaves out at most 2 e^-50 of mass. A bit whose window holds more than
``decoder.HISTOGRAM_BUDGET`` counts (t_k above about 1e10) is refused with
``BudgetExceededError``. The prior picks the per-trial statistic:

* uniform prior: importance sampling at the Chernoff tilt
  (``_tilted_values``). The bits are independent, and
  D = sum_k 4^-k V(t_k) + 4^-q / 12 with V(t) = 1/2 E_0[sigma(L_t)], L_t the
  log-likelihood ratio of t outputs. Each bit's histogram is drawn from the
  tilted law f_s proportional to f0^(1-s) f1^s at s = s* and weighted by
  M(s)^t e^(-s L), M(s) = sum_y f0^(1-s) f1^s: the bit's value is
  exp(ln 1/2 + t_k ln M(s) - s L - softplus(-L) - k ln 4). Under the true
  law the histograms that carry V(t) are rare, and a draw from it misses
  them; under f_s they are typical, and the value's relative deviation
  grows only like t^(1/4) (Sadowsky and Bucklew, IEEE Trans. IT 36(3),
  1990; Bucklew, Introduction to Rare Event Simulation, Springer 2004).
  Every term is positive, so the mean is too, and every bit up to q is
  drawn. The
  standard error is floored at a bound on the mean's own rounding
  (``_rounding_bound``), which binds only where the draw is deterministic;
* any other prior: the squared error (X_hat - X)^2 of the MMSE decode mapped
  back through the prior's inverse CDF, in the original domain, where the
  statistic is not additive over bits (``_draw_block``: a target per trial,
  its bits up to the 52-bit cap of a double, each bit's histogram drawn
  under the law of the target's bit).

Reproducibility contract: trials are grouped into fixed blocks of 4096;
block b draws from a Philox stream keyed by (seed, b) in a fixed order and
results are kept in block order. Under the uniform prior the order is, for
each bit with t_k > 0 in ascending index, one uniform per trial for the
count of symbol 0 and then one binomial draw per trial for each of the
symbols 1..m-2 in ascending order; there are no targets. Under any other
prior the block's targets come first, then the same per bit. The randomness
consumed by trial i is therefore a pure function of (seed, trials, i), of
(seed, i) alone when i lies in a full block. Blocks run in one thread:
``jobs`` is validated (>= 1) and changes nothing.

``_squared_errors`` walks the blocks in the outer loop and decodes each with
the array kernel of ``decoder``; ``trial_values`` and
``nonuniform_experiment`` share it. The uniform-prior estimator walks the
bits in the outer loop instead, so each bit's table is looked up once per
estimate.

The staircase sweep ``aurelian_sweep`` takes its patterns stepped from
``policy.aurelian_steps``, which yields each budget's pattern with the bits
that changed since the previous budget. It keeps the per-bit terms of D, U
and L and recomputes only the changed ones, so a step of one use costs a
term or two, not a rebuilt pattern and q oracle lookups; the changed bits
of ``SWEEP_BLOCK`` budgets share one oracle pass. Each row is re-summed
with ``math.fsum``, which is correctly rounded and so independent of the
order of the terms, plus the closed-form tail: the rows equal, float for
float, those computed one budget at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import LN4, ChannelSpec, InfoConstants, chernoff_information, info_constants
from .decoder import (
    HISTOGRAM_BUDGET,
    _check_histogram_total,
    _distortion_sum,
    _distortion_term,
    _uniform_estimate,
    assemble_log_distortion,
    exact_bit_variance,
)
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, _bound_term, _log_bound, _upper_sum, aurelian_steps
from .source import BIT_DEPTH_CAP, PriorSpec, bits_array, from_uniform, uniform_prior

BLOCK_TRIALS = 4096
SWEEP_BLOCK = 256  # budgets whose changed bits share one oracle pass

_SMALLEST_NORMAL = sys.float_info.min
_U = 2.0**-53  # unit roundoff of a double
_LN_HALF = math.log(0.5)

PRIOR_DISTORTION = 1.0 / 12.0


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one Monte-Carlo experiment; immutable and hashable."""

    channel: ChannelSpec
    pattern: TransmissionPattern
    prior: PriorSpec
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValidationError("seed must fit in 64 bits")


@dataclass(frozen=True)
class DistortionEstimate:
    mean: float
    std_error: float
    trials: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValidationError("std_error must be >= 0")
        if not self.mean >= 0.0:
            raise ValidationError(f"distortion mean {self.mean!r} below 0")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _conditional_masses(f: np.ndarray) -> np.ndarray:
    """f(i) / sum_{j >= i} f(j) for i = 0..m-2 in each row of ``f``: the
    chance that a use left after symbols 0..i-1 lands on symbol i. A row
    whose remaining mass is 0 holds 1 there; no use is left to place."""
    tail = np.cumsum(f[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(tail > 0.0, f / tail, 1.0)[:, :-1]
    cond.flags.writeable = False
    return cond


@functools.lru_cache(maxsize=16)
def _histogram_chain(ch: ChannelSpec) -> tuple[np.ndarray, tuple[float, ...]]:
    """The conditional masses of both inputs and the log-likelihood ratios.

    Row b of the (2, m - 1) array is ``_conditional_masses`` of f_b. Column
    0 is the success chance of the first link, drawn from
    ``_first_link_table``; the others feed ``rng.binomial``. The ratios are
    ln f1(i)/f0(i), +-inf at a zero mass.
    """
    f = np.array([ch.f0, ch.f1])
    with np.errstate(divide="ignore"):
        llr = np.log(f[1]) - np.log(f[0])
    return _conditional_masses(f), tuple(llr.tolist())


class _Tilt(NamedTuple):
    """The tilted law f_s = f0^(1-s) f1^s / M(s) that ``_tilted_values`` draws from."""

    cond: np.ndarray | None  # (1, m - 1) conditional masses of f_s
    s: float
    log_m: float  # ln M(s); -inf where no output has mass under both inputs
    spread: float  # largest |ln f0(y)| + |ln f1(y)| over the outputs f_s charges


@functools.lru_cache(maxsize=16)
def _tilt(ch: ChannelSpec) -> _Tilt:
    """f_s at the Chernoff exponent s = s* (1/2 on a pure-noise channel,
    where f_s = f0 = f1). M(s) = sum_y f0(y)^(1-s) f1(y)^s is computed at
    that s; an output with zero mass under f0 or f1 gets none under f_s."""
    s = chernoff_information(ch).s_star if ch.informative else 0.5
    both = [a > 0.0 and b > 0.0 for a, b in zip(ch.f0, ch.f1)]
    if not any(both):
        return _Tilt(None, s, -math.inf, 0.0)
    la, lb = (np.log(np.where(both, f, 1.0)) for f in (ch.f0, ch.f1))
    log_w = np.where(both, (1.0 - s) * la + s * lb, -np.inf)
    top = float(log_w.max())
    w = np.exp(log_w - top)
    total = math.fsum(w.tolist())
    spread = float(np.max(np.abs(la) + np.abs(lb)))
    return _Tilt(_conditional_masses(w[None, :] / total), s, top + math.log(total), spread)


def _window_cdf(t: int, p: float) -> tuple[int, np.ndarray]:
    """Smallest count and 53-bit CDF thresholds of Binomial(t, p) over its
    Hoeffding window.

    The window is the counts c in [0, t] with |c - t p| < 5 sqrt(t). By
    Hoeffding's inequality (JASA 58, 1963) the counts outside it carry at
    most 2 e^-50 < 4e-22 of the mass, far below the 2^-53 resolution of a
    uniform double, so the window is the law as the sampler can see it. The
    pmf is built from its mode outward by the ratio recurrence
    pmf(c + 1) / pmf(c) = (t - c) / (c + 1) * p / (1 - p), normalised over
    the window; threshold i is round(2^53 F(lo + i)) for each count but the
    last, so an integer w uniform on [0, 2^53) lands on count lo + i with
    probability F(lo + i) - F(lo + i - 1) to within 2^-53. A window of more
    than ``HISTOGRAM_BUDGET`` counts is refused with ``BudgetExceededError``.
    """
    half = 5.0 * math.sqrt(t)
    lo = max(math.floor(t * p - half) + 1, 0)
    hi = min(math.ceil(t * p + half) - 1, t)
    if hi - lo + 1 > HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"{t} uses: the Monte-Carlo draw's window holds {hi - lo + 1} counts, "
            f"above the {HISTOGRAM_BUDGET} budget"
        )
    mode = min(max(math.floor((t + 1) * p), lo), hi)
    q = 1.0 - p
    # Each side is empty where its odds would divide by 0 (p = 0 or 1).
    c = np.arange(mode, hi, dtype=np.float64)
    up = np.cumprod((t - c) / (c + 1.0) * (p / q)) if c.size else c
    c = np.arange(mode, lo, -1, dtype=np.float64)
    down = np.cumprod(c / (t - c + 1.0) * (q / p)) if c.size else c
    cdf = np.cumsum(np.concatenate([down[::-1], [1.0], up]))
    return lo, np.rint(cdf[:-1] * (2.0**53 / cdf[-1])).astype(np.int64)


@functools.lru_cache(maxsize=BIT_DEPTH_CAP)
def _first_link_table(
    ch: ChannelSpec, t: int, tilted: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table of the count of symbol 0 after t uses.

    One row per law: the laws of both inputs (rows b = 0, 1 of
    ``_histogram_chain``), or with ``tilted`` the one tilted law of
    ``_tilt``. Row r is ``_window_cdf(t, p_r)``, p_r the law's first
    conditional mass. The rows are stored as one sorted int64 array, row r
    shifted up by r 2^53: the key w + r 2^53 of a uniform integer w on
    [0, 2^53) is searched once (``side="right"``), and the index plus
    ``base[r]`` is the count. Every row keeps all 53 bits of w, which a key
    of ``w + r`` on doubles would not. Each row has at most
    ``HISTOGRAM_BUDGET`` thresholds (8 MB), and the arrays are read-only. An
    estimate looks a bit's table up once and serves all its trial blocks
    from it, so the cache only carries tables from one estimate to the next.
    """
    cond = _tilt(ch).cond if tilted else _histogram_chain(ch)[0]
    rows = [_window_cdf(t, float(p)) for p in cond[:, 0]]
    thresholds = np.concatenate([row + (r << 53) for r, (_, row) in enumerate(rows)])
    before = np.cumsum([0] + [row.size for _, row in rows[:-1]])
    base = np.array([lo for lo, _ in rows]) - before
    thresholds.flags.writeable = False
    base.flags.writeable = False
    return thresholds, base


def _bit_table(ch: ChannelSpec, k: int, t_k: int, tilted: bool) -> tuple[np.ndarray, np.ndarray]:
    """``_first_link_table`` of bit k; a refusal names the bit."""
    try:
        return _first_link_table(ch, t_k, tilted)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"bit {k}: {exc}") from None


def _draw_llr(
    rng: np.random.Generator,
    size: int,
    t_k: int,
    table: tuple[np.ndarray, np.ndarray],
    cond: np.ndarray,
    llr: tuple[float, ...],
    row: np.ndarray | int,
) -> np.ndarray:
    """The log-likelihood-ratio sum of one bit's t_k outputs in each of
    ``size`` trials, drawn through the outputs' histogram.

    The t_k outputs of a bit reach the decoder only through their histogram
    (c_0, ..., c_{m-1}), its sufficient statistic, so the histogram is drawn
    and not the outputs: c_i ~ Binomial(left, cond[row, i]) for
    i = 0..m-2, where ``left`` starts at t_k and drops by each c_i, and the
    last symbol takes what is left. ``row`` picks each trial's law: an int8
    array (the trial's input bit) or 0 for one law that every trial shares.
    The first link c_0 is drawn by inverse CDF: one uniform per trial,
    scaled to a 53-bit integer and searched in the law's row of ``table``
    (``_first_link_table``). Links 1..m-2 of an m-ary channel are
    ``rng.binomial`` draws. The sum is sum_i c_i ln f1(i)/f0(i) over the
    nonzero counts, so a symbol of zero mass (ratio +-inf) never gives
    0 * inf.
    """
    thresholds, base = table
    # random() is an integer multiple of 2^-53, so w is exact.
    w = (rng.random(size) * 2.0**53).astype(np.int64)
    if np.ndim(row):
        w += row.astype(np.int64) << 53
    c = np.searchsorted(thresholds, w, side="right") + base[row]
    left = t_k
    s = np.zeros(size)
    last = len(llr) - 1
    for i, ratio in enumerate(llr):
        if i == last:
            c = left
        elif i > 0:
            c = rng.binomial(left, cond[row, i])
        left = left - c
        if math.isfinite(ratio):
            s += c * ratio
        else:
            s[c > 0] = ratio
    return s


def _draw_block(cfg: SimConfig, block: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Targets and per-bit log-likelihood-ratio sums for one trial block,
    each bit's histogram drawn by ``_draw_llr`` under the law of the
    target's bit.

    Draw order is fixed: the targets, then the bits in ascending index, each
    bit's uniforms for symbol 0 and then its binomials for symbols 1..m-2 in
    ascending order; so the layout depends only on the config. Returns
    (u, [(k, llr_sum)]) for every transmitted bit index k up to the bit
    extraction cap; deeper bits are unknown at prior for both encoder and
    decoder. A bit whose window exceeds ``HISTOGRAM_BUDGET`` counts is
    refused with ``BudgetExceededError`` naming the bit.
    """
    lo = block * BLOCK_TRIALS
    hi = min(cfg.trials, lo + BLOCK_TRIALS)
    rng = _block_rng(cfg.seed, block)
    u = rng.random(hi - lo)
    cond, llr = _histogram_chain(cfg.channel)
    sums: list[tuple[int, np.ndarray]] = []
    for k, t_k in enumerate(cfg.pattern.t[:BIT_DEPTH_CAP], 1):
        if t_k:
            table = _bit_table(cfg.channel, k, t_k, tilted=False)
            sums.append((k, _draw_llr(rng, u.size, t_k, table, cond, llr, bits_array(u, k))))
    return u, sums


def _tilted_values(cfg: SimConfig) -> np.ndarray:
    """Importance-sampling values of the uniform-prior distortion, one per
    trial, in trial order.

    Bit k contributes 4^-k V(t_k), V(t) = 1/2 E_0[sigma(L)], L the
    log-likelihood ratio of the bit's t outputs (the identity of
    ``decoder``). The histogram is drawn from the tilted law f_s^(x t) of
    ``_tilt`` and weighted by P_0(h) / P_s(h) = M(s)^t e^(-s L), so the
    bit's value is exp(ln 1/2 + t ln M(s) - s L - softplus(-L) - k ln 4):
    unbiased for every s, and at most 4^-k M(s)^t / 2. At s = s* the
    tilted mean of L is 0, the histograms that carry V(t) are typical, and
    the value's relative deviation grows only like t^(1/4), where under the
    true law it grows exponentially in t (Sadowsky and Bucklew, IEEE Trans.
    IT 36(3), 1990). A trial's value is the sum of these over the bits with
    t_k > 0, plus 4^-k / 4 for each bit with t_k = 0 and the tail
    4^-q / 12; every term is >= 0 and the tail > 0. Where no output has mass
    under both inputs every output reveals the bit, and V(t_k) = 0.

    Every bit up to q is drawn: no target is drawn, so the 52-bit cap of
    the target's double does not apply. Bit by bit, the bit's table is
    looked up once and serves every block; within block b the stream is
    Philox keyed by (seed, b), and for each drawn bit in ascending order it
    gives one uniform per trial for symbol 0 and then the binomials of
    symbols 1..m-2. Each trial adds its terms in the same order (the shared
    constant, then the bits ascending), whatever the block.
    """
    ch, t = cfg.channel, cfg.pattern.t
    tilt = _tilt(ch)
    shared = [0.25 * 4.0**-k for k, t_k in enumerate(t, 1) if t_k == 0]
    values = np.full(cfg.trials, math.fsum(shared + [4.0 ** -len(t) / 12.0]))
    if tilt.cond is None:
        return values
    llr = _histogram_chain(ch)[1]
    starts = range(0, cfg.trials, BLOCK_TRIALS)
    rngs = [_block_rng(cfg.seed, b) for b in range(len(starts))]
    for k, t_k in enumerate(t, 1):
        if t_k == 0:
            continue
        table = _bit_table(ch, k, t_k, tilted=True)
        shift = _LN_HALF + t_k * tilt.log_m - k * LN4
        for lo, rng in zip(starts, rngs):
            part = values[lo : lo + BLOCK_TRIALS]
            L = _draw_llr(rng, part.size, t_k, table, tilt.cond, llr, 0)
            # -s L - softplus(-L) = -s L + min(L, 0) - ln(1 + e^-|L|)
            part += np.exp(shift - tilt.s * L + np.minimum(L, 0.0) - np.log1p(np.exp(-np.abs(L))))
    return values


def _rounding_bound(cfg: SimConfig) -> float:
    """Relative bound on the floating-point error of the mean of
    ``_tilted_values``; ``estimate_distortion`` floors its standard error
    at this times the mean.

    With u = 2^-53 and G = ``_Tilt.spread``: each ln f carries an error of
    at most u |ln f|, so a ratio ln f1/f0 and each exponent of M(s) one of
    at most 2 u G, and ln M(s), a log of m positive terms, one of at most
    (2 G + m + 2) u; |ln M(s)| <= G, since M(s) >= min(f0(y), f1(y)) on any
    charged output. A count is at most t, so |L| <= t G, and L's m products
    and sums err by at most (m + 2) u t G. The log value
    ln 1/2 + t ln M(s) - k ln 4 - s L + min(L, 0) - ln(1 + e^-|L|) adds six
    terms whose magnitudes sum to at most 3 t G + k ln 4 + 2, so its five
    additions err by at most 5 u (3 t G + k ln 4 + 2). Carrying through the
    error t (2 G + m + 2) u of t ln M(s), the error of L into the three
    terms that read it, and the roundings of the two products and of
    ln(1 + e^-|L|), its error is at most
        u ((3 m + 25) t G + (m + 2) t + 5 k ln 4 + 12)
        <= eta_k = (3 m + 26) u (t_k (G + 1) + k ln 4 + 1).
    Its exp then errs by at most a factor e^eta_k (1 + u). A trial adds q
    or fewer non-negative terms to the shared constant, which costs a factor
    (1 + u)^q (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., section 4.2), and numpy's pairwise mean of N non-negative values,
    summed 8 ways over leaves of 128, costs at most (1 + u)^(log2 N + 21)
    with the division. The product of these factors, less 1, bounds the
    relative error of the mean. It grows like t_k u: on ``bac:0.9,0.8`` it
    is 2.5e-13 for ``aurelian(59)`` and 1.0e-11 for ``aurelian(1e5)``, far
    below any Monte-Carlo error; it binds only where the draw is
    deterministic (a Z channel, or a pure-noise one), where the sample
    deviation is 0 but the mean still carries rounding.
    """
    tilt = _tilt(cfg.channel)
    m = len(cfg.channel.outputs)
    eta = max(
        ((3 * m + 26) * _U * (t_k * (tilt.spread + 1.0) + k * LN4 + 1.0)
         for k, t_k in enumerate(cfg.pattern.t, 1) if t_k),
        default=0.0,
    )
    levels = cfg.pattern.q + math.ceil(math.log2(cfg.trials)) + 22
    return math.exp(eta) * (1.0 + _U) ** levels - 1.0


def _squared_errors(cfg: SimConfig) -> np.ndarray:
    """Squared errors of the MMSE decode of every trial, in trial order, one
    ``_draw_block`` per trial block: row 0 in the uniform domain,
    (F_n - F(X))^2; row 1 in the original domain, (X_hat - X)^2."""
    parts = []
    for block in range(-(-cfg.trials // BLOCK_TRIALS)):
        u, sums = _draw_block(cfg, block)
        u_hat = _uniform_estimate(u.size, sums)
        x = from_uniform(cfg.prior, u)
        x_hat = from_uniform(cfg.prior, u_hat)
        parts.append(np.stack([(u_hat - u) ** 2, (x_hat - x) ** 2]))
    return np.concatenate(parts, axis=1)


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


def trial_values(cfg: SimConfig, jobs: int = 1) -> np.ndarray:
    """Statistic of every trial, in trial order: the importance-sampling
    value of ``_tilted_values`` under the uniform prior, the original-domain
    squared error under any other. ``jobs`` must be >= 1; the blocks run in
    one thread, so the array is the same whatever its value."""
    _check_jobs(jobs)
    if cfg.prior.kind == "uniform":
        return _tilted_values(cfg)
    return _squared_errors(cfg)[1]


def estimate_distortion(cfg: SimConfig, jobs: int = 1) -> DistortionEstimate:
    """Mean and standard error over cfg.trials trials, the same for any
    ``jobs``.

    Under the uniform prior the standard error is at least the rounding
    bound of ``_rounding_bound`` times the mean: a deterministic draw (a Z
    channel) has sample deviation 0, but its mean is still only as exact
    as its arithmetic.
    """
    mean, se = _mean_se(trial_values(cfg, jobs))
    if cfg.prior.kind == "uniform":
        se = max(se, mean * _rounding_bound(cfg))
    # The estimate and the target both lie in the prior's support, so no
    # trial's squared error, and no mean, exceeds the squared support width.
    a, b = cfg.prior.support
    if mean > (b - a) ** 2 + 1e-9:
        raise ValidationError(
            f"distortion mean {mean!r} above the squared support width {(b - a) ** 2!r}"
        )
    return DistortionEstimate(mean=mean, std_error=se, trials=cfg.trials)


@dataclass(frozen=True)
class SweepRow:
    n: int
    q: int
    t1: int
    distortion: float
    std_error: float
    upper: float
    lower: float
    log_d_over_sqrt_n: float
    log_u_over_sqrt_n: float
    d_over_d0: float


@dataclass(frozen=True)
class SweepResult:
    constants: InfoConstants
    rows: tuple[SweepRow, ...]


def aurelian_sweep(
    channel: ChannelSpec,
    n_values: list[int],
    exact: bool = True,
    trials: int = 100_000,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Distortion of the staircase policy along a budget grid.

    ``exact`` uses the histogram oracle (preferred); otherwise the
    importance-sampling Monte-Carlo estimate for the uniform target with the
    given trials and seed, whose row is refused with ``BudgetExceededError``
    only where its mean underflows the double range.
    Rows carry D_n, the bounds U and L, ln(D_n)/sqrt(n), ln(U_n)/sqrt(n) and
    D_n / D_0 with D_0 = 1/12; the channel constants ride along for the
    -A1 / -A2 reference lines.

    The patterns come stepped from ``aurelian_steps``. The per-bit terms of
    D, U and L are kept in three lists, and only the bits a budget step
    changed are recomputed, from the same per-term expressions that
    ``exact_distortion``, ``upper_bound`` and ``lower_bound`` use. Each row
    is re-summed with ``math.fsum``, which is correctly rounded whatever the
    order, plus the same closed-form tail, so every value equals the one
    those functions give for ``aurelian(n)``. Where an exact D or a U is
    below the smallest normal double, its log column comes from the
    log-domain sum (``assemble_log_distortion``, the closed-form ln U)
    instead of the log of the double. A row whose changed bits exceed the
    oracle's histogram budget is refused with ``BudgetExceededError``.
    """
    _check_jobs(jobs)
    consts = info_constants(channel)
    rows = []
    d_terms: list[float] = []
    log_v: list[float] = []
    u_terms: list[float] = []
    l_terms: list[float] = []
    steps = zip(n_values, aurelian_steps(n_values, consts))
    while block := list(itertools.islice(steps, SWEEP_BLOCK)):
        looked_up = iter(_changed_log_variances(block, channel) if exact else ())
        for n, (t, changed) in block:
            q = len(t)
            if q != len(u_terms):  # every index from the old q on is in ``changed``
                for terms in (d_terms, log_v, u_terms, l_terms):
                    del terms[q:]
                    terms.extend([0.0] * (q - len(terms)))
            for k in changed:
                u_terms[k] = _bound_term(k, t[k], consts.C)
                l_terms[k] = _bound_term(k, t[k], consts.B)
            if exact:
                for k in changed:
                    log_v[k] = next(looked_up)
                    d_terms[k] = _distortion_term(k, log_v[k])
                d, se = _distortion_sum(d_terms), 0.0
                log_d = math.log(d) if d >= _SMALLEST_NORMAL else assemble_log_distortion(log_v)
            else:
                cfg = SimConfig(
                    channel=channel,
                    pattern=TransmissionPattern(t),
                    prior=uniform_prior(),
                    trials=trials,
                    seed=seed,
                )
                est = estimate_distortion(cfg, jobs=jobs)
                d, se = est.mean, est.std_error
                if d <= 0.0:  # every term is positive: the mean is below the double range
                    raise BudgetExceededError(
                        f"Monte-Carlo distortion at n={n} underflows the double range; "
                        "use the exact oracle (--mode exact), whose log columns stay finite"
                    )
                log_d = math.log(d)
            u = _upper_sum(u_terms)
            log_u = math.log(u) if u >= _SMALLEST_NORMAL else _log_bound(t, consts.C)
            rows.append(
                SweepRow(
                    n=n,
                    q=q,
                    t1=t[0],
                    distortion=d,
                    std_error=se,
                    upper=u,
                    lower=0.25 * _upper_sum(l_terms),
                    log_d_over_sqrt_n=log_d / math.sqrt(n),
                    log_u_over_sqrt_n=log_u / math.sqrt(n),
                    d_over_d0=d / PRIOR_DISTORTION,
                )
            )
    return SweepResult(constants=consts, rows=tuple(rows))


def _changed_log_variances(block: list, channel: ChannelSpec) -> list[float]:
    """ln V of every changed bit of a block of sweep steps, in step order,
    from one oracle lookup. Each step's bits are held to the pattern
    histogram budget on their own, as one pattern's are."""
    counts: list[int] = []
    for _, (t, changed) in block:
        step = [t[k] for k in changed]
        _check_histogram_total(step, channel)
        counts += step
    return exact_bit_variance.log_values(counts, channel)


@dataclass(frozen=True)
class NonuniformReport:
    """Both sides of the CDF-transform inequality, estimated on shared trials."""

    uniform_mse: float
    uniform_se: float
    original_mse: float
    original_se: float
    lipschitz_sq: float
    margin_mean: float
    margin_se: float
    inequality_ok: bool
    trials: int


def nonuniform_experiment(
    channel: ChannelSpec,
    prior: PriorSpec,
    pattern: TransmissionPattern,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> NonuniformReport:
    """Locates F(X) with the dyadic policy and maps back through F^{-1}.

    Estimates the uniform-domain distortion E[(F_n - F(X))^2] and the
    original-domain distortion E[(X_hat - X)^2] on the same trials, and checks
    uniform <= lipschitz_sq * original within 3 standard errors of the
    per-trial margin. (With X_hat = F^{-1}(F_n) and F Lipschitz the inequality
    holds trial by trial, so the check is one-sided.)
    """
    cfg = SimConfig(channel=channel, pattern=pattern, prior=prior, trials=trials, seed=seed)
    _check_jobs(jobs)
    e_u, e_x = _squared_errors(cfg)
    u_mse, u_se = _mean_se(e_u)
    x_mse, x_se = _mean_se(e_x)
    m_mean, m_se = _mean_se(prior.lipschitz_sq * e_x - e_u)
    return NonuniformReport(
        uniform_mse=u_mse,
        uniform_se=u_se,
        original_mse=x_mse,
        original_se=x_se,
        lipschitz_sq=prior.lipschitz_sq,
        margin_mean=m_mean,
        margin_se=m_se,
        inequality_ok=bool(m_mean >= -3.0 * m_se),
        trials=trials,
    )
