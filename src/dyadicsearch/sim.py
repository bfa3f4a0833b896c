"""Monte-Carlo estimation of end-to-end distortion.

A trial draws a target, sends the bits of its uniform-domain image through
the channel according to the transmission pattern, runs the per-bit posterior
updates, and scores the decoder. The channel is memoryless, so the decoder
sees a bit's t_k outputs only through their output histogram; the sampler
draws that histogram directly, as a chain of m - 1 conditional binomials per
bit, and never the t_k outputs one by one. The first link, the count of
symbol 0, has the same t_k trials in every trial of the bit, so it is drawn
by inverse CDF: one uniform per trial searched in a cached table of
Binomial(t_k, f_b(0)) for both inputs b, built over the Hoeffding window
|c - t_k f_b(0)| < 5 sqrt(t_k), which leaves out at most 2 e^-50 of mass.
A bit whose window holds more than ``decoder.HISTOGRAM_BUDGET`` counts
(t_k above about 1e10) is refused with ``BudgetExceededError``. The prior
picks the per-trial statistic:

* uniform prior: the Rao-Blackwell value, the closed-form conditional
  distortion given the channel outputs. It has the mean of the squared error
  and a strictly smaller variance, since the target's unobserved tail bits
  are integrated out analytically;
* any other prior: the squared error (X_hat - X)^2 of the MMSE decode mapped
  back through the prior's inverse CDF, in the original domain, where no
  closed form exists.

Reproducibility contract: trials are grouped into fixed blocks of 4096; block
b draws from a Philox stream keyed by (seed, b) in a fixed order (the
block's targets, then for each transmitted bit in ascending index one
uniform per trial for the count of symbol 0, then one binomial draw per
trial for each of the symbols 1..m-2 in ascending order), and results are
reduced in block order. The randomness consumed by trial i is therefore a
pure function of (seed, trials, i), of (seed, i) alone when i lies in a
full block, and results are bit-identical for any worker count.

One collector, ``_collect_blocks``, runs a per-block function over all blocks
(serially or on a thread pool) and concatenates the results in block order.
``trial_values`` and ``nonuniform_experiment`` both go through it; the
per-trial decode uses the array kernel of ``decoder``.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelSpec, InfoConstants, info_constants
from .decoder import (
    HISTOGRAM_BUDGET,
    _check_histogram_total,
    _distortion_sum,
    _distortion_term,
    _stable_pq,
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
        if not -1e-9 <= self.mean:
            raise ValidationError(f"distortion mean {self.mean!r} below 0")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@functools.lru_cache(maxsize=16)
def _histogram_chain(ch: ChannelSpec) -> tuple[np.ndarray, tuple[float, ...]]:
    """The conditional masses and log-likelihood ratios of ``_draw_block``.

    Row b of the (2, m - 1) array holds f_b(i) / sum_{j >= i} f_b(j) for
    i = 0..m-2: the chance that a use left after symbols 0..i-1 lands on
    symbol i. A row whose remaining mass is 0 holds 1 there; no use is left
    to place. Column 0 is the success chance of the first link, drawn from
    ``_first_link_table``; the others feed ``rng.binomial``. The ratios are
    ln f1(i)/f0(i), +-inf at a zero mass.
    """
    f = np.array([ch.f0, ch.f1])
    tail = np.cumsum(f[:, ::-1], axis=1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(tail > 0.0, f / tail, 1.0)[:, :-1]
        llr = np.log(f[1]) - np.log(f[0])
    cond.flags.writeable = False
    return cond, tuple(llr.tolist())


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
def _first_link_table(ch: ChannelSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table of the count of symbol 0 after t uses, for both inputs.

    Row b is ``_window_cdf(t, p_b)``, p_b the first conditional mass of
    ``_histogram_chain``. The two rows are stored as one sorted int64 array,
    row 1 shifted up by 2^53: the key w + b 2^53 of a uniform integer w on
    [0, 2^53) is searched once (``side="right"``), and the index plus
    ``base[b]`` is the count. Both inputs keep all 53 bits of w, which a key
    of ``w + b`` on doubles would not. A pattern has at most
    ``BIT_DEPTH_CAP`` drawn bits, so the cache holds one pattern's tables;
    each has at most 2 ``HISTOGRAM_BUDGET`` thresholds (16 MB), and the
    arrays are read-only.
    """
    (lo0, row0), (lo1, row1) = (_window_cdf(t, float(p)) for p in _histogram_chain(ch)[0][:, 0])
    thresholds = np.concatenate([row0, row1 + 2**53])
    base = np.array([lo0, lo1 - row0.size])
    thresholds.flags.writeable = False
    base.flags.writeable = False
    return thresholds, base


def _draw_block(cfg: SimConfig, block: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Targets and per-bit log-likelihood-ratio sums for one trial block.

    The t_k outputs of a bit reach the decoder only through their histogram
    (c_0, ..., c_{m-1}), its sufficient statistic, so the histogram is drawn
    and not the outputs: c_i ~ Binomial(left, f_b(i) / sum_{j >= i} f_b(j))
    for i = 0..m-2, where ``left`` starts at t_k and drops by each c_i, and
    the last symbol takes what is left. The first link c_0 ~ Binomial(t_k,
    f_b(0)) is drawn by inverse CDF: one uniform per trial, scaled to a
    53-bit integer and searched in ``_first_link_table``, which spans the
    Hoeffding window of ``_window_cdf``; a bit whose window exceeds
    ``HISTOGRAM_BUDGET`` counts is refused with ``BudgetExceededError``
    naming the bit. Links 1..m-2 of an m-ary channel are ``rng.binomial``
    draws. The bit's log-odds sum is sum_i c_i ln f1(i)/f0(i) over the
    nonzero counts, so a symbol of zero mass (ratio +-inf) never gives
    0 * inf.

    Draw order is fixed: the targets, then the bits in ascending index, each
    bit's uniforms for symbol 0 and then its binomials for symbols 1..m-2 in
    ascending order; so the layout depends only on the config. Returns
    (u, [(k, llr_sum)]) for every transmitted bit index k up to the bit
    extraction cap; deeper bits are unknown at prior for both encoder and
    decoder.
    """
    lo = block * BLOCK_TRIALS
    hi = min(cfg.trials, lo + BLOCK_TRIALS)
    rng = _block_rng(cfg.seed, block)
    u = rng.random(hi - lo)
    cond, llr = _histogram_chain(cfg.channel)
    last = len(llr) - 1

    sums: list[tuple[int, np.ndarray]] = []
    for k0, t_k in enumerate(cfg.pattern.t):
        k = k0 + 1
        if t_k == 0 or k > BIT_DEPTH_CAP:
            continue
        bits = bits_array(u, k)
        try:
            thresholds, base = _first_link_table(cfg.channel, t_k)
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"bit {k}: {exc}") from None
        # random() is an integer multiple of 2^-53, so w is exact.
        w = (rng.random(u.size) * 2.0**53).astype(np.int64)
        key = w + (bits.astype(np.int64) << 53)
        c = np.searchsorted(thresholds, key, side="right") + base[bits]
        left = t_k
        s = np.zeros(u.size)
        for i, ratio in enumerate(llr):
            if i == last:
                c = left
            elif i > 0:
                c = rng.binomial(left, cond[bits, i])
            left = left - c
            if math.isfinite(ratio):
                s += c * ratio
            else:
                s[c > 0] = ratio
        sums.append((k, s))
    return u, sums


def _rb_block(cfg: SimConfig, block: int) -> np.ndarray:
    u, sums = _draw_block(cfg, block)
    vals = np.full(u.size, PRIOR_DISTORTION)
    for k, s in sums:
        vals += (_stable_pq(s) - 0.25) * 4.0**-k
    return vals


def _squared_errors(cfg: SimConfig, block: int) -> np.ndarray:
    """Squared errors of the MMSE decode for one block: row 0 in the uniform
    domain, (F_n - F(X))^2; row 1 in the original domain, (X_hat - X)^2."""
    u, sums = _draw_block(cfg, block)
    u_hat = _uniform_estimate(u.size, sums)
    x = from_uniform(cfg.prior, u)
    x_hat = from_uniform(cfg.prior, u_hat)
    return np.stack([(u_hat - u) ** 2, (x_hat - x) ** 2])


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")


def _collect_blocks(
    cfg: SimConfig, jobs: int, block_fn: Callable[[SimConfig, int], np.ndarray]
) -> np.ndarray:
    """``block_fn`` over every trial block, concatenated in block order along
    the last axis; with ``jobs`` > 1 the blocks run on a thread pool."""
    _check_jobs(jobs)
    n_blocks = -(-cfg.trials // BLOCK_TRIALS)
    if jobs == 1 or n_blocks == 1:
        parts = [block_fn(cfg, b) for b in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(functools.partial(block_fn, cfg), range(n_blocks)))
    return np.concatenate(parts, axis=-1)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


def trial_values(cfg: SimConfig, jobs: int = 1) -> np.ndarray:
    """Statistic of every trial, in trial order: the conditional distortion
    under the uniform prior, the original-domain squared error under any
    other. The array is the same whatever ``jobs``."""
    if cfg.prior.kind == "uniform":
        return _collect_blocks(cfg, jobs, _rb_block)
    return _collect_blocks(cfg, jobs, _squared_errors)[1]


def estimate_distortion(cfg: SimConfig, jobs: int = 1) -> DistortionEstimate:
    """Mean and standard error over cfg.trials trials.

    Blocks may be computed by several workers; the block layout and the
    reduction order are fixed by the config, so the estimate is independent
    of ``jobs``.
    """
    mean, se = _mean_se(trial_values(cfg, jobs))
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
    Rao-Blackwellized Monte-Carlo estimate for the uniform target with the
    given trials and seed.
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
                if d <= 0.0:
                    raise BudgetExceededError(
                        f"Monte-Carlo distortion at n={n} is {d!r} <= 0: the estimate has lost "
                        "all precision at this budget; use the exact oracle (--mode exact)"
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
    e_u, e_x = _collect_blocks(cfg, jobs, _squared_errors)
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
