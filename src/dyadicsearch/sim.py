"""Monte-Carlo estimation of end-to-end distortion.

A trial draws a target, sends the bits of its uniform-domain image through
the channel according to the transmission pattern, runs the per-bit posterior
updates, and scores the decoder. The prior picks the per-trial statistic:

* uniform prior: the Rao-Blackwell value, the closed-form conditional
  distortion given the channel outputs. It has the mean of the squared error
  and a strictly smaller variance, since the target's unobserved tail bits
  are integrated out analytically;
* any other prior: the squared error (X_hat - X)^2 of the MMSE decode mapped
  back through the prior's inverse CDF, in the original domain, where no
  closed form exists.

Reproducibility contract: trials are grouped into fixed blocks of 4096; block
b draws from a Philox stream keyed by (seed, b), and results are reduced in
block order. The randomness consumed by trial i is therefore a pure function
of (seed, trials, i), of (seed, i) alone when i lies in a full block, and
results are bit-identical for any worker count.

One collector, ``_collect_blocks``, runs a per-block function over all blocks
(serially or on a thread pool) and concatenates the results in block order.
``trial_values`` and ``nonuniform_experiment`` both go through it; the
per-trial decode uses the array kernel of ``decoder``.

The staircase sweep ``aurelian_sweep`` takes its patterns stepped from
``policy.aurelian_steps``, which yields each budget's pattern with the bits
that changed since the previous budget. It keeps the per-bit terms of D, U
and L and recomputes only the changed ones, so a step of one use costs a
term or two, not a rebuilt pattern and q oracle lookups. Each row is
re-summed with ``math.fsum``, which is correctly rounded and so independent
of the order of the terms, plus the closed-form tail: the rows equal, float
for float, those computed one budget at a time.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelSpec, InfoConstants, info_constants
from .decoder import (
    _check_histogram_total,
    _distortion_sum,
    _distortion_term,
    _stable_pq,
    _uniform_estimate,
)
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, _bound_term, _upper_sum, aurelian_steps
from .source import BIT_DEPTH_CAP, PriorSpec, bits_array, from_uniform, uniform_prior

BLOCK_TRIALS = 4096

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
        if not (-1e-9 <= self.mean <= 1.0 / 3.0 + 1e-9):
            raise ValidationError(f"distortion mean {self.mean!r} outside [0, 1/3]")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_block(cfg: SimConfig, block: int) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Targets and per-bit log-likelihood-ratio sums for one trial block.

    Draw order is fixed (targets first, then bits in ascending index), so the
    layout depends only on the config. Returns (u, [(k, llr_sum)]) for every
    transmitted bit index k up to the bit extraction cap; deeper bits are
    unknown at prior for both encoder and decoder.
    """
    lo = block * BLOCK_TRIALS
    hi = min(cfg.trials, lo + BLOCK_TRIALS)
    rng = _block_rng(cfg.seed, block)
    u = rng.random(hi - lo)

    ch = cfg.channel
    cdf0 = np.cumsum(ch.f0)
    cdf1 = np.cumsum(ch.f1)
    with np.errstate(divide="ignore"):
        llr = np.log(np.asarray(ch.f1)) - np.log(np.asarray(ch.f0))
    m = len(ch.outputs)

    sums: list[tuple[int, np.ndarray]] = []
    for k0, t_k in enumerate(cfg.pattern.t):
        k = k0 + 1
        if t_k == 0 or k > BIT_DEPTH_CAP:
            continue
        raw = rng.random((u.size, t_k))
        bit = bits_array(u, k).astype(bool)
        i0 = np.searchsorted(cdf0, raw, side="right")
        i1 = np.searchsorted(cdf1, raw, side="right")
        idx = np.where(bit[:, None], i1, i0)
        np.clip(idx, 0, m - 1, out=idx)
        sums.append((k, llr[idx].sum(axis=1)))
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
    those functions give for ``aurelian(n)``. A row whose exact D or whose
    U has underflowed to 0.0, or whose changed bits exceed the oracle's
    histogram budget, is refused with ``BudgetExceededError``.
    """
    _check_jobs(jobs)
    consts = info_constants(channel)
    rows = []
    d_terms: list[float] = []
    u_terms: list[float] = []
    l_terms: list[float] = []
    for n, (t, changed) in zip(n_values, aurelian_steps(n_values, consts)):
        q = len(t)
        if q != len(u_terms):  # every index from the old q on is in ``changed``
            for terms in (d_terms, u_terms, l_terms):
                del terms[q:]
                terms.extend([0.0] * (q - len(terms)))
        if exact:
            _check_histogram_total([t[k] for k in changed], channel)
        for k in changed:
            u_terms[k] = _bound_term(k, t[k], consts.C)
            l_terms[k] = _bound_term(k, t[k], consts.B)
            if exact:
                d_terms[k] = _distortion_term(k, t[k], channel)
        if exact:
            d, se = _distortion_sum(d_terms), 0.0
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
        u = _upper_sum(u_terms)
        if d == 0.0 or u == 0.0:
            raise BudgetExceededError(
                f"distortion at n={n} underflows the double range (D={d!r}, U={u!r}): "
                "ln D needs a log-domain exact oracle, which this version does not have"
            )
        rows.append(
            SweepRow(
                n=n,
                q=q,
                t1=t[0],
                distortion=d,
                std_error=se,
                upper=u,
                lower=0.25 * _upper_sum(l_terms),
                log_d_over_sqrt_n=math.log(d) / math.sqrt(n),
                log_u_over_sqrt_n=math.log(u) / math.sqrt(n),
                d_over_d0=d / PRIOR_DISTORTION,
            )
        )
    return SweepResult(constants=consts, rows=tuple(rows))


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
