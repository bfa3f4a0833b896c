"""Per-bit Bayesian decoding and the exact distortion oracle.

Bits of the target are independent under the uniform prior, and transmissions
are memoryless, so the decoder state is just the per-bit posterior
p_k = P(X_k = 1 | history). One channel output y moves a posterior p to

    p' = f1(y) p / (f1(y) p + f0(y) (1 - p)).

The minimum mean squared error estimate and its conditional error follow in
closed form; bits beyond the tracked depth sit at their prior 1/2 and their
contribution is summed analytically.

Two forms of the same decoder live here. The array kernel (``_sigmoid``,
``_bit_offset``) works on log-odds: the log-odds of bit k is the sum
of the log-likelihood ratios ln(f1(y)/f0(y)) of its outputs, so a whole
block of trials decodes with a few vectorised operations. The simulator's
squared-error statistic uses it. The scalar forms
(``posterior_update``, ``mmse_estimate``, ``conditional_distortion``,
``PosteriorState``) update one posterior at a time by Bayes' rule; they are
the independent oracles the kernel is tested against.

The exact oracle exploits exchangeability: t i.i.d. outputs enter the
posterior only through their histogram, so V(t) = E[p(1-p)] after t uses is
an exact finite sum over the C(t+m-1, m-1) histograms of an m-symbol
alphabet. The sum is kept in log space, because V(t) ~ e^(-C t) leaves the
double range near t = 708 / C:

* merge: output symbols of equal ratio f1/f0 are merged first, their
  masses summed (``_merge_tied_outputs``). V(t) is unchanged; the rows, the
  cache and the budgets are the merged channel's;
* identity: a histogram h weighs (P(h|0) + P(h|1))/2, and times its
  posterior variance that is P(h|0) sigmoid(L_h) / 2 with
  L_h = ln P(h|1)/P(h|0) = sum_i h_i lambda_i, so its log term is
  ln(1/2) + lp0 - softplus(-L_h), and ln V(t) the logsumexp of the terms.
  A row with a count on an output of zero mass under one input is 0, so
  only the m' outputs with mass under both are enumerated (with none,
  V = 0, returned as ``_LOG_ZERO`` = -1e30 times ceil(t/2));
* window: with f_s the Chernoff-tilted law (``channel.chernoff_tilt``, the
  sampler's), M = M(s*) and kappa = min(s*, 1 - s*), a term is at most
  (1/2) M^t P_s(h) e^(-kappa |L_h|). A bit sums the box
  |h_i - t f_s(i)| <= w, w^2 = t rho / 2, on the free parts, cut by the slab
  |L_h| <= rho / kappa, rho = 40 + ln(t)/2 + ln(2 m' - 1); by Hoeffding
  (JASA 58, 1963) the rows outside sum to at most
  (1/2) M^t (2 m' - 1) e^-rho, on any wider slab too;
* certificate: that bound lies ``WINDOW_CERTIFICATE`` = 38 nats below the
  in-window sum, or the window is every row. A bit that misses by delta
  (bsc:0.001 at odd t, by about 1) is summed once more with
  rho + delta + 1: its sum cannot shrink and the bound drops by delta + 1;
* rows: ``policy.composition_rows`` enumerates the charged outputs last
  first, so a binary bit's rows are (t - j, j) with j ascending, the order
  its sums round in: the free parts before the last within the box, the
  last as the slab's interval after each prefix. ``_window_sums`` sums the
  uncached bits of a lookup in chunks of about ``CHUNK_ROWS`` rows, each
  bit's segment reduced by ``np.maximum.reduceat`` and ``np.add.reduceat``,
  its value independent of its chunk;
* cost: a binary bit sums about 2 rho / (kappa |lambda_1 - lambda_0|)
  rows (53 on bac:0.9,0.8 at t = 3000, 68 at 1e15), or its box,
  sqrt(2 t rho) (13 907 on bsc:0.4999 at t = 2e6); a channel3.json bit
  196 713 of 5.0e9 at t = 1e5;
* budgets: one gate (``_check_histogram_total``) holds each bit to
  ``HISTOGRAM_BUDGET`` rows and a lookup's distinct counts to
  ``PATTERN_HISTOGRAM_BUDGET`` together before any row is summed, and a
  box that may hold more prefixes than ``HISTOGRAM_BUDGET`` before they
  are built; a retry is gated the same way. A count past 2^53 uses
  (``policy.MAX_USES``, the fills' cap) is refused before the gate. The
  sweep in ``sim`` looks up a block of steps at a time and, where a block
  fails, gates each step.

The multinomial coefficients come from one accessor, ``_ln_factorial``,
over a module-level table of ln i! (``math.lgamma(i + 1.0)``) that every
call shares and grows on demand up to ``LOG_FACTORIAL_TABLE`` entries: a
pattern costs O(max t_k) ``lgamma`` calls, and window rows past the table
call ``math.lgamma`` for their own entries, the same values. ln V is cached
per (t_k, channel) by ``log_bit_variances``, the batched lookup;
``exact_bit_variance`` holds that cache (``cache_info``, ``cache_clear``).
D = sum_k 4^-k V(t_k) + 4^-q / 12 is summed from it by the kernel that
sums U and L in ``policy``: as a double by ``assemble_distortion``, and as
ln D, finite at any budget, by ``assemble_log_distortion``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelSpec, chernoff_tilt
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, composition_counts, composition_rows, composition_sizes
from .policy import _check_uses, _log_series, _series_sum, _series_terms

HISTOGRAM_BUDGET = 1_000_000
PATTERN_HISTOGRAM_BUDGET = 250_000_000
CHUNK_ROWS = 8192  # histogram rows per numpy pass: bounds the batch's temporaries
WINDOW_CERTIFICATE = 38.0  # nats the bound on the rows left out lies below the bit's sum
LOG_FACTORIAL_TABLE = 1_000_001  # most entries of the shared ln i! table (8 MB)

_LOG_ZERO = -1e30  # stand-in for log 0; exp underflows to exactly 0.0
_LOG_ODDS_SWITCH = 1e-12
# Arguments of exp are raised to this floor: e^-700 is below the rounding
# of every sum it enters (each holds a term near 1), and exp near and below
# the subnormal range takes a slow path.
_EXP_FLOOR = -700.0
_RHO_BASE = WINDOW_CERTIFICATE + 2.0  # the window's exponent at t = 1 and m' = 1
_LN_QUARTER = math.log(0.25)
_LN_HALF = math.log(0.5)
_LN_12 = math.log(12.0)


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
    """Posterior P(bit = 1) from log-odds s, without overflow at large |s|.

    A zero-mass output makes s = +-inf; the branch ``np.where`` drops is
    then inf/inf, so its invalid-value warning is silenced too."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(s >= 0.0, 1.0 / (1.0 + np.exp(-s)), np.exp(s) / (1.0 + np.exp(s)))


def _bit_offset(s: np.ndarray, k: int) -> np.ndarray:
    """Bit k's term (p_k - 1/2) 2^(-k) of the MMSE decode
    1/2 + sum_k (p_k - 1/2) 2^(-k), p_k = sigmoid(s) from its log-odds sum s."""
    return (_sigmoid(s) - 0.5) * 2.0**-k


# ln i! = math.lgamma(i + 1.0) for i = 0, 1, ..., len - 1, shared by every
# call and grown on demand.
_LOG_FACTORIALS = np.zeros(1)


def _ln_factorial(i: np.ndarray) -> np.ndarray:
    """ln i! for each entry of the integer array ``i``, from the shared
    table where it reaches and by ``math.lgamma``, the same values, past its
    end. An entry past the table first grows it (at least doubling) to hold
    the largest entry below ``LOG_FACTORIAL_TABLE``; only rows with entries
    past that call ``math.lgamma``."""
    global _LOG_FACTORIALS
    try:
        return _LOG_FACTORIALS[i]
    except IndexError:  # an entry past the table's end
        pass
    table = _LOG_FACTORIALS
    need = int(i[i < LOG_FACTORIAL_TABLE].max(initial=-1)) + 1
    if need > table.size:
        grown = range(table.size, min(max(need, 2 * table.size), LOG_FACTORIAL_TABLE))
        table = _LOG_FACTORIALS = np.concatenate([table, [math.lgamma(x + 1.0) for x in grown]])
    beyond = i >= table.size
    out = table[np.where(beyond, 0, i)]
    out[beyond] = [math.lgamma(x + 1.0) for x in i[beyond].tolist()]
    return out


def _merge_tied_outputs(ch: ChannelSpec) -> ChannelSpec:
    """``ch`` with its output symbols of equal ratio f1/f0 merged into one,
    their f0 and f1 masses summed; ``ch`` itself where no two tie, or where
    all do (a pure-noise channel, which needs two symbols to stay one).

    The merge is lossless. Symbols of equal ratio add the same amount to a
    histogram's log-likelihood ratio L_h, so the histograms that differ only
    in how they split a count among them share one L_h, and by the
    multinomial theorem their P(h|0) and P(h|1) add up to those of the
    merged count under the summed masses. So V(t) is the same sum over
    fewer rows, and C and B are unchanged. The key f1/f0 is +inf where f0
    is zero; the label kept is the first of the merged symbols.
    """
    if len(ch.outputs) == 2:  # two symbols either differ or all tie
        return ch
    first: dict[float, int] = {}
    outputs, f0, f1 = [], [], []
    for y, a, b in zip(ch.outputs, ch.f0, ch.f1):
        i = first.setdefault(b / a if a > 0.0 else math.inf, len(outputs))
        if i == len(outputs):
            outputs.append(y)
            f0.append(a)
            f1.append(b)
        else:
            f0[i] += a
            f1[i] += b
    if 2 <= len(outputs) < len(ch.outputs):
        return ChannelSpec(outputs=tuple(outputs), f0=tuple(f0), f1=tuple(f1))
    return ch


def _chunks(sizes: np.ndarray) -> Iterator[slice]:
    """Runs of consecutive bits of about ``CHUNK_ROWS`` rows: a run ends
    with the bit whose last row passes the next multiple of it, so a run
    holds fewer than ``CHUNK_ROWS`` rows besides those of its first bit."""
    if sizes.size:
        block = (np.cumsum(sizes) - 1) // CHUNK_ROWS
        edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), sizes.size]
        yield from itertools.starmap(slice, zip(edges, edges[1:]))


def _segment_log_sums(
    H: np.ndarray, log_mult: np.ndarray, sizes: np.ndarray, log_f: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """ln V of each segment of ``sizes`` consecutive histogram rows ``H``
    (doubles), with ``log_mult`` each row's log multinomial coefficient and
    ``log_f`` the log masses under 0 and 1: each row's term is
    ln(1/2) + lp0 - softplus(-L_h), and a segment's sum its largest term
    plus the log of the summed exponentials of the differences."""
    starts = np.cumsum(sizes) - sizes
    lp0 = log_mult + H @ log_f[0]
    lp1 = log_mult + H @ log_f[1]
    neg_l = lp0 - lp1
    softplus = np.maximum(neg_l, 0.0) + np.log1p(np.exp(np.maximum(-np.abs(neg_l), _EXP_FLOOR)))
    top = np.maximum.reduceat(lp0 - softplus, starts)
    # Shifting lp0 before subtracting the softplus, and halving the sum
    # (exact) rather than adding ln(1/2), rounds ln V once at its magnitude.
    shifted = (lp0 - np.repeat(top, sizes)) - softplus
    sums = np.add.reduceat(np.exp(np.maximum(shifted, _EXP_FLOOR)), starts)
    return top + np.log(0.5 * sums)


class _Law(NamedTuple):
    """A merged channel's charged outputs and the tilt its windows are centred on."""

    parts: int  # m', the outputs with mass under both inputs
    log_f: tuple[np.ndarray, np.ndarray]  # ln f0, ln f1 of the charged outputs, in output order
    centre: np.ndarray  # f_s* of the free parts, in enumeration order
    slope: np.ndarray  # lambda_i = ln f1(i) - ln f0(i) of every part, in enumeration order
    log_m: float
    kappa: float


@functools.lru_cache(maxsize=16)
def _window_law(ch: ChannelSpec) -> _Law:
    """``_Law`` of the merged ``ch``, read from its Chernoff law
    (``channel.chernoff_tilt``) and enumerated last output first: a binary
    bit's rows are (t - j, j) with j ascending, the order its sums round in."""
    law = chernoff_tilt(ch)
    order = list(law.charged[::-1])
    centre = law.f[order][:-1] if order else np.zeros(0)
    return _Law(len(order), law.log_f, centre, np.take(law.llr, order), law.log_m, law.kappa)


def _rho(ts: np.ndarray, parts: int) -> np.ndarray:
    """The window's exponent rho = 40 + ln(t)/2 + ln(2 m' - 1) of each count."""
    return _RHO_BASE + 0.5 * np.log(ts) + math.log(2 * parts - 1)


def _window(ts: np.ndarray, law: _Law, rho: np.ndarray) -> tuple:
    """Each bit's box (lower, upper) |h_i - t f_s*(i)| <= w, w^2 = t rho / 2,
    on the free parts and slab (lambda, half), |L_h| <= half, as
    ``policy.composition_rows`` takes them: half = rho / kappa, or the sum
    of |lambda_i - lambda_last| over the free parts where wider, which keeps
    the row nearest the box's centre, where L_h = 0 (bsc:1e-60, odd t)."""
    w = np.sqrt(ts * rho / 2.0)[:, None]
    centre, t = np.outer(ts, law.centre), ts[:, None]
    lower = np.clip(np.ceil(centre - w), 0, t).astype(np.int64)
    upper = np.clip(np.floor(centre + w), -1, t).astype(np.int64)
    reach = np.abs(law.slope[:-1] - law.slope[-1]).sum()
    return (lower, upper), (law.slope, np.maximum(rho / law.kappa, reach))


def _box_bounds(ts: np.ndarray, law: _Law, window: tuple) -> tuple[np.ndarray, np.ndarray]:
    """At most how many prefixes (values of the free parts before the last)
    and rows each bit's window holds: the product of the prefixes' box
    widths, at most C(t + m' - 2, m' - 2), times the last free part's width
    or 2 half / step + 1, step the change of L_h per unit of that part."""
    (lower, upper), (slope, half) = window
    widths = np.maximum(upper - lower + 1, 0).astype(np.float64)
    totals, step = ts.astype(np.float64), abs(np.diff(slope[-2:]).sum())  # 0 below two parts
    prefixes = np.minimum(widths[:, :-1].prod(axis=1), composition_counts(totals, law.parts - 1))
    last = widths[:, -1:].prod(axis=1)  # 1 where no part is free
    if step > 0.0:
        last = np.minimum(last, np.floor(2.0 * half / step) + 1.0)
    return prefixes, np.minimum(prefixes * last, composition_counts(totals, law.parts))


def _gate(ts: np.ndarray, law: _Law, rho: np.ndarray) -> None:
    """Refuse windows of exponents ``rho`` past a budget. Where their full
    rows C(t + m' - 1, m' - 1) fail one, a box that may hold more prefixes
    than ``HISTOGRAM_BUDGET`` is refused before any is built, and the rows
    are counted from the prefixes chunk by chunk, refused at the first past."""
    full = composition_counts(ts.astype(np.float64), law.parts)  # exact to 2^53
    if full.max() <= HISTOGRAM_BUDGET and full.sum() <= PATTERN_HISTOGRAM_BUDGET:
        return
    window = (lower, upper), (slope, half) = _window(ts, law, rho)
    prefixes = _box_bounds(ts, law, window)[0]
    if prefixes.max() > HISTOGRAM_BUDGET:
        i = int(prefixes.argmax())
        raise BudgetExceededError(
            f"histogram enumeration too large: a bit of {ts[i]} uses has a window of "
            f"{prefixes[i]:.4g} prefixes, over the {HISTOGRAM_BUDGET} budget of one bit"
        )
    total = 0
    for b in _chunks(prefixes):
        rows = composition_sizes(ts[b], law.parts, (lower[b], upper[b]), (slope, half[b]))
        total += int(rows.sum())
        if rows.max() > HISTOGRAM_BUDGET:
            raise BudgetExceededError(
                f"histogram enumeration too large: a bit of {rows.max()} rows exceeds the "
                f"{HISTOGRAM_BUDGET} budget of one bit"
            )
        if total > PATTERN_HISTOGRAM_BUDGET:
            raise BudgetExceededError(
                f"exact distortion too large: {total} histograms exceed the "
                f"{PATTERN_HISTOGRAM_BUDGET} budget of one pattern"
            )


def _window_sums(ts: np.ndarray, law: _Law, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each bit's window rows, counted as they are built, and its ln V over
    them (-inf for an empty window), for windows the gate has passed; the
    chunks hold about ``CHUNK_ROWS`` rows of the bits' bounds."""
    window = (lower, upper), (slope, half) = _window(ts, law, rho)
    bound = _box_bounds(ts, law, window)[1]
    sizes = np.zeros(ts.size, dtype=np.int64)
    log_v = np.full(ts.size, -np.inf)
    for b in _chunks(bound):
        rows, n = composition_rows(ts[b], law.parts, (lower[b], upper[b]), (slope, half[b]))
        H = np.empty(rows.shape)  # doubles in output order, cast column by column
        log_h = np.zeros(len(rows))
        for i, column in enumerate(rows.T[::-1]):
            H[:, i] = column
            log_h += _ln_factorial(column)
        log_mult = np.repeat(_ln_factorial(ts[b]), n) - log_h
        sizes[b] = n
        log_v[b][n > 0] = _segment_log_sums(H, log_mult, n[n > 0], law.log_f)
    return sizes, log_v


def _log_variance_pass(ts: np.ndarray, ch: ChannelSpec) -> np.ndarray:
    """ln V(t) for distinct counts t >= 1 of the merged channel ``ch`` that
    the gate (``_check_histogram_total``) has passed, each summed over its
    window. A bit whose certificate misses by delta nats is gated and summed
    again with rho + delta + 1, its bound delta + 1 nats lower."""
    law = _window_law(ch)
    if law.parts == 0:  # V = 0: -1e30 for each count on a row's larger side
        return _LOG_ZERO * ((ts + 1) // 2)
    rho = _rho(ts, law.parts)
    sizes, log_v = _window_sums(ts, law, rho)
    bound = _LN_HALF + ts * law.log_m + math.log(2 * law.parts - 1) - rho
    miss = bound - (log_v - WINDOW_CERTIFICATE)
    redo = np.flatnonzero(miss > 0.0)  # but a window of every row leaves nothing out:
    redo = redo[sizes[redo] < composition_counts(ts[redo].astype(np.float64), law.parts)]
    if redo.size:
        wider = rho[redo] + miss[redo] + 1.0
        _gate(ts[redo], law, wider)
        log_v[redo] = _window_sums(ts[redo], law, wider)[1]
    return log_v


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int


class _BitVarianceOracle:
    """The cache behind ``log_bit_variances``: ln V per (t_k, channel).

    ``cache_info`` and ``cache_clear`` behave as those of an ``lru_cache``:
    every count looked up is one hit or one miss, and clearing drops every
    cached value and the statistics.
    """

    def __init__(self) -> None:
        self.cache_clear()

    def cache_clear(self) -> None:
        self._log_v: dict[ChannelSpec, dict[int, float]] = {}
        self._hits = self._misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, sum(map(len, self._log_v.values())))

    def log_values(self, counts: list[int], ch: ChannelSpec) -> list[float]:
        """ln V(t) for every count, the uncached ones computed in one pass;
        t = 0 is ln(1/4). The counts must have passed the gate."""
        ch = _merge_tied_outputs(ch)
        known = self._log_v.setdefault(ch, {})
        new: dict[int, None] = {}
        for t in counts:
            if t in known or t in new:
                self._hits += 1
            else:
                self._misses += 1
                new[t] = None
        if 0 in new:
            known[0] = _LN_QUARTER
        ts = np.array([t for t in new if t > 0], dtype=np.int64)
        if ts.size:
            known.update(zip(ts.tolist(), _log_variance_pass(ts, ch).tolist()))
        return [known[t] for t in counts]


exact_bit_variance = _BitVarianceOracle()


def _check_histogram_total(counts: Iterable[int], ch: ChannelSpec) -> None:
    """The oracle's one budget gate, ``_gate``, on the distinct counts
    t >= 1 of the merged channel (t = 0 sums none): 49 us on the 815 of
    ``aurelian(10**6)`` on bac:0.9,0.8, whose full rows pass (every
    ``policy`` run makes one), and 0.41 ms counting the windows of the
    7 079 of the greedy pattern at n = 1e8 (2-core x86_64 host). Nothing is
    summed before a refusal, and the pass counts no window again."""
    law = _window_law(_merge_tied_outputs(ch))
    ts = np.fromiter({t for t in counts if t > 0}, np.int64)
    if ts.size and law.parts:
        _gate(ts, law, _rho(ts, law.parts))


def log_bit_variances(counts: Iterable[int], ch: ChannelSpec) -> list[float]:
    """ln E[Var(X_k | history)] after t_k i.i.d. uses, for each count t_k.

    The cached values are looked up and the others computed in one batched
    pass, so the result does not depend on which other counts share the
    call. Counts whose histograms together exceed the pattern budget, one
    of which exceeds the per-bit budget, or one past ``policy.MAX_USES``
    (2^53, past which a count is not exact in doubles), are refused with
    ``BudgetExceededError`` before any is computed. exp of a value below
    the double range is 0.0 where ln V is still finite; t_k = 0 gives the
    prior variance 1/4.
    """
    counts = list(counts)
    if counts and min(counts) < 0:
        raise ValidationError("repetition count must be >= 0")
    _check_uses(max(counts, default=0))
    _check_histogram_total(counts, ch)
    return exact_bit_variance.log_values(counts, ch)


def assemble_distortion(log_v: Sequence[float]) -> float:
    """D = sum_k 4^-k V(t_k) + 4^-q / 12 from ln V of bits 1..q, by
    positive-term summation; 0.0 where D is below the double range."""
    return _series_sum(_series_terms(np.arange(len(log_v)), log_v), 1.0 / 12.0)


def assemble_log_distortion(log_v: Sequence[float]) -> float:
    """ln D from ln V of bits 1..q, summed in log space: finite at any budget."""
    return _log_series(log_v, -_LN_12)


def exact_distortion(t: TransmissionPattern, ch: ChannelSpec) -> float:
    """Exact end-to-end distortion D(t) = sum_k 4^(-k) E[Var(X_k | history)].

    Per-bit terms come from ``log_bit_variances``; bits beyond the last
    transmitted index contribute their prior variance, summed in closed form.
    Positive-term summation keeps relative precision down to the smallest
    double; ``assemble_log_distortion`` gives ln D beyond it. A pattern over
    the histogram budget is refused with ``BudgetExceededError``.
    """
    return assemble_distortion(log_bit_variances(t.t, ch))
