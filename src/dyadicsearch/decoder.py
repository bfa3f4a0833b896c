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
alphabet (t+1 terms for binary channels). The sum is kept in log space,
because V(t) ~ e^(-C t) leaves the double range near t = 708 / C:

* merge: output symbols of equal ratio f1/f0 are merged first, their
  masses summed (``_merge_tied_outputs``). V(t) is unchanged; the rows, the
  cache and the budgets are the merged channel's, and a channel that merges
  to two symbols takes the binary window below;
* identity: a histogram h weighs (P(h|0) + P(h|1))/2, and times its
  posterior variance that is P(h|0) sigmoid(L_h) / 2 with
  L_h = ln P(h|1)/P(h|0), so its log term is
  ln(1/2) + lp0 - softplus(-L_h), and ln V(t) the logsumexp of the terms;
* window: for a binary channel with four positive masses the terms are
  log-concave in the row j and peak where L_h changes sign, at
  t theta*, theta* the output-1 mass of the tilted law at the Chernoff
  exponent s*. Only rows j in t theta* +- min(4 sqrt(t) + 50, h_ch) are
  summed, h_ch a per-channel number of rows past which the terms lie more
  than 38 nats below the largest at every t (``_binary_windows`` derives
  it: the terms decay at least min(s*, 1 - s*) |lam1 - lam0| nats per
  row);
* certificate: each edge of that window other than 0 and t must lie at
  least ``WINDOW_CERTIFICATE`` = 38 nats below the bit's largest term; by
  log-concavity the rows left out then fall off at least geometrically from
  below e^-38 times it. A bit whose edge fails is summed over every row.
  m-ary channels, and binary ones with a zero mass, always sum every row;
* rows and batching: ``_bit_rows`` gives each bit's first row and exact
  row count (its window's, or C(t+m-1, m-1) by ``math.comb``), and one
  chunk loop (``_row_sums``) sums the uncached bits of one lookup together,
  the uncertified fallback over rows 0..t included. Their rows, (t - j, j)
  or ``policy.composition_rows``, are concatenated in chunks of about
  ``CHUNK_ROWS`` rows, ln t! - sum_i ln h_i! is added column by column, and
  each bit's segment is reduced with ``np.maximum.reduceat`` and
  ``np.add.reduceat``; the chunking bounds the temporaries, and a bit's
  value does not depend on the bits it shares a chunk with;
* cost: a windowed binary bit costs O(min(sqrt t, h_ch)) rows, O(1) in t:
  53 rows on bac:0.9,0.8, so the greedy pattern at n = 1e8 sums 3.7e5
  rows in place of 1e8; an m-ary bit costs its C(t+m-1, m-1) rows;
* budgets: one gate (``_check_histogram_total``) holds each bit to
  ``HISTOGRAM_BUDGET`` rows and a lookup's distinct counts to
  ``PATTERN_HISTOGRAM_BUDGET`` together, in the rows of ``_bit_rows``,
  before any row is summed, so a channel whose h_ch is under
  ``HISTOGRAM_BUDGET`` / 2 has no per-bit ceiling in t. ``log_bit_variances``
  runs it on every lookup; the sweep in ``sim`` looks up a block of steps at
  a time and, where a block fails, gates each step alone before it looks
  the steps up one by one; the fallback runs its ``_check_rows`` on t + 1
  rows.

The multinomial coefficients come from one accessor, ``_ln_factorial``,
over a module-level table of ln i! (``math.lgamma(i + 1.0)``) that every
call shares and grows on demand up to ``LOG_FACTORIAL_TABLE`` entries: a
pattern costs O(max t_k) ``lgamma`` calls, and windowed rows past the table
call ``math.lgamma`` for their own entries, the same values. ln V is cached
per (t_k, channel) by ``log_bit_variances``, the batched lookup;
``exact_bit_variance`` holds that cache (``cache_info``, ``cache_clear``).
D = sum_k 4^-k V(t_k) + 4^-q / 12 is summed from it by the kernel that
sums U and L in ``policy``: as a double by ``assemble_distortion``, and as
ln D, finite at any budget, by ``assemble_log_distortion``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelSpec
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, composition_rows
from .policy import _log_series, _series_sum, _series_terms

HISTOGRAM_BUDGET = 1_000_000
PATTERN_HISTOGRAM_BUDGET = 250_000_000
CHUNK_ROWS = 8192  # histogram rows per numpy pass: bounds the batch's temporaries
WINDOW_CERTIFICATE = 38.0  # nats an inner window edge lies below the bit's largest term
LOG_FACTORIAL_TABLE = 1_000_001  # most entries of the shared ln i! table (8 MB)

_LOG_ZERO = -1e30  # stand-in for log 0; exp underflows to exactly 0.0
_LOG_ODDS_SWITCH = 1e-12
# Arguments of exp are raised to this floor: e^-700 is below the rounding
# of every sum it enters (each holds a term near 1), and exp near and below
# the subnormal range takes a slow path.
_EXP_FLOOR = -700.0
_LN_QUARTER = math.log(0.25)
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon
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
    the largest entry below ``LOG_FACTORIAL_TABLE``; only the windowed rows
    of binary bits with t past that call ``math.lgamma``."""
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


def _safe_log(masses: tuple[float, ...]) -> np.ndarray:
    return np.array([math.log(p) if p > 0.0 else _LOG_ZERO for p in masses])


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


def _chunks(sizes: list[int]) -> Iterator[slice]:
    """Runs of consecutive bits whose rows add up to about ``CHUNK_ROWS``;
    a bit with more rows than that is a run of its own."""
    start = rows = 0
    for i, size in enumerate(sizes):
        if rows and rows + size > CHUNK_ROWS:
            yield slice(start, i)
            start, rows = i, 0
        rows += size
    if rows:
        yield slice(start, len(sizes))


def _segment_log_sums(
    H: np.ndarray, log_mult: np.ndarray, sizes: np.ndarray, log_f: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ln V of each segment of consecutive histogram rows, ``sizes`` rows each.

    ``log_mult`` holds each row's log multinomial coefficient and ``log_f``
    the log masses under 0 and 1. Each row's term is
    ln(1/2) + lp0 - softplus(-L_h) (the module docstring's identity), and a
    segment's sum is its largest term plus the log of the summed
    exponentials of the differences. Returns ln V per segment, each row's
    term without the ln(1/2), each segment's largest such term and its
    first row.
    """
    starts = np.cumsum(sizes) - sizes
    H = H.astype(np.float64)  # once: an integer operand is cast in each product
    lp0 = log_mult + H @ log_f[0]
    lp1 = log_mult + H @ log_f[1]
    neg_l = lp0 - lp1
    softplus = np.maximum(neg_l, 0.0) + np.log1p(np.exp(np.maximum(-np.abs(neg_l), _EXP_FLOOR)))
    terms = lp0 - softplus
    top = np.maximum.reduceat(terms, starts)
    # Shifting lp0 before subtracting the softplus, and halving the sum
    # (exact) rather than adding ln(1/2), rounds ln V once at its magnitude.
    shifted = (lp0 - np.repeat(top, sizes)) - softplus
    sums = np.add.reduceat(np.exp(np.maximum(shifted, _EXP_FLOOR)), starts)
    return top + np.log(0.5 * sums), terms, top, starts


def _window_centre(ch: ChannelSpec) -> float | None:
    """theta* of a binary channel with four positive masses and distinct
    ratios, whose bits are summed over a window; None where every row is."""
    if len(ch.outputs) == 2 and min(ch.f0 + ch.f1) > 0.0:
        lam0, lam1 = (math.log(b / a) for a, b in zip(ch.f0, ch.f1))
        if lam0 != lam1:
            return min(max(lam0 / (lam0 - lam1), 0.0), 1.0)
    return None


def _decay_half_width(theta: float, ch: ChannelSpec) -> float:
    """h_ch: the rows on each side of t theta* past which every term of a
    binary bit lies more than ``WINDOW_CERTIFICATE`` nats below its largest,
    at any t (see ``_binary_windows``); inf where the decay rate is not
    positive or not resolved in doubles."""
    if not 0.0 < theta < 1.0:
        return math.inf
    (a0, a1), (b0, b1) = ch.f0, ch.f1
    odds = theta / (1.0 - theta)
    # s* |lam1 - lam0| and (1 - s*) |lam1 - lam0|, read off theta*.
    r_s, r_rest = abs(math.log(a1 / (a0 * odds))), abs(math.log(odds * b0 / b1))
    rate = min(r_s, r_rest)
    # Each lam_y is rounded by about eps (1 + |lam_y|), which moves theta*
    # by up to 2 eps (1 + gap)/gap, gap = |lam1 - lam0| = |lam0| + |lam1|,
    # and so ln odds, and each rate, by that over theta* (1 - theta*); the
    # logs above add about 3 eps + eps r. Near f0 = f1 the error reaches the
    # rates themselves: f0 = (1/3, 2/3) against f1 one ulp away reads
    # theta* = 0.8 and a rate of ln 2 where the true one is near 1e-15. A
    # rate not 2^10 times its error bound is not trusted, which keeps the
    # rate's share of the spare nat under 2^-10 (39 + c).
    lam0, lam1 = (math.log(b / a) for a, b in zip(ch.f0, ch.f1))
    gap = abs(lam1 - lam0)
    err = 4.0 * _EPS * (
        (1.0 + gap) / (gap * theta * (1.0 - theta)) + 1.0 + max(r_s, r_rest)
    )
    if rate <= 1024.0 * err:
        return math.inf
    # The quotient is inf for a rate near the smallest double; np.ceil keeps it.
    return float(np.ceil((WINDOW_CERTIFICATE + _LN2 + max(r_s, r_rest) + 1.0) / rate)) + 1.0


def _binary_windows(ts: np.ndarray, ch: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """First and last row j of each binary bit's sum over histograms (t - j, j).

    With all four masses positive these are the integers in
    t theta* +- min(4 sqrt(t) + 50, h_ch), clipped to [0, t]; otherwise every
    row 0..t. theta* = lam0 / (lam0 - lam1), lam_y = ln(f1(y)/f0(y)), is the
    output-1 mass of the tilted law f_s = f0^(1-s) f1^s / M(s) at the
    Chernoff exponent s*, where the tilted mean of the log-likelihood ratio
    is 0: the row where L_j = (j - t theta*)(lam1 - lam0) changes sign. The
    4 sqrt(t) + 50 rows span the tilted law's sqrt(t) width (Bahadur and
    Rao; Dembo and Zeitouni, Large Deviations Techniques and Applications,
    2nd ed., section 3.7).

    h_ch (``_decay_half_width``) does not grow with t. Since
    P(j|0) = M(s)^t b_s(j) e^(-s L_j), b_s the Binomial(t, f_s(1)) pmf,
    row j's term is

        T_j = t ln M(s*) + ln b(j) + u(L_j) + ln(1/2),
        u(L) = -s* L - softplus(-L),

    b = b_s* with f_s*(1) = theta*. For L >= 0, u(L) <= -s* L; for L < 0,
    u(L) = (1 - s*) L - softplus(L) <= -(1 - s*) |L|. With
    r0 = s* |lam1 - lam0| = |ln((1 - theta*)/theta* f0(1)/f0(0))| and
    r1 = (1 - s*) |lam1 - lam0| = |ln(theta*/(1 - theta*) f1(0)/f1(1))|
    (the odds of f_s* against those of f0 and of f1),
    u(L_j) <= -r |j - t theta*| with r = min(r0, r1): the terms decay at
    least linearly, r nats per row. For a lower bound on the largest term
    take the mode k of b, which lies within 1 of t theta*: the same two
    cases give u(L_k) >= -ln 2 - max(r0, r1). Since b(j) <= b(k),

        T_j <= T_k - r |j - t theta*| + c,   c = ln 2 + max(r0, r1):

    c covers the softplus's kink at L = 0 and the mode's distance from
    t theta*. So every row farther than (38 + c)/r from t theta* lies more
    than 38 nats below the largest term. h_ch = ceil((38 + c + 1)/r) + 1:
    the spare nat absorbs the rounding of the terms (about 0.01 nat at
    t = 1e12, where ln t! is near 2.7e13) and of t theta*, and the extra row
    the ceiling of the lower edge. Rows outside the window then lie below
    e^-(38 + 1 + r i) times the largest term, i rows past t theta* +- h_ch,
    so that cut leaves out less than 2 e^-39 / (1 - e^-r) of V. A bsc:0.1
    bit sums at most 43 rows, a bac:0.9,0.8 bit 53; a near-pure-noise
    channel, with r near 0, keeps the sqrt(t) window.
    """
    theta = _window_centre(ch)
    if theta is None:
        return np.zeros_like(ts), ts
    half = np.minimum(4.0 * np.sqrt(ts) + 50.0, _decay_half_width(theta, ch))
    lo = np.maximum(np.ceil(ts * theta - half), 0.0).astype(np.int64)
    hi = np.minimum((ts * theta + half).astype(np.int64), ts)
    return lo, hi


def _bit_rows(ts: np.ndarray, ch: ChannelSpec) -> tuple[np.ndarray, list[int]]:
    """Each bit's first row and exact number of rows: a binary bit's window
    of rows (t - j, j) from j = lo to hi (``_binary_windows``), an m-ary
    bit's C(t + m - 1, m - 1) compositions from the first, counted by
    ``math.comb``, exact where int64 is not."""
    m = len(ch.outputs)
    if m == 2:
        lo, hi = _binary_windows(ts, ch)
        return lo, (hi - lo + 1).tolist()
    return np.zeros_like(ts), [math.comb(t + m - 1, m - 1) for t in ts.tolist()]


def _row_sums(
    ts: np.ndarray, first: np.ndarray, sizes: np.ndarray, ch: ChannelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """ln V of each bit summed over its ``sizes`` rows from row ``first`` on,
    and whether its window is certified: each edge of a binary bit's rows
    other than j = 0 and j = t lies at least ``WINDOW_CERTIFICATE`` nats
    below the bit's largest term. An m-ary bit sums every row."""
    m = len(ch.outputs)
    log_f = (_safe_log(ch.f0), _safe_log(ch.f1))
    log_v = np.empty(ts.size)
    certified = np.ones(ts.size, dtype=bool)
    for part in _chunks(sizes.tolist()):
        n, t, lo = sizes[part], ts[part], first[part]
        if m == 2:  # rows (t - j, j), j from the bit's first row on
            j = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
            H = np.column_stack((np.repeat(t, n) - j, j))
        else:
            H = composition_rows(t, m)
        log_h = _ln_factorial(H[:, 0])
        for column in H.T[1:]:
            log_h += _ln_factorial(column)
        log_mult = np.repeat(_ln_factorial(t), n) - log_h
        log_v[part], terms, top, starts = _segment_log_sums(H, log_mult, n, log_f)
        if m == 2:
            floor = top - WINDOW_CERTIFICATE
            certified[part] = ((lo == 0) | (terms[starts] <= floor)) & (
                (lo + n - 1 == t) | (terms[starts + n - 1] <= floor)
            )
    return log_v, certified


def _log_variance_pass(ts: np.ndarray, ch: ChannelSpec) -> np.ndarray:
    """ln V(t) for distinct counts t >= 1 that the gate
    (``_check_histogram_total``) has passed, each summed over its rows
    (``_bit_rows``). A binary bit whose window is not certified is summed
    again over every row 0..t, once ``_check_rows`` passes those rows."""
    first, rows = _bit_rows(ts, ch)
    log_v, certified = _row_sums(ts, first, np.array(rows, dtype=np.int64), ch)
    redo = ~certified
    if redo.any():
        full = ts[redo]
        _check_rows((full + 1).tolist())
        log_v[redo] = _row_sums(full, np.zeros_like(full), full + 1, ch)[0]
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


def _check_rows(rows: Sequence[int]) -> None:
    """Refuse bits of which one sums more than ``HISTOGRAM_BUDGET`` histogram
    rows, or all together more than ``PATTERN_HISTOGRAM_BUDGET``."""
    most, total = max(rows), sum(rows)
    if most > HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"histogram enumeration too large: a bit of {most} rows exceeds the "
            f"{HISTOGRAM_BUDGET} budget of one bit"
        )
    if total > PATTERN_HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"exact distortion too large: {total} histograms exceed the "
            f"{PATTERN_HISTOGRAM_BUDGET} budget of one pattern"
        )


def _check_histogram_total(counts: Iterable[int], ch: ChannelSpec) -> None:
    """The oracle's one budget gate: ``_check_rows`` on the rows of the
    distinct counts, counted by ``_bit_rows`` on the merged channel (a count
    of 0 is one row). The t + 1 full rows of a binary bit bound its
    window's, and where they pass both budgets the windows are not computed:
    on bac:0.9,0.8 a call on ``aurelian(10**6)`` (815 distinct counts) takes
    47 us against 107 us with them, and on ``aurelian(10**5)`` 15 against
    50 us (2-core x86_64 host), and every ``policy`` run makes one. Nothing
    is computed before a refusal."""
    ch = _merge_tied_outputs(ch)
    distinct = set(counts)
    if not distinct:
        return
    if len(ch.outputs) > 2 or max(distinct) + 1 > HISTOGRAM_BUDGET or (
        sum(distinct) + len(distinct) > PATTERN_HISTOGRAM_BUDGET  # binary full rows
    ):
        _check_rows(_bit_rows(np.fromiter(distinct, np.int64, len(distinct)), ch)[1])


def log_bit_variances(counts: Iterable[int], ch: ChannelSpec) -> list[float]:
    """ln E[Var(X_k | history)] after t_k i.i.d. uses, for each count t_k.

    The cached values are looked up and the others computed in one batched
    pass, so the result does not depend on which other counts share the
    call. Counts whose histograms together exceed the pattern budget, or one
    of which exceeds the per-bit budget, are refused with
    ``BudgetExceededError`` before any is computed. exp of a value below
    the double range is 0.0 where ln V is still finite; t_k = 0 gives the
    prior variance 1/4.
    """
    counts = list(counts)
    if counts and min(counts) < 0:
        raise ValidationError("repetition count must be >= 0")
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
