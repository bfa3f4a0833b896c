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
  exponent s*. Only rows j in t theta* +- (4 sqrt(t) + 50) are summed;
* certificate: each edge of that window other than 0 and t must lie at
  least ``WINDOW_CERTIFICATE`` = 38 nats below the bit's largest term; by
  log-concavity the rows left out then fall off at least geometrically from
  below e^-38 times it. A bit whose edge fails is summed over every row.
  m-ary channels, and binary ones with a zero mass, always sum every row;
* batching: the uncached bits of one lookup are computed together. Their
  rows are concatenated, in chunks of about ``CHUNK_ROWS`` rows, and each
  bit's segment is reduced with ``np.maximum.reduceat`` and
  ``np.add.reduceat``; the chunking bounds the temporaries, and a bit's
  value does not depend on the bits it shares a chunk with;
* cost: a binary bit costs O(min(t, sqrt t)) rows, so the greedy pattern
  at n = 1e8 sums 7.1e6 rows in place of 1e8; an m-ary bit costs its
  C(t+m-1, m-1) rows, built in numpy for all the bits of a chunk at once
  (``policy.composition_rows``);
* budgets: a bit may sum at most ``HISTOGRAM_BUDGET`` rows and a pattern's
  distinct counts at most ``PATTERN_HISTOGRAM_BUDGET`` together. A windowed
  binary bit counts its window's rows, so binary bits up to about 1.5e10
  uses are exact; an uncertified window falls back to every row and is held
  to the same budgets in full rows.

The multinomial coefficients come from one module-level table of ln i!
(``math.lgamma(i + 1.0)``) that every call shares and that grows on demand
up to i = ``HISTOGRAM_BUDGET``: a pattern costs O(max t_k) ``lgamma`` calls.
Windowed rows beyond the table call ``math.lgamma`` for their own entries,
the same values. The table holds ln i! only, the same in every process.
ln V is cached per (t_k, channel) by the oracle behind
``exact_bit_variance`` (its exp) and ``log_bit_variances`` (the batched
lookup); ``exact_distortion`` and the staircase sweep assemble D from
it with one helper, and ``assemble_log_distortion`` gives ln D, finite at any
budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import LN4, ChannelSpec
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, _logsumexp, composition_counts, composition_rows

HISTOGRAM_BUDGET = 1_000_000
PATTERN_HISTOGRAM_BUDGET = 250_000_000
CHUNK_ROWS = 8192  # histogram rows per numpy pass: bounds the batch's temporaries
WINDOW_CERTIFICATE = 38.0  # nats an inner window edge lies below the bit's largest term

_LOG_ZERO = -1e30  # stand-in for log 0; exp underflows to exactly 0.0
_LOG_ODDS_SWITCH = 1e-12
# Arguments of exp are raised to this floor: e^-700 is below the rounding
# of every sum it enters (each holds a term near 1), and exp near and below
# the subnormal range takes a slow path.
_EXP_FLOOR = -700.0
_LN_QUARTER = math.log(0.25)
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


def _log_factorials(t: int) -> np.ndarray:
    """The shared ln i! table, grown (at least doubling, up to
    ``HISTOGRAM_BUDGET`` + 1 entries) to hold i = 0..t, t <= HISTOGRAM_BUDGET."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.size <= t:
        grown = range(table.size, max(t + 1, min(2 * table.size, HISTOGRAM_BUDGET + 1)))
        table = np.concatenate([table, [math.lgamma(i + 1.0) for i in grown]])
        _LOG_FACTORIALS = table
    return table


def _log_factorial_at(lg: np.ndarray, i: np.ndarray) -> np.ndarray:
    """ln i! for each entry of ``i``: from the table ``lg`` where it reaches,
    by ``math.lgamma`` (the same values) beyond it, where only the windowed
    rows of binary bits with t above ``HISTOGRAM_BUDGET`` go."""
    beyond = i >= lg.size
    out = lg[np.where(beyond, 0, i)]
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


def _binary_windows(ts: np.ndarray, ch: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """First and last row j of each binary bit's sum over histograms (t - j, j).

    With all four masses positive these are the integers in
    t theta* +- (4 sqrt(t) + 50), clipped to [0, t]. theta* = lam0 / (lam0 -
    lam1), lam_y = ln(f1(y)/f0(y)), is the output-1 mass of the tilted law
    f0^(1-s) f1^s at the Chernoff exponent s*, where the tilted mean of the
    log-likelihood ratio is 0: the row where L_h changes sign, around which
    the dominant terms lie (Bahadur and Rao; Dembo and Zeitouni, Large
    Deviations Techniques and Applications, 2nd ed., section 3.7).
    Otherwise every row 0..t. ``_window_rows`` counts the same rows.
    """
    theta = _window_centre(ch)
    if theta is None:
        return np.zeros_like(ts), ts
    half = 4.0 * np.sqrt(ts) + 50.0
    lo = np.maximum(np.ceil(ts * theta - half), 0.0).astype(np.int64)
    hi = np.minimum((ts * theta + half).astype(np.int64), ts)
    return lo, hi


def _window_rows(t: int, theta: float) -> int:
    """Rows of one binary bit's window about theta* (``_binary_windows``),
    in scalar arithmetic: the budget checks run it per distinct count."""
    half = 4.0 * math.sqrt(t) + 50.0
    return min(int(t * theta + half), t) - max(math.ceil(t * theta - half), 0) + 1


def _binary_log_variances(
    ts: np.ndarray, lo: np.ndarray, hi: np.ndarray, lg: np.ndarray, ch: ChannelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """ln V of each binary bit summed over rows lo..hi, and whether the cut
    is certified: each edge row other than 0 and t lies at least
    ``WINDOW_CERTIFICATE`` nats below the bit's largest term. ``lg`` is
    the ln i! table; counts past its end go through ``_log_factorial_at``."""
    log_f = (_safe_log(ch.f0), _safe_log(ch.f1))
    sizes = hi - lo + 1
    log_v = np.empty(ts.size)
    certified = np.empty(ts.size, dtype=bool)
    # Every row index is at most its t, so the table alone serves when it
    # reaches the largest t.
    ln_fact = lg.__getitem__
    if int(ts.max()) >= lg.size:
        ln_fact = functools.partial(_log_factorial_at, lg)
    for part in _chunks(sizes.tolist()):
        n, first = sizes[part], lo[part]
        t_rows = np.repeat(ts[part], n)
        j = np.arange(t_rows.size) + np.repeat(first - (np.cumsum(n) - n), n)
        rest = t_rows - j
        # A binary row sum of ln h! is one addition of non-negative terms.
        log_mult = np.repeat(ln_fact(ts[part]), n) - (ln_fact(rest) + ln_fact(j))
        H = np.empty((j.size, 2))
        H[:, 0], H[:, 1] = rest, j
        log_v[part], terms, top, starts = _segment_log_sums(H, log_mult, n, log_f)
        floor = top - WINDOW_CERTIFICATE
        certified[part] = ((first == 0) | (terms[starts] <= floor)) & (
            (hi[part] == ts[part]) | (terms[starts + n - 1] <= floor)
        )
    return log_v, certified


def _log_variance_pass(ts: np.ndarray, ch: ChannelSpec) -> np.ndarray:
    """ln V(t) for distinct counts t >= 1, within the histogram budget."""
    m = len(ch.outputs)
    # Counts above the budget are windowed binary bits, read by lgamma.
    lg = _log_factorials(int(ts[ts <= HISTOGRAM_BUDGET].max(initial=0)))
    if m == 2:
        lo, hi = _binary_windows(ts, ch)
        log_v, certified = _binary_log_variances(ts, lo, hi, lg, ch)
        redo = ~certified
        if redo.any():  # an uncertified window falls back to the full row sum
            full = ts[redo]
            rows = full + 1
            if rows.max() > HISTOGRAM_BUDGET or rows.sum() > PATTERN_HISTOGRAM_BUDGET:
                raise BudgetExceededError(
                    f"histogram enumeration too large: a window of {full.max()} uses is not "
                    "certified, and summing every row exceeds the histogram budget"
                )
            lg = _log_factorials(int(full.max()))
            log_v[redo] = _binary_log_variances(full, np.zeros_like(full), full, lg, ch)[0]
        return log_v
    log_f = (_safe_log(ch.f0), _safe_log(ch.f1))
    sizes = composition_counts(ts, m)
    log_v = np.empty(ts.size)
    for part in _chunks(sizes.tolist()):
        H = composition_rows(ts[part], m)
        log_mult = lg[np.repeat(ts[part], sizes[part])] - lg[H].sum(axis=1)
        log_v[part] = _segment_log_sums(H, log_mult, sizes[part], log_f)[0]
    return log_v


def _log_bit_variances(counts: list[int], ch: ChannelSpec) -> dict[int, float]:
    """ln V(t) by distinct count, in one batched pass; t = 0 is ln(1/4)."""
    m1 = len(ch.outputs) - 1
    theta = _window_centre(ch)
    for t in counts:
        if t < 0:
            raise ValidationError("repetition count must be >= 0")
        rows = math.comb(t + m1, m1)
        if rows > HISTOGRAM_BUDGET and theta is not None:
            rows = _window_rows(t, theta)
        if rows > HISTOGRAM_BUDGET:
            raise BudgetExceededError(
                f"histogram enumeration too large: {rows} exceeds {HISTOGRAM_BUDGET}"
            )
    values = dict.fromkeys(counts, _LN_QUARTER)
    ts = np.array([t for t in counts if t > 0], dtype=np.int64)
    if ts.size:
        values.update(zip(ts.tolist(), _log_variance_pass(ts, ch).tolist()))
    return values


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int


class _BitVarianceOracle:
    """The per-bit oracle behind ``exact_bit_variance`` and
    ``log_bit_variances``, with its cache of ln V per (t_k, channel).

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

    def log_values(self, counts: Iterable[int], ch: ChannelSpec) -> list[float]:
        """ln V(t) for every count, the uncached ones computed in one pass."""
        counts = list(counts)
        ch = _merge_tied_outputs(ch)
        known = self._log_v.setdefault(ch, {})
        new: dict[int, None] = {}
        for t in counts:
            if t in known or t in new:
                self._hits += 1
            else:
                self._misses += 1
                new[t] = None
        if new:
            known.update(_log_bit_variances(list(new), ch))
        return [known[t] for t in counts]

    def __call__(self, t_k: int, ch: ChannelSpec) -> float:
        """Exact E[Var(X_k | history)] after t_k i.i.d. uses for bit k.

        The exp of ln V(t_k) (see ``log_bit_variances``): below the double
        range it is 0.0 where ln V is still finite. t_k = 0 is the prior
        variance 1/4.
        """
        return math.exp(self.log_values([t_k], ch)[0])


exact_bit_variance = _BitVarianceOracle()


def _check_histogram_total(counts: Iterable[int], ch: ChannelSpec) -> None:
    """Refuse counts whose distinct t_k sum more than
    ``PATTERN_HISTOGRAM_BUDGET`` histogram rows together: each bit stays
    under ``HISTOGRAM_BUDGET``, but for a binary channel the full rows of a
    pattern sum to about its budget n. A windowed binary bit counts its
    window's rows (``_window_rows``), computed only where the full rows
    exceed the budget. (Plain loops: the sweep calls this every row.)"""
    ch = _merge_tied_outputs(ch)
    m1 = len(ch.outputs) - 1
    distinct = set(counts)
    total = 0
    for t in distinct:
        total += math.comb(t + m1, m1)
    if total > PATTERN_HISTOGRAM_BUDGET and (theta := _window_centre(ch)) is not None:
        total = 0
        for t in distinct:
            total += _window_rows(t, theta)
    if total > PATTERN_HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"exact distortion too large: {total} histograms exceed the "
            f"{PATTERN_HISTOGRAM_BUDGET} budget of one pattern"
        )


def log_bit_variances(counts: Sequence[int], ch: ChannelSpec) -> list[float]:
    """ln E[Var(X_k | history)] after t_k i.i.d. uses, for each count t_k.

    The cached values are looked up and the others computed in one batched
    pass, so the result does not depend on which other counts share the
    call. Counts whose histograms together exceed the pattern budget, or one
    of which exceeds the per-bit budget, are refused with
    ``BudgetExceededError`` before any is computed.
    """
    _check_histogram_total(counts, ch)
    return exact_bit_variance.log_values(counts, ch)


def _distortion_term(k: int, log_v: float) -> float:
    """4^-(k+1) E[Var(X_{k+1} | history)]: the term of 0-based bit k in D."""
    return 4.0 ** -(k + 1) * math.exp(log_v)


def _distortion_sum(terms: Sequence[float]) -> float:
    """D from the terms of bits 1..q: their fsum plus the prior-variance tail."""
    return math.fsum(terms) + 0.25 * (4.0 ** -len(terms) / 3.0)


def assemble_distortion(log_v: Sequence[float]) -> float:
    """D = sum_k 4^-k V(t_k) + 4^-q / 12 from ln V of bits 1..q, by
    positive-term summation; 0.0 where D is below the double range."""
    return _distortion_sum([_distortion_term(k, v) for k, v in enumerate(log_v)])


def assemble_log_distortion(log_v: Sequence[float]) -> float:
    """ln D from ln V of bits 1..q, summed in log space: finite at any budget."""
    q = len(log_v)
    return _logsumexp([v - (k + 1) * LN4 for k, v in enumerate(log_v)] + [-q * LN4 - _LN_12])


def exact_distortion(t: TransmissionPattern, ch: ChannelSpec) -> float:
    """Exact end-to-end distortion D(t) = sum_k 4^(-k) E[Var(X_k | history)].

    Per-bit terms come from ``log_bit_variances``; bits beyond the last
    transmitted index contribute their prior variance, summed in closed form.
    Positive-term summation keeps relative precision down to the smallest
    double; ``assemble_log_distortion`` gives ln D beyond it. A pattern over
    the histogram budget is refused with ``BudgetExceededError``.
    """
    return assemble_distortion(log_bit_variances(t.t, ch))
