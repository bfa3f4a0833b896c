"""Monte-Carlo estimation of end-to-end distortion.

The channel is memoryless, so the decoder sees a bit's t_k outputs only
through their output histogram; the sampler draws that histogram directly,
as a chain of m - 1 conditional binomials per bit (``_draw_llr``), and never
the t_k outputs one by one. The first link, the count of symbol 0, is drawn
by inverse CDF from a table of Binomial(t_k, p) over the Hoeffding window
|c - t_k p| < 5 sqrt(t_k), which leaves out at most 2 e^-50 of mass: one
53-bit integer per trial, the top bits of one raw Philox output, is looked
up through a guide on its top bits and a few fixed lifting steps
(``_first_link_table``). A bit whose window holds more than
``decoder.HISTOGRAM_BUDGET`` counts (t_k above about 1e10) is refused with
``BudgetExceededError``.

On a binary channel the count of symbol 0 is all the decoder sees of a
bit, so each trial's term for that bit is a function of the count's table
index: the term is evaluated once per index on the table's
log-likelihood ratios, and each trial gathers it (``_add_bit_values``). On
an m-ary channel the table gives the first link's part of the ratio, and
the other links and the term are computed per trial. Both give each trial
the same double as computing it per trial, from the same draws as
``random()`` scaled by 2^53 and a binary search gave, so the random stream
and every output byte are those of that per-trial kernel. The prior picks
the per-trial statistic:

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
  statistic is not additive over bits (``_squared_errors``: a target per
  trial, its bits up to the 52-bit cap of a double, each bit's histogram
  drawn under the law of the target's bit).

Reproducibility contract: trials are grouped into fixed blocks of 4096;
block b draws from a Philox stream keyed by (seed, b) in a fixed order and
results are kept in block order. Under the uniform prior the order is, for
each bit with t_k > 0 in ascending index, one raw output per trial for the
count of symbol 0 and then one binomial draw per trial for each of the
symbols 1..m-2 in ascending order; there are no targets. Under any other
prior the block's targets come first, then the same per bit. The randomness
consumed by trial i is therefore a pure function of (seed, trials, i), of
(seed, i) alone when i lies in a full block. Blocks run in one thread:
``jobs`` is validated (>= 1) and changes nothing.

Both statistics walk the bits in the outer loop and the blocks in the
inner one, each block continuing its own stream, so each bit's table is
looked up, and its per-index terms evaluated, once per estimate. The
tables are cached across estimates, up to ``TABLE_CACHE_ENTRIES`` entries.

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
from typing import Callable, NamedTuple

import numpy as np

from .channel import LN4, ChannelSpec, InfoConstants, chernoff_information, info_constants
from .decoder import (
    HISTOGRAM_BUDGET,
    _bit_offset,
    _check_histogram_total,
    _distortion_sum,
    _distortion_term,
    assemble_log_distortion,
    exact_bit_variance,
)
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, _bound_term, _log_bound, _upper_sum, aurelian_steps
from .source import BIT_DEPTH_CAP, PriorSpec, bits_array, from_uniform, uniform_prior

BLOCK_TRIALS = 4096
GUIDE_BUCKETS = 1 << 16  # most buckets of a first-link table's guide
TABLE_CACHE_ENTRIES = 1 << 23  # int64/float64 entries the first-link tables may hold together
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


class _FirstLinkTable(NamedTuple):
    """Everything one bit's draw needs that depends only on (channel, t, law):
    built by ``_first_link_table``, read-only, and shared by every trial."""

    keys: np.ndarray  # sorted int64 keys of the rows, padded with int64 max
    guide: np.ndarray  # guide[g]: how many keys lie below g 2^shift
    shift: int
    steps: tuple[tuple[int, np.ndarray], ...]  # (h, keys[h - 1:]) for h = 2^(S-1), ..., 1
    base: np.ndarray  # the count of index i in row r is i + base[r]
    llr: np.ndarray  # log-likelihood-ratio sum of the links the count fixes, per index
    t: int
    cond: np.ndarray  # conditional masses of the table's laws, one row per law
    ratios: tuple[float, ...]  # ln f1(i)/f0(i), +-inf at a zero mass

    @property
    def entries(self) -> int:
        return self.keys.size + self.guide.size + self.llr.size


def _add_link(s: np.ndarray, c: np.ndarray | int, ratio: float) -> None:
    """s += c ratio for one symbol's counts c; a count of 0 adds nothing,
    so a symbol of zero mass (ratio +-inf) never gives 0 * inf."""
    if math.isfinite(ratio):
        s += c * ratio
    else:
        s[c > 0] = ratio


def _build_first_link_table(ch: ChannelSpec, t: int, tilted: bool) -> _FirstLinkTable:
    """Inverse-CDF table of the count of symbol 0 after t uses.

    One row per law: the laws of both inputs (rows b = 0, 1 of
    ``_histogram_chain``), or with ``tilted`` the one tilted law of
    ``_tilt``. Row r holds ``_window_cdf(t, p_r)``'s thresholds, p_r the
    law's first conditional mass, shifted up by r 2^53 and closed by the key
    (r + 1) 2^53; the rows are concatenated into one sorted int64 array.
    A uniform integer w on [0, 2^53) keyed as w + r 2^53 then has exactly
    ``searchsorted(keys, w + r 2^53, side="right")`` keys at or below it,
    and that index i names count i + base[r] of row r: each row owns one
    index per count of its window, so the two rows never share an index, and
    every row keeps all 53 bits of w.

    ``_first_link_index`` finds the index without a binary search. The
    guide splits the key range into G equal buckets, G a power of two near
    4 times the number of keys (at most ``GUIDE_BUCKETS``), and holds the
    number of keys below each bucket's start; a key's bucket is its top
    bits. The keys inside one bucket, at most F of them, are then passed by
    S = F.bit_length() fixed steps of binary lifting. Equal buckets leave
    the tails crowded, where the thresholds of improbable counts lie
    geometrically close together (F is 6 at t = 20 and 2941 at t = 1e6 on
    ``bac:0.9,0.8``), so a one-key-at-a-time pass would not be bounded;
    S steps are.

    ``llr`` holds, for each index, the log-likelihood-ratio sum of the
    links the count fixes, computed elementwise as ``_draw_llr`` computes
    it per trial: c ln f1(0)/f0(0) + (t - c) ln f1(1)/f0(1) on a binary
    channel, c ln f1(0)/f0(0) alone on an m-ary one. An index whose count
    has no mass (a zero-mass output, or a window edge past the law's
    support) has a bin of width 0 and is never drawn; its entry may be
    +-inf, and a value computed from it nan. Each row has at most
    ``HISTOGRAM_BUDGET`` thresholds, and the arrays are read-only.
    """
    if tilted:
        cond = _tilt(ch).cond
        ratios = _histogram_chain(ch)[1]
    else:
        cond, ratios = _histogram_chain(ch)
    rows = [_window_cdf(t, float(p)) for p in cond[:, 0]]
    keys = np.concatenate([np.append(row + (r << 53), (r + 1) << 53) for r, (_, row) in enumerate(rows)])
    size = keys.size
    buckets = min(1 << (4 * size - 1).bit_length(), GUIDE_BUCKETS)
    shift = (len(rows) << 53).bit_length() - buckets.bit_length()
    below = np.searchsorted(keys, np.arange(buckets + 1, dtype=np.int64) << shift)
    lifts = int(np.diff(below).max()).bit_length()
    padded = np.concatenate([keys, np.full(1 << lifts, np.iinfo(np.int64).max)])
    starts = np.cumsum([0] + [row.size + 1 for _, row in rows[:-1]])
    base = np.array([lo for lo, _ in rows]) - starts
    counts = np.concatenate([np.arange(lo, lo + row.size + 1) for lo, row in rows])
    llr = np.zeros(size)
    _add_link(llr, counts, ratios[0])
    if len(ratios) == 2:
        _add_link(llr, t - counts, ratios[1])
    for a in (padded, below, base, llr):
        a.flags.writeable = False
    steps = tuple((1 << j, padded[(1 << j) - 1 :]) for j in reversed(range(lifts)))
    return _FirstLinkTable(padded, below[:-1], shift, steps, base, llr, t, cond, ratios)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    tables: int
    entries: int


class _TableCache:
    """First-link tables by (channel, t, tilted), bounded in table entries.

    An estimate walks its bits in order, and a sweep walks one pattern after
    another, so a cache bounded in tables evicts, once a pattern has more
    distinct counts than it holds, exactly the table the scan asks for
    next. This one holds tables until a new one would take the total of
    their ``entries`` past ``TABLE_CACHE_ENTRIES`` (8 bytes each, 64 MB),
    and then starts over empty. A table has at most 2 ``HISTOGRAM_BUDGET``
    keys and as many ratios, at most 2^21 keys of padding and
    ``GUIDE_BUCKETS`` guide entries: fewer than 6.2e6 entries, so any table
    fits (the two tables of t = 1e10 on ``bac:0.9,0.8`` have 5.1e6 and
    2.6e6).
    """

    def __init__(self) -> None:
        self.cache_clear()

    def __call__(self, ch: ChannelSpec, t: int, tilted: bool = False) -> _FirstLinkTable:
        key = (ch, t, tilted)
        table = self._tables.get(key)
        if table is not None:
            self._hits += 1
            return table
        self._misses += 1
        table = _build_first_link_table(ch, t, tilted)
        if self._entries + table.entries > TABLE_CACHE_ENTRIES:
            self._tables.clear()
            self._entries = 0
        self._tables[key] = table
        self._entries += table.entries
        return table

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, len(self._tables), self._entries)

    def cache_clear(self) -> None:
        self._tables: dict[tuple[ChannelSpec, int, bool], _FirstLinkTable] = {}
        self._hits = self._misses = self._entries = 0


_first_link_table = _TableCache()


def _bit_table(ch: ChannelSpec, k: int, t_k: int, tilted: bool) -> _FirstLinkTable:
    """``_first_link_table`` of bit k; a refusal names the bit."""
    try:
        return _first_link_table(ch, t_k, tilted)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"bit {k}: {exc}") from None


def _table_index(table: _FirstLinkTable, key: np.ndarray) -> np.ndarray:
    """``searchsorted(table.keys, key, side="right")`` for keys in
    [0, rows 2^53), from the guide and the lifting steps of
    ``_build_first_link_table``: the bucket's entry counts the keys below
    the bucket, and each step of h passes h more keys where the h-th next
    is at or below the key."""
    idx = table.guide[key >> table.shift]
    for h, keys in table.steps:
        if h == 1:
            idx += keys[idx] <= key
        else:
            np.add(idx, h, out=idx, where=keys[idx] <= key)
    return idx


def _first_link_index(
    rng: np.random.Generator, size: int, table: _FirstLinkTable, row: np.ndarray | int
) -> np.ndarray:
    """The table index of the count of symbol 0 in each of ``size`` trials.

    ``row`` picks each trial's law: an int8 array (the trial's input bit)
    or 0 for one law that every trial shares. Each trial takes one 53-bit
    integer w, the top 53 bits of one raw Philox output: ``rng.random()``
    is that integer times 2^-53, so w is the value ``random()`` would give
    scaled by 2^53, and the generator moves on by the same one output. The
    index is that of the key w + row 2^53 (``_table_index``).
    """
    key = (rng.bit_generator.random_raw(size) >> 11).view(np.int64)
    if np.ndim(row):
        key += row.astype(np.int64) << 53
    return _table_index(table, key)


def _draw_llr(
    rng: np.random.Generator, size: int, table: _FirstLinkTable, row: np.ndarray | int
) -> np.ndarray:
    """The log-likelihood-ratio sum of one bit's t outputs in each of
    ``size`` trials, drawn through the outputs' histogram.

    The t outputs of a bit reach the decoder only through their histogram
    (c_0, ..., c_{m-1}), its sufficient statistic, so the histogram is drawn
    and not the outputs: c_i ~ Binomial(left, cond[row, i]) for
    i = 0..m-2, where ``left`` starts at t and drops by each c_i, and the
    last symbol takes what is left. The first link c_0 is drawn by inverse
    CDF (``_first_link_index``), and its part of the sum is read from
    ``table.llr``: on a binary channel that is the whole sum. Links
    1..m-2 of an m-ary channel are ``rng.binomial`` draws, and each link
    adds c_i ln f1(i)/f0(i) by ``_add_link``.
    """
    idx = _first_link_index(rng, size, table, row)
    s = table.llr[idx]
    if len(table.ratios) > 2:
        left = table.t - (idx + table.base[row])
        for i, ratio in enumerate(table.ratios[1:-1], 1):
            c = rng.binomial(left, table.cond[row, i])
            left = left - c
            _add_link(s, c, ratio)
        _add_link(s, left, table.ratios[-1])
    return s


def _block_rngs(cfg: SimConfig) -> list[np.random.Generator]:
    return [_block_rng(cfg.seed, b) for b in range(-(-cfg.trials // BLOCK_TRIALS))]


def _add_bit_values(
    cfg: SimConfig,
    acc: np.ndarray,
    rngs: list[np.random.Generator],
    value: Callable[[int, int, np.ndarray], np.ndarray],
    targets: np.ndarray | None = None,
) -> None:
    """Add value(k, t_k, L) to ``acc`` for each drawn bit k in ascending
    order, L the bit's log-likelihood-ratio sum in each trial.

    Without ``targets`` every bit up to q is drawn from the tilted law;
    with them, the bits up to the 52-bit cap of a double, each trial's
    histogram drawn under the law of its target's bit. Bit by bit, the
    bit's table is looked up once and serves every block, whose stream
    ``rngs[b]`` it continues. On a binary channel L is a function of the
    first link's index, so ``value`` is evaluated once on ``table.llr`` and
    each trial gathers its entry; an entry nobody can draw may be nan
    there, so that evaluation does not warn. On an m-ary channel each
    trial's L comes from ``_draw_llr`` and ``value`` is evaluated on it.
    Either way each trial's value is the same double.
    """
    tilted = targets is None
    counts = cfg.pattern.t if tilted else cfg.pattern.t[:BIT_DEPTH_CAP]
    starts = range(0, cfg.trials, BLOCK_TRIALS)
    for k, t_k in enumerate(counts, 1):
        if t_k == 0:
            continue
        table = _bit_table(cfg.channel, k, t_k, tilted)
        binary = len(table.ratios) == 2
        if binary:
            with np.errstate(invalid="ignore"):
                per_index = value(k, t_k, table.llr)
        for lo, rng in zip(starts, rngs):
            part = acc[lo : lo + BLOCK_TRIALS]
            row = 0 if tilted else bits_array(targets[lo : lo + BLOCK_TRIALS], k)
            if binary:
                part += per_index[_first_link_index(rng, part.size, table, row)]
            else:
                part += value(k, t_k, _draw_llr(rng, part.size, table, row))


def _tilted_value(tilt: _Tilt, k: int, t_k: int, L: np.ndarray) -> np.ndarray:
    """Bit k's importance-sampling value exp(ln 1/2 + t_k ln M(s) - s L -
    softplus(-L) - k ln 4) at log-likelihood ratio L (``_tilted_values``)."""
    shift = _LN_HALF + t_k * tilt.log_m - k * LN4
    # -s L - softplus(-L) = -s L + min(L, 0) - ln(1 + e^-|L|)
    return np.exp(shift - tilt.s * L + np.minimum(L, 0.0) - np.log1p(np.exp(-np.abs(L))))


def _tilted_values(cfg: SimConfig) -> np.ndarray:
    """Importance-sampling values of the uniform-prior distortion, one per
    trial, in trial order.

    Bit k contributes 4^-k V(t_k), V(t) = 1/2 E_0[sigma(L)], L the
    log-likelihood ratio of the bit's t outputs (the identity of
    ``decoder``). The histogram is drawn from the tilted law f_s^(x t) of
    ``_tilt`` and weighted by P_0(h) / P_s(h) = M(s)^t e^(-s L), so the
    bit's value is ``_tilted_value``, which is unbiased for every s and at
    most 4^-k M(s)^t / 2. At s = s* the
    tilted mean of L is 0, the histograms that carry V(t) are typical, and
    the value's relative deviation grows only like t^(1/4), where under the
    true law it grows exponentially in t (Sadowsky and Bucklew, IEEE Trans.
    IT 36(3), 1990). A trial's value is the sum of these over the bits with
    t_k > 0, plus 4^-k / 4 for each bit with t_k = 0 and the tail
    4^-q / 12; every term is >= 0 and the tail > 0. Where no output has mass
    under both inputs every output reveals the bit, and V(t_k) = 0.

    Every bit up to q is drawn (``_add_bit_values``): no target is drawn,
    so the 52-bit cap of the target's double does not apply. Within block b
    the stream is Philox keyed by (seed, b), and for each drawn bit in
    ascending order it gives one 53-bit integer per trial for symbol 0 and
    then the binomials of symbols 1..m-2. Each trial adds its terms in the
    same order (the shared constant, then the bits ascending), whatever the
    block.
    """
    ch, t = cfg.channel, cfg.pattern.t
    tilt = _tilt(ch)
    shared = [0.25 * 4.0**-k for k, t_k in enumerate(t, 1) if t_k == 0]
    values = np.full(cfg.trials, math.fsum(shared + [4.0 ** -len(t) / 12.0]))
    if tilt.cond is not None:
        _add_bit_values(cfg, values, _block_rngs(cfg), functools.partial(_tilted_value, tilt))
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
    """Squared errors of the MMSE decode of every trial, in trial order: row
    0 in the uniform domain, (F_n - F(X))^2; row 1 in the original domain,
    (X_hat - X)^2.

    Each block draws its targets first, then the bits in ascending index
    (``_add_bit_values``), each bit's histogram under the law of the
    target's bit. The decode F_n is 1/2 plus each bit's
    ``decoder._bit_offset``, (sigma(L) - 1/2) 2^-k; deeper bits than the
    52-bit cap of the target's double are unknown at prior for both encoder
    and decoder. A bit whose window exceeds ``HISTOGRAM_BUDGET`` counts is
    refused with ``BudgetExceededError`` naming the bit.

    Row 0 holds F_n until each block's errors replace it, so the targets
    and the result are the only arrays of the trials' length.
    """
    rngs = _block_rngs(cfg)
    starts = range(0, cfg.trials, BLOCK_TRIALS)
    u = np.empty(cfg.trials)
    for lo, rng in zip(starts, rngs):
        rng.random(out=u[lo : lo + BLOCK_TRIALS])
    errors = np.empty((2, cfg.trials))
    u_hat = errors[0]
    u_hat[:] = 0.5
    _add_bit_values(cfg, u_hat, rngs, lambda k, t_k, L: _bit_offset(L, k), targets=u)
    for lo in starts:
        block = slice(lo, lo + BLOCK_TRIALS)
        x = from_uniform(cfg.prior, u[block])
        x_hat = from_uniform(cfg.prior, u_hat[block])
        errors[1, block] = (x_hat - x) ** 2
        errors[0, block] = (u_hat[block] - u[block]) ** 2
    return errors


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
