"""Per-bit Bayesian decoding and the exact distortion oracle.

Bits of the target are independent under the uniform prior, and outputs are
i.i.d., so bit k's posterior p_k = P(X_k = 1 | history) has log-odds the sum
of its outputs' log-likelihood ratios ln(f1(y)/f0(y)). The array kernel
(``_sigmoid``, ``_bit_offset``) decodes a block of trials from those sums;
the simulator's squared-error statistic uses it.

The exact oracle: t outputs enter the posterior only through their
histogram h, whose term in V(t) = E[p(1-p)] is P(h|0) sigmoid(L_h) / 2,
L_h = sum_i h_i lambda_i. ln V is kept in log space (V ~ e^(-C t)):

* merge: outputs of equal ratio f1/f0 are merged, their masses summed
  (``_merge_tied_outputs``); V is unchanged, and the route, cache and
  budgets are the merged channel's. Only the m' outputs with mass under
  both inputs count (with none, V = 0, returned as ``_LOG_ZERO`` = -1e30
  times ceil(t/2)). Every input below is read from the Chernoff law
  (``channel.chernoff_tilt``): f_s, s*, M(s) = sum_i f0^(1-s) f1^s and
  kappa = min(s*, 1 - s*);
* window: the rows h in the box |h_i - t f_s*(i)| <= w, w^2 = t rho / 2,
  on every charged output but the second last, cut by the slab
  |L_h| <= rho / kappa, rho = 40 + ln(t)/2 + ln(2 m' - 1). Each term is at
  most (1/2) M^t P_s(h) e^(-kappa |L_h|), so by Hoeffding (JASA 58, 1963)
  the rows outside sum to at most (1/2) M^t (2 m' - 1) e^-rho. Its
  prefixes, the counts before the last two outputs, are built output by
  output within the box, and per prefix the slab is one interval of j, the
  last output's count: a binary bit's rows are (t - j, j), about
  2 rho / (kappa |lambda_1 - lambda_0|) of them (53 on bac:0.9,0.8 at
  t = 3000, 68 at 1e15), or the box, sqrt(2 t rho) (13 907 on bsc:0.4999
  at t = 2e6). Rows are summed in runs of about ``CHUNK_ROWS``, each
  bit's value independent of its run. Binary bits (m' <= 2) take it, and
  m-ary bits whose formula sum cancels (below);
* m-ary formula (m' >= 3): the kernel sigmoid(L) e^(-c L) has transform
  pi / sin(pi (c + i w)), so for c in (0, 1)
  V(t) = 1/4 M(c)^t int phi_c(w)^t / sin(pi (c + i w)) dw over the real
  line, phi_c(w) = sum_i f_c(i) e^(i w lambda_i). V is symmetric in f0
  and f1, so s* < 1/2 is evaluated on the mirror, and c = s*; where s*
  lies within a of 1 (a zero mass can pin it there), c = 1 + a past the
  pole at 1 is taken if it has fewer nodes, its residue adding
  (1/2) M(1)^t, with a the widest 2^-(1 + k/4) whose M(1 + a)^t lies within
  e of M(s*)^t. Pure noise gives V = 1/4. The trapezoid rule on the nodes
  k h of [0, W] (Trefethen and Weideman, SIAM Review 56, 2014) errs by at
  most 2 M_b / (e^(2 pi b / h) - 1) on the strip |Im w| <= b,
  b = min(kappa_c / 2, 1/sqrt(t v)), v the variance of lambda under f_s*
  and kappa_c the distance to the nearest pole, where
  |phi_c| <= M(c - y) / M(c); the nodes past W weigh 1/sinh(pi w). h and W
  hold both rho nats below the estimate ln(1/4) + t ln M - ln(1 + t v)/2;
* phase cut: for any pair of outputs
  |phi|^2 = 1 - 4 sum_{i<j} f_i f_j sin^2(w (lambda_i - lambda_j) / 2)
  <= 1 - 4 f_a f_b sin^2(w Delta_ab / 2), so only the in-phase windows of
  the pair with the fewest nodes are summed, the others bounded by
  exp(-2 t f_a f_b sin^2(w Delta_ab / 2)): a bit sums about 1.5k to 2.5k
  nodes on channel3.json at any t. The counts of an octave
  2^(k-1) <= t < 2^k share one grid; each count costs an exp and a cos
  per node;
* cancellation: a formula sum cancels where f_s sits on histograms of
  large |L_h| (likelihood ratios past about e^10), whose L_h lie on a
  sparse lattice. Its rounding (64 ulps of each term, 3 t w
  sum_i f_c(i) |lambda_i| ulps of its phase) is bounded, and a bit whose
  rounding may pass ``_ROUNDING`` max(1, |ln V|) in ln V is summed over
  its window instead, where few rows lie near L_h = 0;
* certificate: both routes hold their bound on what they leave out
  ``WINDOW_CERTIFICATE`` = 38 nats below the bit's sum, or the window is
  every row; a bit that misses by delta (bsc:0.001 at odd t, by about 1)
  is summed once more on its route with rho + delta + 1;
* budgets: a bit's terms, its window's rows or its grid's nodes, are
  counted before any is summed. One gate (``_check_histogram_total``)
  holds each bit to ``HISTOGRAM_BUDGET`` terms and a lookup's distinct
  counts to ``PATTERN_HISTOGRAM_BUDGET`` together; windows whose full rows
  C(t + m' - 1, m' - 1) pass both go uncounted, and a window whose box may
  hold more prefixes than ``HISTOGRAM_BUDGET`` is refused before any is
  built. A retry, and a window taken for a cancelling sum, are gated the
  same way. A count past 2^53 uses (``policy.MAX_USES``) is refused first.
  The sweep in ``sim`` looks up a block of steps at a time and, where a
  block fails, gates each step.

The rows' ln i! come from one table (``_ln_factorial``, ``math.lgamma``)
that every call shares and grows on demand up to ``LOG_FACTORIAL_TABLE``
entries, with ``math.lgamma`` past it. ln V is cached per (t_k, channel) by
``log_bit_variances``, the batched lookup (``exact_bit_variance`` holds the
cache). D = sum_k 4^-k V(t_k) + 4^-q / 12 is summed by ``policy``'s series
kernel: as a double (``assemble_distortion``) and as ln D
(``assemble_log_distortion``).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import ChannelSpec, chernoff_tilt
from .errors import BudgetExceededError, ValidationError
from .policy import TransmissionPattern, composition_counts
from .policy import _check_uses, _log_series, _series_sum, _series_terms

HISTOGRAM_BUDGET = 1_000_000
PATTERN_HISTOGRAM_BUDGET = 250_000_000
CHUNK_ROWS = 8192  # histogram rows, or count-node terms, per numpy pass: bounds its temporaries
WINDOW_CERTIFICATE = 38.0  # nats the bound on the terms left out lies below the bit's sum
LOG_FACTORIAL_TABLE = 1_000_001  # most entries of the shared ln i! table (8 MB)

_LOG_ZERO = -1e30  # stand-in for log 0; exp underflows to exactly 0.0
# Arguments of exp are raised to this floor: e^-700 is below the rounding
# of every sum it enters (each holds a term near 1), and exp near and below
# the subnormal range takes a slow path.
_EXP_FLOOR = -700.0
_RHO_BASE = WINDOW_CERTIFICATE + 2.0  # the exponent rho at t = 1 and m' = 1
# A formula sum whose rounding may pass this much of max(1, |ln V|) in ln V
# (about 1e-12) is summed again over every row.
_ROUNDING = 2.0**-40
_LN_QUARTER = math.log(0.25)
_LN_HALF = math.log(0.5)
_LN_12 = math.log(12.0)
_LN2 = math.log(2.0)


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
    """A merged channel's charged outputs, read from its Chernoff law: what
    the window and the m-ary formula take from it."""

    channel: ChannelSpec  # the merged channel, which keys the formula's grids
    parts: int  # m', the outputs with mass under both inputs
    log_f: tuple[np.ndarray, np.ndarray]  # ln f0, ln f1 of the charged outputs, in output order
    f: np.ndarray  # f_s* of the charged outputs, in output order
    lam: np.ndarray  # lambda_i = ln f1(i) - ln f0(i) of the charged outputs, in output order
    log_m: float
    kappa: float
    ends: tuple[np.ndarray, np.ndarray]  # log_f, swapped where s* < 1/2: the mirror's
    s: float  # the mirror's s*, at least 1/2
    var: float  # v, the variance of lambda under f_s*


@functools.lru_cache(maxsize=16)
def _window_law(ch: ChannelSpec) -> _Law:
    """``_Law`` of the merged ``ch``, read from its Chernoff law
    (``channel.chernoff_tilt``)."""
    law = chernoff_tilt(ch)
    f = law.f[list(law.charged)] if law.charged else np.zeros(0)
    lam = np.take(law.llr, law.charged)
    var = float(f @ (lam - f @ lam) ** 2)
    mirror = law.s < 0.5
    ends = law.log_f[::-1] if mirror else law.log_f
    s = 1.0 - law.s if mirror else law.s
    return _Law(ch, len(f), law.log_f, f, lam, law.log_m, law.kappa, ends, s, var)


def _rho(ts: np.ndarray, parts: int) -> np.ndarray:
    """The exponent rho = 40 + ln(t)/2 + ln(2 m' - 1) of each count."""
    return _RHO_BASE + 0.5 * np.log(ts) + math.log(2 * parts - 1)


def _first_rho(ts: np.ndarray, law: _Law) -> np.ndarray:
    """Each count's first rho: its own on a binary window, and that of the
    top of its octave, 2^k - 1, on the m-ary grid the octave shares."""
    if law.parts > 2:
        ts = np.exp2(np.frexp(ts.astype(np.float64))[1]) - 1.0
    return _rho(ts, law.parts)


def _box(t: np.ndarray, w: np.ndarray, f: float, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each count's interval |h - t f| <= w within 0..left."""
    lo = np.clip(np.ceil(t * f - w), 0, left).astype(np.int64)
    return lo, np.clip(np.floor(t * f + w), -1, left).astype(np.int64)


def _prefix_bound(ts: np.ndarray, law: _Law, rho: np.ndarray) -> np.ndarray:
    """At most how many prefixes each bit's window holds: the product of
    their box widths, at most C(t + m' - 2, m' - 2); one below three parts."""
    w, bound = np.sqrt(ts * rho / 2.0), np.ones(ts.size)
    for f in law.f[2:]:
        lo, hi = _box(ts, w, f, ts)
        bound *= np.maximum(hi - lo + 1, 0)
    return np.minimum(bound, composition_counts(ts.astype(np.float64), law.parts - 1))


def _window(ts: np.ndarray, law: _Law, rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each bit's window: the histograms h of its charged outputs in the box
    |h_i - t f_s*(i)| <= w, w^2 = t rho / 2, on every output but the first,
    and in the slab |L_h| <= half, half = rho / kappa, or where wider
    sum_i |lambda_i - lambda_0|, which keeps the row nearest L_h = 0
    (bsc:1e-60, odd t). Its prefixes, the counts of outputs m' - 1 down to
    2, are built output by output within the box; per prefix, L_h is linear
    in j, the count of output 1, so the slab is one interval of j. Returns
    each prefix's counts (output m' - 1 first), its bit, the count n that
    outputs 0 and 1 share and its interval of j (first value and width). A
    binary bit is one prefix, and where m' = 1 its one row is (t)."""
    n, bit = ts, np.arange(ts.size)
    prefix, form = np.zeros((ts.size, 0), dtype=np.int64), np.zeros(ts.size)
    if law.parts == 1:
        return prefix, bit, n, np.zeros_like(ts), np.ones_like(ts)
    w = np.sqrt(ts * rho / 2.0)
    for i in range(law.parts - 1, 1, -1):
        lo, hi = _box(ts[bit], w[bit], law.f[i], n)
        width = np.maximum(hi - lo + 1, 0)
        up = np.repeat(np.arange(n.size), width)
        part = np.arange(up.size) - (np.cumsum(width) - width)[up] + lo[up]
        prefix, n, bit = np.column_stack([prefix[up], part]), n[up] - part, bit[up]
        form = form[up] + law.lam[i] * part
    lo, hi = _box(ts[bit], w[bit], law.f[1], n)
    d = law.lam[1] - law.lam[0]
    half = np.maximum(rho[bit] / law.kappa, np.abs(law.lam[1:] - law.lam[0]).sum())
    base = form + law.lam[0] * n
    if d == 0.0:
        hi = np.where(np.abs(base) <= half, hi, lo - 1)
    else:  # |base + d j| <= half is one interval of j
        a, b = (-half - base) / d, (half - base) / d
        a, b = (a, b) if d > 0.0 else (b, a)
        lo = np.maximum(lo, np.ceil(np.clip(a, lo - 1, hi + 1)).astype(np.int64))
        hi = np.minimum(hi, np.floor(np.clip(b, lo - 1, hi + 1)).astype(np.int64))
    return prefix, bit, n, lo, np.maximum(hi - lo + 1, 0)


def _windows(ts: np.ndarray, law: _Law, rho: np.ndarray) -> Iterator[tuple[slice, tuple, np.ndarray]]:
    """Runs of bits of about ``CHUNK_ROWS`` prefixes, each with its
    ``_window`` and its bits' rows."""
    for b in _chunks(_prefix_bound(ts, law, rho)):
        window = _window(ts[b], law, rho[b])
        yield b, window, np.bincount(window[1], window[4], b.stop - b.start).astype(np.int64)


def _window_sizes(ts: np.ndarray, law: _Law, rho: np.ndarray) -> np.ndarray:
    """Each bit's window rows, counted from its prefixes."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *(size for *_, size in _windows(ts, law, rho))])


def _row_sums(H: np.ndarray, ts: np.ndarray, n: np.ndarray, law: _Law) -> np.ndarray:
    """ln V of bits whose n rows of ``H`` (histograms of the charged outputs
    in output order) follow one another, -inf for a bit of no rows: each
    row's log multinomial coefficient from the ln i! table, and its term by
    ``_segment_log_sums``."""
    log_mult = np.repeat(_ln_factorial(ts), n) - sum(map(_ln_factorial, H.T))
    log_v = np.full(ts.size, -np.inf)
    log_v[n > 0] = _segment_log_sums(H.astype(np.float64), log_mult, n[n > 0], law.log_f)
    return log_v


def _window_sums(ts: np.ndarray, law: _Law, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each bit's window rows and its ln V over them, the rows
    (n - j, j, prefix) built and summed in runs of bits of about
    ``CHUNK_ROWS``."""
    sizes, log_v = np.zeros(ts.size, dtype=np.int64), np.empty(ts.size)
    for b, (prefix, bit, n, lo, width), size in _windows(ts, law, rho):
        first = np.searchsorted(bit, np.arange(size.size + 1))  # each bit's first prefix
        for c in _chunks(size):
            p = slice(first[c.start], first[c.stop])
            j = np.arange(size[c].sum()) + np.repeat(lo[p] - (np.cumsum(width[p]) - width[p]), width[p])
            rest = np.repeat(n[p], width[p]) - j
            H = np.column_stack([rest, j, np.repeat(prefix[p][:, ::-1], width[p], axis=0)])[:, : law.parts]
            log_v[b][c] = _row_sums(H, ts[b][c], size[c], law)
        sizes[b] = size
    return sizes, log_v


def _log_mass(ends: tuple[np.ndarray, np.ndarray], y: np.ndarray) -> np.ndarray:
    """ln M(y) = ln sum_i f0(i)^(1-y) f1(i)^y over the charged outputs of
    ``ends``, for each entry of ``y``."""
    x = np.multiply.outer(1.0 - y, ends[0]) + np.multiply.outer(y, ends[1])
    top = x.max(axis=-1, keepdims=True)
    return (top + np.log(np.exp(x - top).sum(axis=-1, keepdims=True)))[..., 0]


class _Grid(NamedTuple):
    """The trapezoid grid that the counts of one octave share."""

    residue: bool  # the contour c lies past the pole at 1, whose residue is added
    c: float
    kappa: float  # c's distance from the pole at 1, at most that from 0 and 2
    h: float
    first: np.ndarray  # the first k of each run of nodes k h summed, ascending from 0
    width: np.ndarray  # the nodes of each run
    log_m: tuple[float, float]  # ln M(c), ln M(1)
    bounds: list[tuple[float, float]]  # (a, b): an error term ln(1/2) + a t + b


def _contour(law: _Law, lo: int, hi: int, rho: float, a: float) -> _Grid:
    """The grid on the contour c = s* (a = 0), or past the pole at c = 1 + a,
    whose error bounds lie rho nats below each count's estimate
    ln(1/4) + t ln M - ln(1 + t v)/2 of ln V, for every count lo..hi. Only
    the in-phase windows of the pair with the fewest nodes are kept; their
    runs are widened by a node each side, so every node dropped has
    sin^2(w Delta / 2) >= r."""
    kappa, c = (a, 1.0 + a) if a else (1.0 - law.s, law.s)
    b = min(kappa / 2.0, 1.0 / math.sqrt(hi * law.var))
    lm_c, lm_lo, lm_hi, lm_1 = _log_mass(law.ends, np.array([c, c - b, c + b, 1.0])).tolist()
    ts, strip = np.array([lo, hi], dtype=np.float64), max(lm_lo, lm_hi)
    excess = ts * (lm_c - law.log_m) + 0.5 * np.log1p(ts * law.var) + rho
    q = math.sin(math.pi * (kappa - b))  # int |dw / sin(pi (c - y + i w))| <= 2 / pi (1 + ln(...))
    log_j = math.log(2.0 / math.pi * (1.0 + math.log((1.0 + math.sqrt(1.0 + q * q)) / q)))
    # x = 2 pi b / h >= 1: a contour whose integral lies far below the estimate needs few nodes, not none
    x = max(float(np.logaddexp(0.0, (_LN2 + ts * (strip - lm_c) + log_j + excess).max())), 1.0)
    h = 2.0 * math.pi * b / x
    last = int(max(excess.max() + 1.0, 0.0) / (math.pi * h)) + 1  # the nodes run to W = last h
    z = math.exp(-math.pi * last * h)  # int_W^inf dw / sinh(pi w) = 2 atanh(z) / pi
    tail = math.log(2.0 / math.pi) - math.pi * last * h + (math.log(math.atanh(z) / z) if z else 0.0)
    bounds = [(strip, log_j - x - math.log(-math.expm1(-x))), (lm_c, tail)]  # ln 1/(e^x - 1)
    grid = _Grid(bool(a), c, kappa, h, np.zeros(1, np.int64), np.array([last + 1]), (lm_c, lm_1), bounds)
    la, lb = law.ends
    f = np.exp((1.0 - c) * la + c * lb - lm_c)
    i, j = np.triu_indices(law.parts, 1)
    ff, gap = f[i] * f[j], np.abs((lb - la)[i] - (lb - la)[j])
    spread = math.log((last + 1) * h / math.sin(math.pi * kappa))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = max(((_LN2 + excess + spread) / ts).max(), 0.0) / (2.0 * ff)
        half = 2.0 / gap * np.arcsin(np.sqrt(np.minimum(r, 1.0)))
        peaks = np.floor(((last + 1) * h + half) * gap / (2.0 * math.pi))
        cost = np.where(r < 1.0, (peaks + 1.0) * (2.0 * half / h + 3.0), np.inf)
    p = int(np.argmin(cost))
    if not cost[p] < last + 1:
        return grid
    centres = 2.0 * math.pi / gap[p] * np.arange(peaks[p] + 1.0)
    first = np.clip(np.ceil((centres - half[p]) / h) - 1.0, 0, last).astype(np.int64)
    end = np.clip(np.floor((centres + half[p]) / h) + 1.0, -1, last).astype(np.int64)
    first[1:] = np.maximum(first[1:], end[:-1] + 1)
    cut = (lm_c - 2.0 * ff[p] * r[p], spread)
    return grid._replace(first=first, width=np.maximum(end - first + 1, 0), bounds=[*bounds, cut])


@functools.lru_cache(maxsize=256)
def _grid(ch: ChannelSpec, lo: int, hi: int, rho: float) -> _Grid:
    """The grid of the counts lo..hi of the merged ``ch``: on the contour
    c = s*, or on c = 1 + a past the pole if that holds fewer nodes, with a
    the largest of 2^-(1 + k/4) whose M(1 + a)^t lies within e of M(s*)^t,
    where s* lies within a of 1. Cached, so the gate and the pass build it
    once."""
    law = _window_law(ch)
    grid = _contour(law, lo, hi, rho, 0.0)
    a = 0.5 * 2.0 ** (-np.arange(160) / 4.0)
    a = a[np.multiply.outer([lo, hi], _log_mass(law.ends, 1.0 + a) - law.log_m).max(axis=0) <= 1.0]
    if a.size and 1.0 - law.s < a[0]:
        past = _contour(law, lo, hi, rho, float(a[0]))
        if past.width.sum() < grid.width.sum():
            return past
    return grid


def _octaves(ts: np.ndarray, law: _Law, rho: np.ndarray) -> Iterator[tuple[_Grid, np.ndarray]]:
    """The grid of each octave 2^(k-1) <= t < 2^k and rho, and its counts'
    indices."""
    groups: dict[tuple[int, float], list[int]] = {}
    for i, key in enumerate(zip(np.frexp(ts.astype(np.float64))[1].tolist(), rho.tolist())):
        groups.setdefault(key, []).append(i)
    for (k, r), at in groups.items():
        yield _grid(law.channel, 2 ** (k - 1), 2**k - 1, r), np.array(at)


def _fourier_sums(ts: np.ndarray, law: _Law, g: _Grid) -> tuple[np.ndarray, ...]:
    """ln V by the formula of m-ary bits that share the grid ``g``, nan
    where a sum is not positive; ln of the bound on its error (the
    discretisation, the nodes past W and the nodes the phase cut drops);
    and ln of a bound on its rounding: a term rounds to about 64 ulps of
    its size, and its phase t arg phi(w) by about 3 t w sum_i f_c(i)
    |lambda_i| ulps, the rounding of the w lambda_i it sums. Per node
    w = k h: ln |phi_c(w)| from the pairs' sin^2, arg phi_c(w), and the
    log of its trapezoid weight (1 at w = 0, 2 for the pair +-w) over
    |sin(pi (c + i w))|, with sin(pi (u + i w)) for u = a past the pole
    and u = s* = 1 - kappa before it."""
    la, lb = law.ends
    lam, f = lb - la, np.exp((1.0 - g.c) * la + g.c * lb - g.log_m[0])
    i, j = np.triu_indices(law.parts, 1)
    sin_u, cos_u = math.sin(math.pi * g.kappa), math.cos(math.pi * g.kappa) * (1 if g.residue else -1)
    nodes = np.arange(g.width.sum()) + np.repeat(g.first - (np.cumsum(g.width) - g.width), g.width)
    per_node = []
    for k in np.array_split(nodes, -(-nodes.size // CHUNK_ROWS)):
        w = k * g.h
        x = np.multiply.outer(w, lam)
        with np.errstate(divide="ignore", over="ignore"):  # |phi| = 0, and nodes past e^710
            sin2 = np.sin(0.5 * np.multiply.outer(w, lam[i] - lam[j])) ** 2 @ (f[i] * f[j])
            log_w = np.where(k == 0, 0.0, _LN2) - np.log(np.hypot(sin_u, np.sinh(math.pi * w)))
            per_node.append((w, 0.5 * np.log1p(np.maximum(-4.0 * sin2, -1.0)), log_w,
                             np.arctan2(np.sin(x) @ f, np.cos(x) @ f),
                             np.arctan2(cos_u * np.tanh(math.pi * w), sin_u)))
    w, log_phi, log_w, arg_phi, arg_sin = map(np.concatenate, zip(*per_node))
    t = ts.astype(np.float64)
    sums, sizes, moments = np.zeros(t.size), np.zeros(t.size), np.zeros(t.size)
    step = max(1, CHUNK_ROWS // w.size)
    for a in range(0, t.size, step):
        tc = t[a : a + step, None]
        for k in range(0, w.size, CHUNK_ROWS):
            n = slice(k, k + CHUNK_ROWS)
            size = np.exp(tc * log_phi[n] + log_w[n])
            sums[a : a + step] += (size * np.cos(tc * arg_phi[n] - arg_sin[n])).sum(axis=1)
            sizes[a : a + step] += size.sum(axis=1)
            moments[a : a + step] += (size * w[n]).sum(axis=1)
    lm_c, lm_1 = g.log_m
    with np.errstate(divide="ignore", invalid="ignore"):
        if g.residue:  # 1/sin(pi (1 + a + i w)) = -1/sin(pi (a + i w))
            log_v = _LN_HALF + t * lm_1 + np.log1p(-0.5 * np.exp(t * (lm_c - lm_1)) * g.h * sums)
        else:
            log_v = _LN_QUARTER + t * lm_c + np.log(g.h * sums)
    ulps = 64.0 * sizes + 3.0 * t * (f @ np.abs(lam)) * moments
    rounding = _LN_QUARTER + t * lm_c + np.log(g.h * np.finfo(np.float64).eps * ulps)
    return log_v, np.logaddexp.reduce([_LN_HALF + a * t + b for a, b in g.bounds]), rounding


def _mary_sums(ts: np.ndarray, law: _Law, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each m-ary bit's ln V by the formula on its octave's grid, and the
    nats by which it misses the certificate: nan where its rounding may pass
    ``_ROUNDING`` max(1, |ln V|) in ln V."""
    log_v, miss = np.empty(ts.size), np.empty(ts.size)
    for grid, at in _octaves(ts, law, rho):
        v, log_err, rounding = _fourier_sums(ts[at], law, grid)
        with np.errstate(invalid="ignore"):
            kept = rounding - v <= np.log(_ROUNDING * np.maximum(np.abs(v), 1.0))
        log_v[at], miss[at] = v, np.where(kept, log_err - (v - WINDOW_CERTIFICATE), np.nan)
    return log_v, miss


def _terms(ts: np.ndarray, law: _Law, rho: np.ndarray) -> np.ndarray:
    """Each bit's terms, known before any is summed: its window's rows
    (m' <= 2) or its octave grid's nodes (none on pure noise)."""
    if law.parts <= 2:
        return _window_sizes(ts, law, rho)
    terms = np.zeros(ts.size, dtype=np.int64)
    for grid, at in _octaves(ts, law, rho) if law.var > 0.0 else ():
        terms[at] = grid.width.sum()
    return terms


def _gate(ts: np.ndarray, law: _Law, rho: np.ndarray, window: np.ndarray) -> None:
    """Refuse the bits of exponents ``rho`` past a budget of terms: the
    window's rows for the bits of ``window``, the formula's nodes for the
    others. Windows whose full rows C(t + m' - 1, m' - 1) pass both budgets
    pass uncounted, and a window whose box may hold more prefixes than
    ``HISTOGRAM_BUDGET`` is refused before any is built."""
    terms = np.zeros(ts.size, dtype=np.int64)
    if not window.all():
        terms[~window] = _terms(ts[~window], law, rho[~window])
    full = composition_counts(ts[window].astype(np.float64), law.parts)
    if full.max(initial=0.0) > HISTOGRAM_BUDGET or full.sum() > PATTERN_HISTOGRAM_BUDGET:
        _refuse(ts[window], _prefix_bound(ts[window], law, rho[window]), "prefixes")
        terms[window] = _window_sizes(ts[window], law, rho[window])
    _refuse(ts, terms, "terms")


def _refuse(ts: np.ndarray, terms: np.ndarray, noun: str) -> None:
    """Refuse bits of ``terms`` past the budget of one bit or together past
    that of one pattern."""
    i = int(terms.argmax())
    if terms[i] > HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"exact distortion too large: a bit of {ts[i]} uses needs {terms[i]:.0f} {noun}, over the "
            f"{HISTOGRAM_BUDGET} budget of one bit"
        )
    total = terms.sum()
    if total > PATTERN_HISTOGRAM_BUDGET:
        raise BudgetExceededError(
            f"exact distortion too large: {total:.0f} {noun} exceed the "
            f"{PATTERN_HISTOGRAM_BUDGET} budget of one pattern"
        )


def _sums(ts: np.ndarray, law: _Law, rho: np.ndarray, window: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each bit's ln V with exponents ``rho``, the nats by which its bound
    on what it leaves out misses the certificate (-inf where it sums every
    row), whether it took the window, and its rho: the bits of ``window``
    take the window, the others the formula, or, where the formula's
    rounding may pass ``_ROUNDING`` max(1, |ln V|) in ln V, the window of
    their own rho, gated."""
    log_v, miss = np.empty(ts.size), np.empty(ts.size)
    if not window.all():
        log_v[~window], miss[~window] = _mary_sums(ts[~window], law, rho[~window])
        lost = np.isnan(miss) & ~window
        if lost.any():
            rho = np.where(lost, _rho(ts, law.parts), rho)
            _gate(ts[lost], law, rho[lost], np.ones(lost.sum(), dtype=bool))
        window = window | lost
    if window.any():
        t, r = ts[window], rho[window]
        sizes, v = _window_sums(t, law, r)
        bound = _LN_HALF + t * law.log_m + math.log(2 * law.parts - 1) - r
        full = composition_counts(t.astype(np.float64), law.parts)
        log_v[window], miss[window] = v, np.where(sizes < full, bound - (v - WINDOW_CERTIFICATE), -np.inf)
    return log_v, miss, window, rho


def _log_variance_pass(ts: np.ndarray, ch: ChannelSpec) -> np.ndarray:
    """ln V(t) for distinct counts t >= 1 of the merged channel ``ch`` that
    the gate (``_check_histogram_total``) has passed: the window where
    m' <= 2, the formula otherwise, or the window where the formula's sum
    cancels. A bit whose certificate misses by delta nats is gated and
    summed again on its route with rho + delta + 1."""
    law = _window_law(ch)
    if law.parts == 0:  # V = 0: -1e30 for each count on a row's larger side
        return _LOG_ZERO * ((ts + 1) // 2)
    if law.parts > 2 and law.var == 0.0:  # pure noise: every posterior stays 1/2
        return np.full(ts.size, _LN_QUARTER)
    log_v, miss, window, rho = _sums(ts, law, _first_rho(ts, law), np.full(ts.size, law.parts <= 2))
    redo = np.flatnonzero(miss > 0.0)
    if redo.size:
        wider = rho[redo] + miss[redo] + 1.0
        _gate(ts[redo], law, wider, window[redo])
        log_v[redo] = _sums(ts[redo], law, wider, window[redo])[0]
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
    ``policy`` run makes one) (2-core x86_64 host). Nothing is summed
    before a refusal; the formula's grids are built once, for the gate and
    the pass."""
    law = _window_law(_merge_tied_outputs(ch))
    ts = np.fromiter({t for t in counts if t > 0}, np.int64)
    if ts.size and law.parts:
        _gate(ts, law, _first_rho(ts, law), np.full(ts.size, law.parts <= 2))


def log_bit_variances(counts: Iterable[int], ch: ChannelSpec) -> list[float]:
    """ln E[Var(X_k | history)] after t_k i.i.d. uses, for each count t_k.

    The cached values are looked up and the others computed in one batched
    pass, so the result does not depend on which other counts share the
    call. Counts whose terms together exceed the pattern budget, one of
    which exceeds the per-bit budget, or one past ``policy.MAX_USES``
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
    the term budget is refused with ``BudgetExceededError``.
    """
    return assemble_distortion(log_bit_variances(t.t, ch))
