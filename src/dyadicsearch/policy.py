"""Transmission patterns, distortion bounds, and policy construction.

A transmission pattern t = (t_1, ..., t_q) says how many of the n channel
uses go to each bit of the target's binary expansion. For a channel with
Chernoff information C and mean absolute log-likelihood ratio B, the minimum
end-to-end mean squared error D(t) is sandwiched by

    L(t) = 1/4 sum_{k>=1} 4^(-k) exp(-t_k B)   <=   D(t)   <=
    U(t) =     sum_{k>=1} 4^(-k) exp(-t_k C)

(untransmitted indices contribute their prior terms; the infinite tail
beyond the last transmitted bit is summed in closed form). U, L and the exact
D of ``decoder`` are one dyadic series sum_k 4^-k e^(y_k) + c 4^-q, summed
by one private kernel (``_series_terms``, ``_series_sum``, ``_log_series``)
that the staircase sweep of ``sim`` shares.

An *efficient* pattern minimizes U subject to sum t_k = n. Because U is
separable with convex decreasing per-index terms, the minimum takes the n
uses with the largest decreases of U (marginal allocation). In units of C the
negative log of the decrease from one more use of bit k at count c is the key
k ln4/C + c, so the n smallest keys are those below a water level plus a tie
fill, found in numpy passes over the O(sqrt(n C)) bits it can reach: a
running sum over the sorted first keys gives the level, each count is
floored at it, and one sort on (key, k) of 2m + 1 keys places the uses left
over, ties going to the smaller index. A fill that could pass
``PATTERN_BUDGET`` bits, or a budget past 2^53 uses, whose double keys
would miscount, is refused before it is built. Exhaustive
enumeration over bounded-depth compositions is an independent route.

The staircase ("Aurelian") policy allocates t_k = (q - k + 1) r with
r = floor(ln4 / C) and q the largest depth whose staircase fits the budget,
then places the remainder with the same threshold fill. Its upper bound
decays like exp(-A2 sqrt(n)) with A2 = sqrt(2 r) C. At a fixed q the
remainder fill is nested: the fill of R + 1 uses is the fill of R plus the
next key in (key, k) order. ``_staircase_walk`` uses this to walk a budget
grid: one fill and one sort of its units per run of budgets sharing q, then
one unit per extra use, reporting the bits each step changes and their new
counts, never the whole pattern; a run with more units than budgets times
q fills each budget on its own instead. ``aurelian`` is its first step, and
the staircase sweep of ``sim`` takes every step.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import LN4, InfoConstants
from .errors import BudgetExceededError, ValidationError

PATTERN_BUDGET = 10_000_000
MAX_USES = 2**53  # up to it a fill's counts sum to n exactly; past it they need not
COMPOSITION_ROWS = 65536

_CHECK_SLACK = 1e-9
_BOUND_TAIL = 1.0 / 3.0  # c of U and, before the factor 1/4, of L
_LN3 = math.log(3.0)
_LN_QUARTER = math.log(0.25)


@dataclass(frozen=True)
class TransmissionPattern:
    """Repetition counts per bit index, trailing zeros trimmed."""

    t: tuple[int, ...]

    def __post_init__(self) -> None:
        if any((not isinstance(x, int)) or x < 0 for x in self.t):
            raise ValidationError("pattern entries must be non-negative integers")
        if self.t and self.t[-1] == 0:
            trimmed = list(self.t)
            while trimmed and trimmed[-1] == 0:
                trimmed.pop()
            object.__setattr__(self, "t", tuple(trimmed))

    @property
    def n(self) -> int:
        return sum(self.t)

    @property
    def q(self) -> int:
        """Last transmitted bit index (0 for the empty pattern)."""
        return len(self.t)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.t)


def pattern(counts: Sequence[int]) -> TransmissionPattern:
    return TransmissionPattern(tuple(int(x) for x in counts))


def parse_pattern(text: str) -> TransmissionPattern:
    text = text.strip()
    if not text:
        return TransmissionPattern(())
    try:
        return pattern([int(x) for x in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"cannot parse pattern {text!r}: {exc}") from exc


def _series_terms(k: np.ndarray, y: Sequence[float]) -> list[float]:
    """4^-(k+1) e^(y_k) for 0-based bits k: the terms of the dyadic series
    S(y, c) = sum_k 4^-(k+1) e^(y_k) + c 4^-q. U is S(-t C, 1/3), L is
    S(-t B, 1/3) / 4 and D is S(ln V, 1/12). The power of four is an exact
    scaling. The exps are ``math.exp``'s: numpy's SIMD exp varies with the
    CPU and, with AVX-512, errs by up to 0.67 ulp on [-700, 0], against 0.503."""
    return np.ldexp(np.fromiter(map(math.exp, y), np.float64, len(y)), -2 * (k + 1)).tolist()


def _series_sum(terms: Sequence[float], c: float) -> float:
    """S from the terms of bits 1..q: their correctly rounded sum, which
    does not depend on the terms' order, plus the closed-form tail c 4^-q."""
    return math.fsum(terms) + 4.0 ** -len(terms) * c


def _log_series(y: Sequence[float], ln_c: float) -> float:
    """ln S(y, c) from ln c, summed in log space: shifted by the largest log
    term, so it stays finite where S underflows."""
    q = len(y)
    x = np.append(np.asarray(y, dtype=np.float64) - LN4 * np.arange(1, q + 1), ln_c - q * LN4)
    top = x.max()
    return float(top + math.log(math.fsum(map(math.exp, (x - top).tolist()))))


def _exponents(t: TransmissionPattern, rate: float, name: str) -> list[float]:
    """-t_k rate per bit, the exponents of U (rate C) and L (rate B)."""
    if not 0.0 <= rate < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {rate!r}")
    return (-np.asarray(t.t, dtype=np.float64) * rate).tolist()


def upper_bound(t: TransmissionPattern, C: float) -> float:
    """U(t): Chernoff upper bound on the distortion, tail in closed form.

    Summed term by term with positive terms only, so the result keeps full
    relative precision even when it underflows the prior scale (needed for
    the large-n rate sweeps).
    """
    return _series_sum(_series_terms(np.arange(t.q), _exponents(t, C, "C")), _BOUND_TAIL)


def lower_bound(t: TransmissionPattern, B: float) -> float:
    """L(t): lower bound driven by the mean absolute log-likelihood ratio."""
    return 0.25 * _series_sum(_series_terms(np.arange(t.q), _exponents(t, B, "B")), _BOUND_TAIL)


def log_upper_bound(t: TransmissionPattern, C: float) -> float:
    """ln U(t), summed in log space: finite where U underflows."""
    return _log_series(_exponents(t, C, "C"), -_LN3)


def log_lower_bound(t: TransmissionPattern, B: float) -> float:
    """ln L(t), summed in log space: finite where L underflows."""
    return _LN_QUARTER + _log_series(_exponents(t, B, "B"), -_LN3)


def pattern_count(n: int, max_depth: int) -> int:
    return math.comb(n + max_depth - 1, max_depth - 1)


def composition_counts(totals: np.ndarray, parts: int) -> np.ndarray:
    """C(t + parts - 1, parts - 1) for each total t: how many rows
    ``composition_rows`` gives it."""
    count = totals + 1 if parts > 1 else np.ones_like(totals)
    for i in range(2, parts):
        count = count * (totals + i) // i  # C(t + i, i), exact at every step
    return count


def composition_rows(totals, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Every composition of each total into ``parts`` non-negative parts, one
    per int64 row (lexicographic within a total, the totals' blocks in input
    order), and how many each total has. Each level above the last two
    parts turns every prefix into the values of its next part and what is
    left; the last two parts are (x, left - x), x = 0..left.
    """
    left = np.asarray(totals, dtype=np.int64)
    if parts == 1:
        return left.reshape(-1, 1), np.ones(left.size, dtype=np.int64)
    levels = []  # each level's values and the index of their prefix one level up
    for _ in range(parts - 2):
        width = left + 1
        up = np.repeat(np.arange(left.size), width)
        part = np.arange(up.size) - (np.cumsum(width) - width)[up]
        left = left[up] - part
        levels.append((part, up))
    count = left + 1  # rows below each value of the level
    last = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    rows = np.empty((last.size, parts), dtype=np.int64)
    rows[:, -2] = last
    rows[:, -1] = np.repeat(left, count) - last
    for j in range(parts - 3, -1, -1):
        part, up = levels[j]
        rows[:, j] = np.repeat(part, count)
        size = levels[j - 1][0].size if j else len(totals)
        count = np.bincount(up, weights=count, minlength=size).astype(np.int64)
    return rows, count


def _bounded_rows(n: int, depth: int) -> Iterator[np.ndarray]:
    """``composition_rows([n], depth)`` in consecutive pieces of at most
    ``COMPOSITION_ROWS`` rows: a run of first parts whose rows fit together
    is one call on the totals left after them, and a first part with more
    rows than that splits the parts after it the same way."""
    if math.comb(n + depth - 1, depth - 1) <= COMPOSITION_ROWS:
        yield composition_rows([n], depth)[0]
        return
    firsts = np.arange(n + 1)
    sizes = composition_counts(n - firsts, depth - 1)
    ends = np.cumsum(sizes)
    a = 0
    while a <= n:
        b = int(np.searchsorted(ends, ends[a] - sizes[a] + COMPOSITION_ROWS, side="right"))
        if b == a:
            for rows in _bounded_rows(n - a, depth - 1):
                yield np.column_stack([np.full(len(rows), a), rows])
            b = a + 1
        else:
            rest = composition_rows(n - firsts[a:b], depth - 1)[0]
            yield np.column_stack([np.repeat(firsts[a:b], sizes[a:b]), rest])
        a = b


def compositions(n: int, depth: int) -> Iterator[np.ndarray]:
    """All compositions of n into ``depth`` parts, in lexicographic order.

    Yields int64 blocks of at most ``COMPOSITION_ROWS`` compositions, one
    per row: the rows of ``composition_rows([n], depth)`` in the pieces
    ``_bounded_rows`` builds them, so a scan over the ``PATTERN_BUDGET``
    compositions, the most it allows, holds one block at a time.
    """
    _check_budget(pattern_count(n, depth), "patterns to enumerate")
    yield from _bounded_rows(n, depth)


def enumerate_patterns(n: int, max_depth: int) -> list[TransmissionPattern]:
    """All ways to split n uses over bits 1..max_depth, in lexicographic order."""
    if n < 0 or max_depth < 1:
        raise ValidationError("need n >= 0 and max_depth >= 1")
    return [TransmissionPattern(tuple(t)) for b in compositions(n, max_depth) for t in b.tolist()]


def _check_budget(size: int, what: str) -> None:
    """Refuse, before anything is built, more than ``PATTERN_BUDGET`` of
    ``what``: patterns to enumerate, bits of a pattern, budgets of a grid."""
    if size > PATTERN_BUDGET:
        raise BudgetExceededError(f"too many {what}: {size} over the {PATTERN_BUDGET} budget")


def _check_uses(n: int) -> None:
    """Refuse, before anything is built, a budget past ``MAX_USES``: the cap
    keeps a fill's sum exact, not always its placement near 2^53."""
    if n > MAX_USES:
        raise BudgetExceededError(
            f"too many uses: {n} over 2^53 = {MAX_USES}, past which counts are not exact in doubles"
        )


def _key_step(C: float) -> float:
    """a = ln4 / C, the key step from one bit to the next."""
    if not 0.0 < C < math.inf:
        raise ValidationError(f"C must be finite and > 0, got {C!r}")
    return LN4 / C


def _water_fill(base: Sequence[int], units: int, a: float) -> np.ndarray:
    """``base`` plus ``units`` uses on the smallest keys (k+1) a + c of index
    k at count c, ties to the smaller k, as int64 counts over the base and
    the fresh indices the fill may open, trailing zeros kept. A key is the
    negative log of U's decrease from one more use, in units of C.

    In (key, k) order of the first keys f, the first m indices share the
    water level (units + F_m) / m, F the running sum, where m is the first
    with that level at most the next first key. The sort is needed: staircase
    keys rise with k (a >= r), but in doubles can fall an ulp when a is just
    above r. Fresh index j + 1 past the base opens only once units > a j
    (j+1) / 2, so isqrt(2 units / a) + 2 fresh ones hold the walk and the next.
    """
    fresh = math.isqrt(int(2 * units / a) + 1) + 2
    _check_budget(len(base) + fresh, "bits in the pattern")
    counts = np.concatenate((np.asarray(base, dtype=np.int64), np.zeros(fresh, np.int64)))
    rank = np.arange(1, counts.size + 1)
    first = rank * a + counts
    order = np.argsort(first, kind="stable")  # (key, k) order: ties keep index order
    f = first[order]
    total = np.cumsum(f)
    m = int(np.argmax(float(units) + total[:-1] <= rank[:-1] * f[1:])) + 1
    level = (float(units) + float(total[m - 1])) / m
    # Keys at least 2 below the level are taken: max(0, floor(level - f) - 1)
    # more uses, which truncation gives too. The rest, under one per walked
    # index, go to the window's smallest keys: two per walked index, so level
    # rounding cannot lose one, and the next first key, for a hidden tie.
    walked = order[:m]
    inc = np.maximum((level - f[:m]).astype(np.int64) - 1, 0)
    counts[walked] += inc
    low = f[:m] + inc
    keys = np.concatenate((low, low + 1.0, f[m : m + 1]))
    ks = np.concatenate((walked, walked, order[m : m + 1]))
    take = ks[np.lexsort((ks, keys))[: units - int(inc.sum())]]
    return counts + np.bincount(take, minlength=counts.size)


def _exhaustive_argmin(n: int, C: float, max_depth: int) -> TransmissionPattern:
    weights = 4.0 ** -np.arange(1, max_depth + 1)
    best_val, best = math.inf, ()
    for block in compositions(n, max_depth):
        # Fixed-depth evaluation: zero entries contribute their prior weight,
        # which together with the constant 4^-d/3 tail equals the trimmed form.
        vals = np.exp(-block.astype(np.float64) * C) @ weights
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best = float(vals[i]), tuple(block[i].tolist())
    return TransmissionPattern(best)


def efficient_search(
    n: int,
    C: float,
    mode: str = "greedy",
    max_depth: int | None = None,
) -> TransmissionPattern:
    """Pattern minimizing U for budget n.

    ``greedy`` gives the n uses to the n largest decreases of U, found by the
    threshold fill (water level, floor, one sort of 2m + 1 keys; ties toward
    the smaller index) in numpy passes over the O(sqrt(n C)) bits it may
    reach; separable convexity makes this the exact integer minimum. Its
    depth is whatever the fill reaches (refused past ``PATTERN_BUDGET``), so
    it takes no ``max_depth``.
    ``exhaustive`` scans every composition of n into ``max_depth`` parts and
    is the independent cross-check route (refused above the pattern budget).
    """
    if n < 0:
        raise ValidationError("budget n must be >= 0")
    a = _key_step(C)
    if mode == "greedy":
        if max_depth is not None:
            raise ValidationError("greedy mode takes no max_depth (exhaustive mode does)")
        _check_uses(n)
        return TransmissionPattern(tuple(_water_fill((), n, a).tolist()))
    if mode == "exhaustive":
        if max_depth is None or max_depth < 1:
            raise ValidationError("exhaustive mode needs max_depth >= 1")
        return _exhaustive_argmin(n, C, max_depth)
    raise ValidationError(f"unknown search mode {mode!r}")


def _check_staircase(n: int, k: InfoConstants) -> None:
    if k.r < 1:
        raise ValidationError(
            f"repetition unit r={k.r} (C > ln 4): the staircase policy is undefined"
        )
    if n < k.r:
        raise ValidationError(f"budget below one repetition unit: n={n} < r={k.r}")


def _staircase_depth(n: int, r: int) -> int:
    """Largest q whose full staircase r q (q+1) / 2 fits in n: q (q+1) / 2
    <= n // r exactly when (2q + 1)^2 <= 8 (n // r) + 1."""
    return (math.isqrt(8 * (n // r) + 1) - 1) // 2


def aurelian(n: int, k: InfoConstants) -> TransmissionPattern:
    """Staircase policy: base allocation t_j = (q - j + 1) r, remainder by threshold fill.

    q is the largest depth whose full staircase r q (q+1) / 2 fits in n
    (refused past ``PATTERN_BUDGET``); the leftover uses go to the largest
    decreases of U on top of the staircase, placed by the same threshold
    fill as ``efficient_search``, which keeps the pattern non-increasing.
    This is the first step of ``_staircase_walk``, the only construction of
    the staircase, on a one-budget grid: every bit changes there.
    """
    *_, counts = next(_staircase_walk([n], k))
    return TransmissionPattern(tuple(counts))


def _fill_per_budget(units: int, budgets: int, q: int) -> bool:
    """Whether a run of ``budgets`` budgets at depth q whose largest
    remainder is ``units`` uses costs less as one fill per budget,
    O(budgets q), than as a walk over its units, O(units)."""
    return units > budgets * q


def _step_to(cur: list[int], fill: np.ndarray) -> tuple[list[int], list[int]]:
    """The fill's counts, trailing zeros trimmed, and the indices, ascending,
    where they differ from ``cur``, which is no longer than they are."""
    new = fill[: np.flatnonzero(fill)[-1] + 1]
    old = np.zeros_like(new)
    old[: len(cur)] = cur
    return new.tolist(), np.flatnonzero(new != old).tolist()


def _staircase_walk(
    n_values: Sequence[int], k: InfoConstants
) -> Iterator[tuple[int, int, int, list[int], list[int]]]:
    """``aurelian(n)`` for each budget of a strictly increasing grid, as
    steps of one live count list.

    Yields, per budget, (n, q, t1, bits, counts): the pattern's length q
    (trailing zeros trimmed) and first count, the 0-based indices whose
    count changed since the previous budget, ascending (every index at the
    first), and their new counts.

    The budgets of staircase depth q are the run [r q(q+1)/2,
    r (q+1)(q+2)/2), whose end ``bisect`` finds in the grid. A run takes
    the cheaper of two routes. Where its largest remainder, in units, is at
    most its budgets times q, its units are walked: the remainder fill is
    nested, the fill of R + 1 uses being the fill of R plus the next key in
    (key, k) order, with the keys (k+1) ln4/C + c of the threshold fill and
    its ties to the smaller index. So one fill of the run's largest
    remainder gives every unit the run places, and those units, ordered by
    one ``np.lexsort`` on (key, k), give each budget's pattern as a prefix:
    a step adds the units between two budgets. Otherwise each budget is
    filled on its own, O(q) time and memory, and its step is the bits whose
    counts differ from the previous budget's. The fill may open bit q+1. A
    q past ``PATTERN_BUDGET`` is refused up front.
    """
    a = _key_step(k.C)
    if any(y <= x for x, y in zip(n_values, n_values[1:])):
        raise ValidationError("n_values must be strictly increasing")
    if not n_values:
        return
    _check_staircase(n_values[0], k)
    _check_uses(n_values[-1])
    r = k.r
    _check_budget(_staircase_depth(n_values[-1], r), "bits in the pattern")
    cur: list[int] = []
    i = 0
    while i < len(n_values):
        q = _staircase_depth(n_values[i], r)
        floor_n = r * q * (q + 1) // 2
        end = bisect.bisect_left(n_values, r * (q + 1) * (q + 2) // 2, i)
        run = n_values[i:end]
        i = end
        stairs = np.arange(q, 0, -1) * r
        if _fill_per_budget(run[-1] - floor_n, len(run), q):
            for n in run:
                cur, bits = _step_to(cur, _water_fill(stairs, n - floor_n, a))
                yield n, len(cur), cur[0], bits, [cur[m] for m in bits]
            continue
        first = _water_fill(stairs, run[-1] - floor_n, a)
        if len(run) > 1:
            base = np.zeros_like(first)
            base[:q] = stairs
            # The fill's units as keys f + e: f = (m+1) a + base count, e uses on top.
            extra = first - base
            bit = np.repeat(np.arange(first.size), extra)
            e = np.arange(bit.size) - np.repeat(np.cumsum(extra) - extra, extra)
            units = bit[np.lexsort((bit, ((bit + 1) * a + base[bit]) + e))]
            first = base + np.bincount(units[: run[0] - floor_n], minlength=base.size)
            units = units.tolist()
        cur, bits = _step_to(cur, first)
        yield run[0], len(cur), cur[0], bits, [cur[m] for m in bits]
        for lo, n in zip(run, run[1:]):
            step = units[lo - floor_n : n - floor_n]
            for m in step:
                if m == len(cur):
                    cur.append(0)
                cur[m] += 1
            bits = step if len(step) == 1 else sorted(set(step))
            yield n, len(cur), cur[0], bits, [cur[m] for m in bits]


@dataclass(frozen=True)
class EfficiencyReport:
    """Structural checks every exact U-minimizer must satisfy."""

    no_gap: bool
    spacing: bool
    violations: tuple[str, ...] = ()
    violating_pairs: int = 0

    @property
    def ok(self) -> bool:
        return self.no_gap and self.spacing


def check_efficient_properties(t: TransmissionPattern, r_real: float) -> EfficiencyReport:
    """No-gap and pairwise spacing checks with the unfloored r_real = ln4 / C.

    Spacing requires (k2-k1) r_real - 1 <= t_{k1} - t_{k2} <= (k2-k1) r_real + 1
    for all transmitted pairs k1 < k2; both follow from single-move optimality
    of a U-minimizer. With a_k = t_k + (k-1) r_real a pair passes exactly when
    |a_{k1} - a_{k2}| <= 1, so all pairs are checked at once through
    max a - min a, and the failing ones are counted after one sort. A failed
    check reports that count and the widest pair on one line.
    """
    violations: list[str] = []
    q = t.q
    no_gap = all(t.t[i] >= 1 for i in range(q))
    if not no_gap:
        violations.append("gap: some bit up to the last transmitted index has no uses")
    a = [c + k * r_real for k, c in enumerate(t.t)]
    width = 1.0 + _CHECK_SLACK
    bad = 0
    if q and max(a) - min(a) > width:
        s = sorted(a)
        lo = 0
        for hi, x in enumerate(s):
            while x - s[lo] > width:
                lo += 1
            bad += lo
        i, j = sorted((a.index(max(a)), a.index(min(a))))
        diff = t.t[i] - t.t[j]
        gap = (j - i) * r_real
        violations.append(
            f"spacing: {bad} of {q * (q - 1) // 2} pairs have t_k1-t_k2 outside "
            f"(k2-k1) r_real +- 1; widest t_{i + 1}-t_{j + 1}={diff} "
            f"outside [{gap - 1.0:.6g}, {gap + 1.0:.6g}]"
        )
    return EfficiencyReport(
        no_gap=no_gap, spacing=bad == 0, violations=tuple(violations), violating_pairs=bad
    )


@dataclass(frozen=True)
class DepthBoundsReport:
    """Depth and top-count bounds implied by the structural properties."""

    t1_bound: bool
    q_bound: bool

    @property
    def ok(self) -> bool:
        return self.t1_bound and self.q_bound


def depth_bounds(t: TransmissionPattern, r: int) -> DepthBoundsReport:
    """Checks t_1 <= q (r + 1) and q <= sqrt(2n + 1/2) - 1/4."""
    q = t.q
    t1 = t.t[0] if t.t else 0
    t1_ok = t1 <= q * (r + 1) + _CHECK_SLACK
    q_ok = q <= math.sqrt(2.0 * t.n + 0.5) - 0.25 + _CHECK_SLACK
    return DepthBoundsReport(t1_bound=bool(t1_ok), q_bound=bool(q_ok))
