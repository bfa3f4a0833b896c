"""Transmission patterns, distortion bounds, and policy construction.

A transmission pattern t = (t_1, ..., t_q) says how many of the n channel
uses go to each bit of the target's binary expansion. For a channel with
Chernoff information C and mean absolute log-likelihood ratio B, the minimum
end-to-end mean squared error D(t) is sandwiched by

    L(t) = 1/4 sum_{k>=1} 4^(-k) exp(-t_k B)   <=   D(t)   <=
    U(t) =     sum_{k>=1} 4^(-k) exp(-t_k C)

(untransmitted indices contribute their prior terms; the infinite tail
beyond the last transmitted bit is summed in closed form).

An *efficient* pattern minimizes U subject to sum t_k = n. Because U is
separable with convex decreasing per-index terms, the minimum takes the n
uses with the largest decreases of U (marginal allocation). In units of C the
negative log of the decrease from one more use of bit k at count c is the key
k ln4/C + c, so the n smallest keys are those below a water level plus a tie
fill: one pass over the indices finds the level, each count is floored at it,
and one sort on (key, k) places the fewer-than-one-per-index uses left over,
ties going to the smaller index. That is O(q log q) for depth q, independent
of n. Exhaustive enumeration over bounded-depth compositions is kept as an
independent route.

The staircase ("Aurelian") policy allocates t_k = (q - k + 1) r with
r = floor(ln4 / C) and q the largest depth whose staircase fits the budget,
then places the remainder with the same threshold fill. Its upper bound
decays like exp(-A2 sqrt(n)) with A2 = sqrt(2 r) C. At a fixed q the
remainder fill is nested: the fill of R + 1 uses is the fill of R plus the
next key in (key, k) order. ``aurelian_steps`` uses this to walk a budget
grid: one fill and one sort per run of budgets sharing q, then one unit per
extra use, reporting the bits each step changes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .channel import LN4, InfoConstants
from .errors import BudgetExceededError, ValidationError

PATTERN_BUDGET = 10_000_000
COMPOSITION_ROWS = 65536

_CHECK_SLACK = 1e-9


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


def _bound_term(k: int, t_k: int, rate: float) -> float:
    """4^-(k+1) e^(-t_k rate): the term of 0-based bit k in U (rate C) and,
    before the factor 1/4, in L (rate B)."""
    return 4.0 ** -(k + 1) * math.exp(-t_k * rate)


def _upper_sum(terms: Sequence[float]) -> float:
    """U from the terms of bits 1..q: their fsum plus the closed-form tail.
    L is a quarter of the same sum over its own terms."""
    return math.fsum(terms) + 4.0 ** -len(terms) / 3.0


def upper_bound(t: TransmissionPattern, C: float) -> float:
    """U(t): Chernoff upper bound on the distortion, tail in closed form.

    Summed term by term with positive terms only, so the result keeps full
    relative precision even when it underflows the prior scale (needed for
    the large-n rate sweeps).
    """
    if C < 0.0:
        raise ValidationError("C must be >= 0")
    return _upper_sum([_bound_term(k, c, C) for k, c in enumerate(t.t)])


def lower_bound(t: TransmissionPattern, B: float) -> float:
    """L(t): lower bound driven by the mean absolute log-likelihood ratio."""
    if B < 0.0:
        raise ValidationError("B must be >= 0")
    return 0.25 * _upper_sum([_bound_term(k, c, B) for k, c in enumerate(t.t)])


def pattern_count(n: int, max_depth: int) -> int:
    return math.comb(n + max_depth - 1, max_depth - 1)


def compositions(n: int, depth: int) -> Iterator[np.ndarray]:
    """All compositions of n into ``depth`` parts, in lexicographic order.

    Stars and bars: each ascending choice of depth - 1 bar positions among
    n + depth - 1 slots is one composition, its parts the gaps between bars,
    and ascending bar positions give lexicographic order. Yields int64
    arrays of at most ``COMPOSITION_ROWS`` compositions, one per row.
    """
    if depth == 1:
        yield np.array([[n]], dtype=np.int64)
        return
    total = n + depth - 1
    bars = itertools.combinations(range(total), depth - 1)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(bars, COMPOSITION_ROWS)), dtype=np.int64
        )
        if not flat.size:
            return
        edges = np.pad(flat.reshape(-1, depth - 1), ((0, 0), (1, 1)), constant_values=(-1, total))
        yield np.diff(edges, axis=1) - 1


def enumerate_patterns(n: int, max_depth: int) -> list[TransmissionPattern]:
    """All ways to split n uses over bits 1..max_depth, in lexicographic order."""
    if n < 0 or max_depth < 1:
        raise ValidationError("need n >= 0 and max_depth >= 1")
    count = pattern_count(n, max_depth)
    if count > PATTERN_BUDGET:
        raise BudgetExceededError(
            f"enumeration too large: {count} patterns exceeds the {PATTERN_BUDGET} budget"
        )
    return [TransmissionPattern(tuple(t)) for b in compositions(n, max_depth) for t in b.tolist()]


def _water_fill(counts: Sequence[int], units: int, C: float) -> list[int]:
    # Gives `units` more uses to the smallest keys (k+1) a + c, a = ln4 / C,
    # of 0-based index k at count c: the negative log of U's decrease from
    # one more use, in units of C, so each use raises an index's key by 1.
    # The taken keys are those below a water level, ties going to the smaller
    # index. Fresh indices enter lazily: index k+1's first key exceeds k's.
    a = LN4 / C
    out = list(counts)
    if units <= 0:
        return out
    # Level lam with sum_k max(0, lam - first_k) = units: walk the first keys
    # upwards until the level shared by the m walked ones stays below the next.
    firsts = sorted(((k + 1) * a + c, k) for k, c in enumerate(out))
    firsts.append((math.inf, -1))
    walked = []
    i, total = 0, 0.0
    while True:
        nxt = firsts[i]
        if (len(out) + 1) * a < nxt[0]:
            nxt = ((len(out) + 1) * a, len(out))
        if walked and units + total <= len(walked) * nxt[0]:
            break
        if nxt[1] == len(out):
            out.append(0)
        else:
            i += 1
        walked.append(nxt)
        total += nxt[0]
    level = (units + total) / len(walked)
    # Every key at least 2 below the level is taken. The rest of the budget,
    # under one key per walked index, goes to keys just below the level. The
    # window holds two keys per walked index, so rounding in the level cannot
    # lose one, and the next unwalked key, in case rounding hid a tie with
    # the level. One sort on (key, k) picks them; ties go to the smaller index.
    short = units
    window = [nxt]
    for f, k in walked:
        inc = max(0, math.floor(level - f) - 1)
        out[k] += inc
        short -= inc
        window += ((f + inc, k), (f + inc + 1, k))
    for _, k in sorted(window)[:short]:
        if k == len(out):
            out.append(0)
        out[k] += 1
    return out


def _exhaustive_argmin(n: int, C: float, max_depth: int) -> TransmissionPattern:
    count = pattern_count(n, max_depth)
    if count > PATTERN_BUDGET:
        raise BudgetExceededError(
            f"enumeration too large: {count} patterns exceeds the {PATTERN_BUDGET} budget"
        )
    weights = 4.0 ** -np.arange(1, max_depth + 1)
    best_val = math.inf
    best: tuple[int, ...] | None = None
    for block in compositions(n, max_depth):
        # Fixed-depth evaluation: zero entries contribute their prior weight,
        # which together with the constant 4^-d/3 tail equals the trimmed form.
        vals = np.exp(-block.astype(np.float64) * C) @ weights
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best = tuple(block[i].tolist())
    assert best is not None
    return TransmissionPattern(best)


def efficient_search(
    n: int,
    C: float,
    mode: str = "greedy",
    max_depth: int | None = None,
) -> TransmissionPattern:
    """Pattern minimizing U for budget n.

    ``greedy`` gives the n uses to the n largest decreases of U, found by the
    threshold fill (water level, floor, one sort; ties toward the smaller
    index) in O(q log q) for depth q; separable convexity makes this the
    exact integer minimum, the same pattern as allocating one use at a time.
    Its depth is whatever the fill reaches, so it takes no ``max_depth``.
    ``exhaustive`` scans every composition of n into ``max_depth`` parts and
    is the independent cross-check route (refused above the pattern budget).
    """
    if n < 0:
        raise ValidationError("budget n must be >= 0")
    if C <= 0.0:
        raise ValidationError("efficient search needs C > 0")
    if mode == "greedy":
        if max_depth is not None:
            raise ValidationError("greedy mode takes no max_depth (exhaustive mode does)")
        return TransmissionPattern(tuple(_water_fill([], n, C)))
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
    """Largest q whose full staircase r q (q+1) / 2 fits in n (q >= 1)."""
    q = int(math.floor(math.sqrt(2.0 * n / r + 0.25) - 0.5))
    # Guard the float sqrt against off-by-one at exact staircase budgets.
    while r * (q + 1) * (q + 2) // 2 <= n:
        q += 1
    while q > 1 and r * q * (q + 1) // 2 > n:
        q -= 1
    return q


def aurelian(n: int, k: InfoConstants) -> TransmissionPattern:
    """Staircase policy: base allocation t_j = (q - j + 1) r, remainder by threshold fill.

    q is the largest depth whose full staircase r q (q+1) / 2 fits in n,
    i.e. q = floor(sqrt(2n/r + 1/4) - 1/2); the leftover uses go to the
    largest decreases of U on top of the staircase, placed by the same
    O(q log q) threshold fill as ``efficient_search``, which keeps the
    pattern non-increasing. This is the one-budget grid of
    ``aurelian_steps``, the only construction of the staircase.
    """
    return TransmissionPattern(next(aurelian_steps([n], k))[0])


def aurelian_steps(
    n_values: Sequence[int], k: InfoConstants
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """``aurelian(n)`` for each budget of a strictly increasing grid, stepped.

    Yields, per budget, the counts of ``aurelian(n)`` (trailing zeros
    trimmed, so their length is the pattern's q) and the 0-based indices
    whose count changed since the previous budget (every index at the
    first).

    At a fixed staircase depth q the remainder fill is nested: the fill of
    R + 1 uses is the fill of R plus the next key in (key, k) order, with
    the keys (k+1) ln4/C + c of the threshold fill and its ties to the
    smaller index. So for a run of budgets that share q, one fill of the
    run's largest remainder gives every unit the run places, and those
    units sorted on (key, k) give each budget's pattern as a prefix. The
    fill may open bit q+1. A budget that changes q starts a new run.
    """
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValidationError("n_values must be strictly increasing")
    if n_values:
        _check_staircase(n_values[0], k)
    r, a = k.r, LN4 / k.C
    counts: tuple[int, ...] = ()
    for q, run in itertools.groupby(n_values, key=lambda n: _staircase_depth(n, r)):
        run = list(run)
        floor_n = r * q * (q + 1) // 2
        base = [(q - m) * r for m in range(q)] + [0]
        last = _water_fill(base[:q], run[-1] - floor_n, k.C)
        # The fill's keys: f + e, with f = (m+1) a + base count, e uses on top.
        units = sorted(
            ((m + 1) * a + base[m] + e, m) for m, c in enumerate(last) for e in range(c - base[m])
        )
        prev, cur = counts, base[:q]
        for i, n in enumerate(run):
            step = units[run[i - 1] - floor_n if i else 0 : n - floor_n]
            for _, m in step:
                if m == len(cur):
                    cur.append(0)
                cur[m] += 1
            counts = tuple(cur)
            if i:
                changed = sorted({m for _, m in step})
            else:
                changed = [m for m, c in enumerate(counts) if m >= len(prev) or prev[m] != c]
            yield counts, changed


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
