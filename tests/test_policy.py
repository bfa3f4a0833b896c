"""Patterns, bounds, search and the staircase policy."""

import heapq
import itertools
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dyadicsearch import (
    BudgetExceededError,
    InfoConstants,
    ValidationError,
    assemble_distortion,
    assemble_log_distortion,
    aurelian,
    b_functional,
    check_efficient_properties,
    chernoff_information,
    depth_bounds,
    efficient_search,
    enumerate_patterns,
    info_constants,
    load_channel,
    log_lower_bound,
    log_upper_bound,
    lower_bound,
    make_bac,
    make_bsc,
    parse_pattern,
    pattern,
    upper_bound,
)

from dyadicsearch import policy
from dyadicsearch.policy import COMPOSITION_ROWS, _staircase_walk, compositions

from conftest import bumped, random_moderate_channel

LN4 = math.log(4.0)
CHANNEL3 = Path(__file__).resolve().parents[1] / "bench" / "channel3.json"


def tuple_compositions(n: int, depth: int):
    """Stars and bars one tuple at a time: the earlier composition generator."""
    total = n + depth - 1
    for bars in itertools.combinations(range(total), depth - 1):
        edges = (-1, *bars, total)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))

BAC_C = chernoff_information(make_bac(0.9, 0.8)).nats


def series_upper(t, C, terms=200):
    """Brute-force series oracle: no closed-form tail, just many terms."""
    return math.fsum(
        4.0 ** -(k + 1) * math.exp(-(t.t[k] if k < len(t.t) else 0) * C)
        for k in range(terms)
    )


def series_lower(t, B, terms=200):
    return 0.25 * series_upper(t, B, terms)


def heap_fill(counts, units, C):
    """One-use-at-a-time oracle: pop the index with the largest U-decrease.

    Key (k+1) ln4 + c C is the negative log of the U-decrease from giving
    index k (0-based, at count c) one more use; ties go to the smaller index.
    Fresh indices are pushed lazily, since index k+1 never beats index k at
    equal counts.
    """
    counts = list(counts)
    heap = [((k + 1) * LN4 + c * C, k) for k, c in enumerate(counts)]
    heap.append(((len(counts) + 1) * LN4, len(counts)))
    heapq.heapify(heap)
    for _ in range(units):
        key, k = heapq.heappop(heap)
        if k == len(counts):
            counts.append(0)
            heapq.heappush(heap, ((len(counts) + 1) * LN4, len(counts)))
        counts[k] += 1
        heapq.heappush(heap, (key + C, k))
    return pattern(counts).t


def staircase_oracle(n, k):
    """Aurelian pattern: the largest staircase within n, remainder by heap_fill."""
    q = 1
    while k.r * (q + 1) * (q + 2) // 2 <= n:
        q += 1
    base = [(q - j) * k.r for j in range(q)]
    return heap_fill(base, n - k.r * q * (q + 1) // 2, k.C)


def staircase_by_integer_keys(n, j):
    """Aurelian pattern at C = ln4 / j, where every key (k+1) j + c is an
    integer: the staircase, then the remainder's (key, k) pairs taken one
    integer key value at a time, smaller indices first within a value."""
    q = 1
    while j * (q + 1) * (q + 2) // 2 <= n:
        q += 1
    counts = [(q - k) * j for k in range(q)] + [0, 0]
    first = [(k + 1) * j + c for k, c in enumerate(counts)]
    left = n - j * q * (q + 1) // 2
    value = min(first)
    while left:
        for k, f in enumerate(first):
            if f <= value and left:
                counts[k] += 1
                left -= 1
        value += 1
    return pattern(counts).t


def assert_routes_agree(grid, k):
    """The walk's steps on the grid are the same whether every run walks its
    units or fills each budget on its own."""
    grid = list(grid)
    steps = list(_staircase_walk(grid, k))
    for fill in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policy, "_fill_per_budget", lambda *_, fill=fill: fill)
            assert list(_staircase_walk(grid, k)) == steps, fill


def assert_walk_matches_aurelian(grid, k, oracle=staircase_oracle):
    """``_staircase_walk`` against ``aurelian(n)`` and an independent oracle
    (the heap one unless given) at every budget of the grid: the walk's
    steps, applied to one count list, give the pattern, and its bits are
    exactly the indices whose count differs from the previous budget's,
    on either route."""
    grid = list(grid)
    assert_routes_agree(grid, k)
    prev, live = (), []
    for n, (m, q, t1, bits, counts) in zip(grid, _staircase_walk(grid, k), strict=True):
        live[q:] = []
        live += [0] * (q - len(live))
        for b, c in zip(bits, counts):
            live[b] = c
        t = tuple(live)
        assert m == n
        assert t == aurelian(n, k).t == oracle(n, k), n
        assert (q, t1) == (len(t), t[0]), n
        assert bits == [i for i, c in enumerate(t) if i >= len(prev) or prev[i] != c], n
        prev = t


def pairwise_spacing_violations(t, r_real):
    """O(q^2) oracle: pairs k1 < k2 with t_k1 - t_k2 outside (k2-k1) r_real +- 1."""
    bad = 0
    for i in range(t.q):
        for j in range(i + 1, t.q):
            gap = (j - i) * r_real
            if not (gap - 1.0 - 1e-9 <= t.t[i] - t.t[j] <= gap + 1.0 + 1e-9):
                bad += 1
    return bad


class TestPattern:
    def test_trailing_zeros_trimmed(self):
        assert pattern([6, 3, 1, 0, 0]).t == (6, 3, 1)
        assert pattern([0, 0]).t == ()

    def test_leading_zeros_kept(self):
        p = pattern([0, 2])
        assert p.t == (0, 2) and p.q == 2 and p.n == 2

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            pattern([3, -1])

    def test_parse_and_format(self):
        assert parse_pattern("6,3,1").t == (6, 3, 1)
        assert str(pattern([6, 3, 1])) == "6,3,1"
        assert parse_pattern("").t == ()
        with pytest.raises(ValidationError):
            parse_pattern("6,x")


class TestUpperBound:
    def test_empty_pattern_is_prior_sum(self):
        assert upper_bound(pattern([]), 0.7) == 1.0 / 3.0

    def test_single_bit_closed_form(self):
        C = 0.5108256237659907
        for n in (1, 4, 9):
            expected = 0.25 * math.exp(-n * C) + 1.0 / 12.0
            assert upper_bound(pattern([n]), C) == pytest.approx(expected, rel=1e-14)

    def test_against_series_oracle(self):
        t = pattern([6, 3, 1])
        assert upper_bound(t, BAC_C) == pytest.approx(series_upper(t, BAC_C), rel=1e-14)

    def test_zero_padding_invariance(self):
        assert upper_bound(pattern([6, 3, 1, 0, 0]), BAC_C) == upper_bound(pattern([6, 3, 1]), BAC_C)

    def test_monotone_in_each_count(self):
        t = pattern([4, 2])
        for k in (1, 2, 3):
            assert upper_bound(bumped(t, k), BAC_C) < upper_bound(t, BAC_C)


class TestLowerBound:
    def test_empty_pattern_is_prior_variance(self):
        assert lower_bound(pattern([]), 1.3) == 1.0 / 12.0

    def test_single_transmission_hand_value(self):
        # B = ln 9 for BSC(0.1); exp(-B) = 1/9 gives 1/144 + 1/48 = 1/36.
        assert lower_bound(pattern([1]), math.log(9.0)) == pytest.approx(1.0 / 36.0, rel=1e-12)

    def test_against_series_oracle(self):
        B = b_functional(make_bac(0.9, 0.8))
        t = pattern([6, 3, 1])
        assert lower_bound(t, B) == pytest.approx(series_lower(t, B), rel=1e-14)

    def test_below_upper_on_random_patterns(self, rng):
        for _ in range(1000):
            ch = random_moderate_channel(rng)
            C = chernoff_information(ch).nats
            B = b_functional(ch)
            t = pattern(rng.integers(0, 8, size=rng.integers(1, 6)).tolist())
            assert lower_bound(t, B) <= upper_bound(t, C) + 1e-15


def mp_series(y, c):
    """sum_k 4^-(k+1) e^(y_k) + c 4^-q at 50 digits, on the same double y_k."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        q = len(y)
        terms = [mpmath.ldexp(mpmath.exp(mpmath.mpf(v)), -2 * (k + 1)) for k, v in enumerate(y)]
        return mpmath.fsum(terms) + c * mpmath.mpf(4) ** -q


class TestSeriesKernel:
    """U, L and D are one dyadic series S(y, c); each function against a
    50-digit sum of the same double exponents."""

    @pytest.mark.parametrize("fn", [upper_bound, lower_bound, log_upper_bound, log_lower_bound])
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_rate_must_be_finite_and_non_negative(self, fn, rate):
        with pytest.raises(ValidationError):
            fn(pattern([2, 0, 1]), rate)

    @pytest.mark.parametrize("q", [0, 1, 2, 5, 30, 200, 600])
    def test_against_mpmath_sum(self, q, rng):
        mpmath = pytest.importorskip("mpmath")
        third, twelfth = mpmath.mpf(1) / 3, mpmath.mpf(1) / 12
        for draw in range(6):
            counts = rng.integers(15, 40, size=q)
            if draw % 2:  # zeros inside; the last count stays positive
                counts[:-1][rng.random(q - 1 if q else 0) < 0.2] = 0
            t = pattern(counts.tolist())
            assert t.q == q
            # At rate 50 and q = 600 with no zero S is below the double range.
            rate = 50.0 * rng.random() if draw < 4 else 50.0
            y = [-c * rate for c in t.t]
            cases = [
                (upper_bound(t, rate), log_upper_bound(t, rate), mp_series(y, third)),
                (lower_bound(t, rate), log_lower_bound(t, rate), mp_series(y, third) / 4),
                (assemble_distortion(y), assemble_log_distortion(y), mp_series(y, twelfth)),
            ]
            for value, log_value, ref in cases:
                if ref >= sys.float_info.min:
                    assert abs(value - ref) <= 1e-15 * ref
                ln_ref = float(mpmath.log(ref))
                assert abs(log_value - ln_ref) <= 1e-14 * max(1.0, abs(ln_ref))


class TestEnumerate:
    def test_figure_grid_count(self):
        assert len(enumerate_patterns(10, 3)) == 66

    def test_trivial_counts(self):
        assert [p.t for p in enumerate_patterns(0, 4)] == [()]
        assert [p.t for p in enumerate_patterns(2, 2)] == [(0, 2), (1, 1), (2,)]

    def test_lexicographic_no_duplicates(self):
        pats = [p.t for p in enumerate_patterns(6, 4)]
        padded = [t + (0,) * (4 - len(t)) for t in pats]
        assert padded == sorted(padded)
        assert len(set(pats)) == len(pats) == math.comb(9, 3)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            enumerate_patterns(100, 6)

    def test_composition_blocks_match_tuple_generator(self):
        for n, depth in [*itertools.product(range(13), range(1, 6)), (80, 4)]:
            blocks = list(compositions(n, depth))
            assert all(b.dtype == np.int64 and len(b) <= COMPOSITION_ROWS for b in blocks)
            rows = [tuple(r) for b in blocks for r in b.tolist()]
            assert rows == list(tuple_compositions(n, depth)), (n, depth)
        sizes = [len(b) for b in compositions(80, 4)]  # more rows than one block holds
        assert len(sizes) > 1 and max(sizes) <= COMPOSITION_ROWS and sum(sizes) == math.comb(83, 3)

    # At C = 1e-20 every U rounds to the same value: the first composition wins.
    @pytest.mark.parametrize("C", [1e-20, 0.05, 0.3, 0.7, LN4 / 3])
    def test_exhaustive_takes_first_minimum_over_blocks(self, C):
        rows = np.array(list(tuple_compositions(80, 4)), dtype=np.float64)
        vals = np.exp(-rows * C) @ (4.0 ** -np.arange(1, 5))
        first = tuple(int(x) for x in rows[int(np.argmin(vals))])
        assert efficient_search(80, C, mode="exhaustive", max_depth=4) == pattern(first)


class TestEfficientSearch:
    def test_single_use_goes_to_first_bit(self):
        assert efficient_search(1, 0.3).t == (1,)
        assert efficient_search(1, 1.2).t == (1,)

    def test_figure_channel_argmin(self):
        # Independent oracle: direct argmin of U over the 66 enumerated patterns.
        pats = enumerate_patterns(10, 3)
        oracle = min(pats, key=lambda p: upper_bound(p, BAC_C))
        found = efficient_search(10, BAC_C, mode="exhaustive", max_depth=3)
        assert found.t == oracle.t == (7, 3)

    def test_greedy_equals_exhaustive(self, rng):
        channels = [make_bsc(0.1), make_bsc(0.25), make_bac(0.9, 0.8)]
        channels += [random_moderate_channel(rng) for _ in range(3)]
        for ch in channels:
            C = chernoff_information(ch).nats
            for n in range(1, 16):
                g = efficient_search(n, C, mode="greedy")
                e = efficient_search(n, C, mode="exhaustive", max_depth=6)
                assert g.t == e.t, (ch, n)

    def test_chunked_enumeration_spans_blocks(self):
        # 1.2M compositions cross many evaluation chunks; the streamed argmin
        # must still match the greedy optimum.
        C = chernoff_information(make_bsc(0.1)).nats
        e = efficient_search(40, C, mode="exhaustive", max_depth=6)
        assert e.t == efficient_search(40, C, mode="greedy").t

    def test_threshold_fill_matches_heap_oracle(self):
        gen = np.random.default_rng(2024)
        for case in range(400):
            C = float(gen.uniform(0.01, 1.3))
            n = int(gen.integers(0, 200_001 if case % 20 == 0 else 3_000))
            got = efficient_search(n, C, mode="greedy")
            assert got.t == heap_fill([], n, C), (C, n)

    def test_exact_ties_go_to_the_smaller_index(self):
        # With C = ln4 / j the keys (k+1) j + c are integers, so U ties
        # exactly; the n smallest (key, k) pairs, enumerated with integers,
        # fix the pattern.
        for j in (1, 2, 3, 4, 8):
            for n in range(120):
                keys = sorted(((k + 1) * j + c, k) for k in range(n) for c in range(n))
                expected = [0] * n
                for _, k in keys[:n]:
                    expected[k] += 1
                got = efficient_search(n, LN4 / j)
                assert got.t == pattern(expected).t, (j, n)

    def test_single_move_optimal_at_one_million(self):
        # Moving one use from bit i to bit j lowers U exactly when
        # (j+1) ln4 + t_j C < (i+1) ln4 + (t_i - 1) C; compared in log space
        # because U itself underflows at this budget.
        for C in (BAC_C, 0.05, 1.1):
            t = efficient_search(10**6, C).t
            assert sum(t) == 10**6
            gain = min((k + 1) * LN4 + c * C for k, c in enumerate(t + (0,)))
            loss = max((k + 1) * LN4 + (c - 1) * C for k, c in enumerate(t) if c > 0)
            assert loss <= gain + 1e-9 * gain, C

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0])
    def test_c_must_be_finite_and_positive(self, C):
        k = InfoConstants(C=C, B=1.0, r=2, r_real=2.0, A1=0.0, A2=0.0)
        calls = [
            lambda: efficient_search(10, C),
            lambda: efficient_search(10, C, mode="exhaustive", max_depth=3),
            lambda: aurelian(10, k),
            lambda: list(_staircase_walk([10, 20], k)),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="finite and > 0"):
                call()

    def test_pattern_deeper_than_budget_refused(self):
        # n = 1e15 reaches about 2.7e7 bits greedily and q = 3.2e7 on the staircase.
        k = info_constants(make_bsc(0.1))
        with pytest.raises(BudgetExceededError, match="bits in the pattern"):
            efficient_search(10**15, k.C)
        for grid in ([10**15], [10, 10**15]):
            with pytest.raises(BudgetExceededError, match="bits in the pattern"):
                list(_staircase_walk(grid, k))

    def test_exhaustive_requires_depth(self):
        with pytest.raises(ValidationError):
            efficient_search(5, 0.3, mode="exhaustive")

    def test_greedy_refuses_depth(self):
        with pytest.raises(ValidationError):
            efficient_search(5, 0.3, mode="greedy", max_depth=3)

    def test_budget_refusal_propagates(self):
        with pytest.raises(BudgetExceededError):
            efficient_search(100, 0.3, mode="exhaustive", max_depth=6)


class TestAurelian:
    def test_unit_staircase(self):
        # BSC(0.05) has C ~ 0.830, so r = 1: n = 10 fills the exact staircase.
        k = info_constants(make_bsc(0.05))
        assert k.r == 1
        assert aurelian(10, k).t == (4, 3, 2, 1)

    def test_remainder_matches_independent_greedy_trace(self):
        # r = 4 at BSC(0.15): base (4), remainder 6 spread one use at a time.
        k = info_constants(make_bsc(0.15))
        assert k.r == 4
        got = aurelian(10, k)

        counts = [4]
        for _ in range(6):
            best_k, best_gain = None, -1.0
            for idx in range(len(counts) + 1):
                c = counts[idx] if idx < len(counts) else 0
                gain = 4.0 ** -(idx + 1) * math.exp(-c * k.C) * (1.0 - math.exp(-k.C))
                if gain > best_gain:
                    best_k, best_gain = idx, gain
            if best_k == len(counts):
                counts.append(0)
            counts[best_k] += 1
        assert got.t == tuple(counts)
        assert got.n == 10

    def test_budget_and_sum_contract(self, rng):
        for _ in range(1000):
            ch = random_moderate_channel(rng)
            k = info_constants(ch)
            n = int(rng.integers(k.r, 400))
            t = aurelian(n, k)
            assert t.n == n
            assert all(a >= b for a, b in zip(t.t, t.t[1:]))  # non-increasing
            assert depth_bounds(t, k.r).q_bound

    @pytest.mark.parametrize(
        "ch",
        [make_bac(0.9, 0.8), make_bsc(0.05), make_bsc(0.1), make_bsc(0.15), make_bsc(0.25)],
        ids=["bac-0.9-0.8", "bsc-0.05", "bsc-0.1", "bsc-0.15", "bsc-0.25"],
    )
    def test_staircase_matches_heap_oracle_every_budget(self, ch):
        k = info_constants(ch)
        for n in range(k.r, 5001):
            assert aurelian(n, k).t == staircase_oracle(n, k), n

    @pytest.mark.parametrize(
        "ch",
        [make_bac(0.9, 0.8), make_bsc(0.05), make_bsc(0.1), make_bsc(0.15), make_bsc(0.25)],
        ids=["bac-0.9-0.8", "bsc-0.05", "bsc-0.1", "bsc-0.15", "bsc-0.25"],
    )
    def test_steps_match_aurelian_every_budget(self, ch):
        k = info_constants(ch)
        assert_walk_matches_aurelian(range(k.r, 5001), k)
        for step in (7, 10, 333):
            assert_walk_matches_aurelian(range(k.r, 5001, step), k)

    def test_steps_at_exact_ties(self):
        # C = ln4 / j makes the fill keys (k+1) j + c integers, so they tie
        # exactly and the smaller index must go first, as in the fill.
        # The heap oracle's float keys need not tie exactly; the integer keys do.
        def oracle(n, k):
            return staircase_by_integer_keys(n, k.r)

        for j in (1, 2, 3, 4, 8):
            k = InfoConstants(C=LN4 / j, B=1.0, r=j, r_real=float(j), A1=0.0, A2=0.0)
            assert_walk_matches_aurelian(range(j, 2001), k, oracle)
            assert_walk_matches_aurelian(range(j, 2001, 7), k, oracle)

    def test_exact_ties_match_integer_keys(self):
        # Every first key of the staircase ties (a = r = j), so the remainder
        # is placed by the tie rule alone.
        for j in (1, 2, 3, 4, 8):
            k = InfoConstants(C=LN4 / j, B=1.0, r=j, r_real=float(j), A1=0.0, A2=0.0)
            for n in range(j, 2001):
                assert aurelian(n, k).t == staircase_by_integer_keys(n, j), (j, n)

    def test_steps_on_random_channels_and_grids(self, rng):
        for _ in range(100):
            k = info_constants(random_moderate_channel(rng))
            grid = k.r + np.cumsum(rng.integers(0, 40, size=60) * rng.integers(0, 2, size=60) + 1)
            assert_walk_matches_aurelian(grid.tolist(), k)

    @pytest.mark.parametrize("name", ["bsc:0.1", "bac:0.9,0.8", str(CHANNEL3)],
                             ids=["bsc-0.1", "bac-0.9-0.8", "channel3"])
    def test_walk_at_depth_edges(self, name):
        # The depth q changes at n = r q (q+1) / 2, where the walk closes one
        # run and starts the next: the budget before it, it and the one after,
        # for q up to 40, then non-unit steps from a start inside depth 5's run.
        k = info_constants(load_channel(name))
        floors = [k.r * q * (q + 1) // 2 for q in range(1, 42)]
        edges = sorted({f + d for f in floors[:40] for d in (-1, 0, 1) if f + d >= k.r})
        assert_walk_matches_aurelian(edges, k)
        for start, step in ((floors[4] + 2, 3), (floors[4] + 5, 11), (floors[4] + 1, k.r * 6 + 1)):
            assert_walk_matches_aurelian(range(start, floors[40] + 2, step), k)

    @pytest.mark.parametrize("eps", [0.499, 0.4999])
    def test_long_remainders_fill_each_budget(self, eps):
        # Two budgets at depth 1 with a remainder of r = 693 145 or
        # 69 314 717 uses: walking those units took 10.3 s and 2.4 GB at
        # bsc:0.4999; a fill per budget is O(q).
        k = info_constants(make_bsc(eps))
        tracemalloc.start()
        start = time.perf_counter()
        steps = list(_staircase_walk([k.r, 2 * k.r], k))
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert seconds < 0.5 and peak < 100e6, (seconds, peak)
        assert [s[3:] for s in steps] == [([0], [k.r]), ([0, 1], list(aurelian(2 * k.r, k).t))]

    def test_steps_refuse_bad_grids(self):
        k = info_constants(make_bsc(0.25))
        for grid in ([20, 20], [30, 20], [k.r - 1, 20]):
            with pytest.raises(ValidationError):
                list(_staircase_walk(grid, k))

    def test_too_small_budget_rejected(self):
        k = info_constants(make_bsc(0.25))
        assert k.r == 9
        with pytest.raises(ValidationError):
            aurelian(k.r - 1, k)

    def test_base_allocation_within_budget(self, rng):
        for _ in range(50):
            ch = random_moderate_channel(rng)
            k = info_constants(ch)
            n = int(rng.integers(k.r, 5000))
            t = aurelian(n, k)
            q = t.q
            # The last staircase level is r unless the remainder extended depth.
            assert t.t[q - 1] >= 1


class TestStructuralChecks:
    def test_spacing_hand_example(self):
        rep = check_efficient_properties(pattern([5, 3, 2]), 2.0)
        assert rep.no_gap and rep.spacing and rep.ok

    def test_gap_detected(self):
        rep = check_efficient_properties(pattern([5, 0, 5]), 2.0)
        assert not rep.no_gap
        assert rep.violations

    @pytest.mark.parametrize(
        "counts, passes",
        [((5, 2), True), ((6, 2), False), ((3, 2), True), ((2, 2), False),
         ((7, 5, 3, 1), True), ((8, 5, 3, 1), True), ((9, 5, 3, 1), False),
         ((7, 5, 3, 0, 1), False), ((1,), True)],
    )
    def test_spacing_on_the_plus_minus_one_edges(self, counts, passes):
        t = pattern(counts)
        rep = check_efficient_properties(t, 2.0)
        assert rep.spacing is passes
        assert rep.violating_pairs == pairwise_spacing_violations(t, 2.0)

    def test_spacing_matches_pairwise_oracle(self, rng):
        for case in range(2000):
            r_real = 2.0 if case % 4 == 0 else float(rng.uniform(0.5, 8.0))
            q = int(rng.integers(1, 40))
            stair = (q - np.arange(q)) * r_real
            t = pattern(np.maximum(0, np.round(stair + rng.integers(-2, 3, size=q))).astype(int))
            rep = check_efficient_properties(t, r_real)
            bad = pairwise_spacing_violations(t, r_real)
            assert rep.violating_pairs == bad, (t.t, r_real)
            assert rep.spacing is (bad == 0)
            assert len([v for v in rep.violations if v.startswith("spacing")]) == (bad > 0)

    def test_staircase_at_one_million_reports_one_spacing_line(self):
        k = info_constants(make_bac(0.9, 0.8))
        t = aurelian(10**6, k)
        rep = check_efficient_properties(t, k.r_real)
        assert not rep.spacing
        assert len(rep.violations) <= 2
        assert rep.violating_pairs == pairwise_spacing_violations(t, k.r_real)

    def test_minimizers_pass_checks(self, rng):
        for _ in range(10):
            ch = random_moderate_channel(rng)
            C = chernoff_information(ch).nats
            for n in (4, 9, 15):
                t = efficient_search(n, C, mode="exhaustive", max_depth=6)
                assert check_efficient_properties(t, LN4 / C).ok
                assert depth_bounds(t, math.floor(LN4 / C)).ok

    def test_depth_bounds_hand_examples(self):
        rep = depth_bounds(pattern([4, 3, 2, 1]), 1)
        assert rep.t1_bound and rep.q_bound  # 4 <= 4*2, 4 <= sqrt(20.5) - 0.25
        rep = depth_bounds(pattern([10]), 3)
        assert rep.q_bound
