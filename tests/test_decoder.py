"""Posterior recursion, MMSE reconstruction, and the exact distortion oracle."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicsearch import (
    BudgetExceededError,
    ChannelSpec,
    PosteriorState,
    SimConfig,
    ValidationError,
    b_functional,
    chernoff_information,
    conditional_distortion,
    exact_distortion,
    log_bit_variances,
    lower_bound,
    make_bac,
    make_bsc,
    mmse_estimate,
    pattern,
    posterior_update,
    trial_values,
    uniform_prior,
    upper_bound,
)
from dyadicsearch import decoder, efficient_search, info_constants, load_channel
from dyadicsearch.channel import chernoff_tilt
from dyadicsearch.decoder import _bit_offset, _sigmoid, exact_bit_variance
from dyadicsearch.policy import composition_rows, composition_sizes, compositions
from dyadicsearch.sim import _block_rng, _draw_llr, _first_link_table

from conftest import Z_CHANNEL, bench_reference, bit_variance, bumped, draw_block, random_channel


def sequence_bit_variance(t: int, ch: ChannelSpec) -> float:
    """Independent oracle: enumerate all m^t output sequences (no histograms)."""
    if t == 0:
        return 0.25
    total = 0.0
    for seq in itertools.product(range(len(ch.outputs)), repeat=t):
        p0 = math.prod(ch.f0[i] for i in seq)
        p1 = math.prod(ch.f1[i] for i in seq)
        if p0 + p1 == 0.0:
            continue
        post = p1 / (p0 + p1)
        total += 0.5 * (p0 + p1) * post * (1.0 - post)
    return total


def recursive_histograms(t: int, m: int) -> np.ndarray:
    """All m-part compositions of t by recursion, in lexicographic order."""
    rows: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int, parts: int) -> None:
        if parts == 1:
            rows.append((*prefix, left))
            return
        for first in range(left + 1):
            rec(prefix + [first], left - first, parts - 1)

    rec([], t, m)
    return np.asarray(rows, dtype=np.int64)


def safe_log(masses: tuple[float, ...]) -> np.ndarray:
    """ln of each mass, -1e30 standing in for ln 0."""
    return np.array([math.log(p) if p > 0.0 else -1e30 for p in masses])


def window_law(ch: ChannelSpec):
    """The oracle's window law of the merged ``ch``."""
    return decoder._window_law(decoder._merge_tied_outputs(ch))


def window_rows(counts, ch: ChannelSpec, rho=None) -> list[int]:
    """Rows of each count's window on the merged channel, counted from its
    prefixes as the gate counts them, whatever the budgets; ``rho``
    defaults to the first pass's."""
    law, ts = window_law(ch), np.array(counts, dtype=np.int64)
    rho = decoder._rho(ts, law.parts) if rho is None else rho
    return composition_sizes(ts, law.parts, *decoder._window(ts, law, rho)).tolist()


# Near pure noise: the window is the box, sqrt(2 t rho) values a side.
NEAR_NOISE_3 = ChannelSpec(outputs=(0, 1, 2), f0=(0.33, 0.33, 0.34), f1=(0.3301, 0.3299, 0.34))


def brute_window(t: int, ch: ChannelSpec) -> list[tuple[int, ...]]:
    """The window's rows by its definition, over every composition of t
    into ch's outputs (no tie among them, all charged): outputs 1..m-1 are
    the free parts, each within w of t f_s*(i), w^2 = t rho / 2, and
    |L_h| <= rho / kappa, rho = 40 + ln(t)/2 + ln(2m - 1)."""
    tilt, m = chernoff_tilt(ch), len(ch.outputs)
    rho = 40.0 + 0.5 * math.log(t) + math.log(2 * m - 1)
    w = math.sqrt(t * rho / 2.0)
    lam = np.log(ch.f1) - np.log(ch.f0)
    return [
        tuple(h)
        for h in recursive_histograms(t, m).tolist()
        if all(abs(h[i] - t * tilt.f[i]) <= w for i in range(1, m))
        and abs(float(np.dot(h, lam))) <= rho / tilt.kappa
    ]


def lgamma_table(t: int) -> np.ndarray:
    """ln i! for i = 0..t, by math.lgamma."""
    return np.fromiter(map(math.lgamma, np.arange(1.0, t + 2.0)), float, count=t + 1)


def full_row_log_v(t: int, ch: ChannelSpec, lg: np.ndarray) -> float:
    """ln V(t) of a binary bit over every row (t - j, j), j = 0..t, from the
    ln i! table ``lg``: segments of 1e6 rows, each reduced by the oracle's
    row kernel, combined by logsumexp."""
    log_f = (safe_log(ch.f0), safe_log(ch.f1))
    segments = []
    for lo in range(0, t + 1, 10**6):
        j = np.arange(lo, min(lo + 10**6, t + 1))
        H = np.column_stack((t - j, j)).astype(np.float64)
        log_mult = lg[t] - (lg[t - j] + lg[j])
        segments.append(decoder._segment_log_sums(H, log_mult, np.array([j.size]), log_f)[0])
    return float(np.logaddexp.reduce(segments))


def stable_pq(s: np.ndarray) -> np.ndarray:
    """p (1 - p) for p = sigmoid(s), as e^-|s| / (1 + e^-|s|)^2."""
    e = np.exp(-np.abs(s))
    return e / (1.0 + e) ** 2


def linear_bit_variance(t: int, ch: ChannelSpec, lg: np.ndarray) -> float:
    """The linear-domain kernel the log-domain one replaced: over every
    histogram (rows (t - j, j) for two symbols, else the recursive
    enumeration), the weight (P(h|0) + P(h|1))/2 from the exp of both
    log-likelihoods times p(1 - p). ``lg`` holds ln i!."""
    if t == 0:
        return 0.25
    if len(ch.outputs) == 2:
        j = np.arange(t + 1)
        H = np.stack([t - j, j], axis=1)
    else:
        H = recursive_histograms(t, len(ch.outputs))
    log_mult = lg[t] - lg[H].sum(axis=1)
    lp0 = log_mult + H @ safe_log(ch.f0)
    lp1 = log_mult + H @ safe_log(ch.f1)
    weight = 0.5 * np.exp(lp0) + 0.5 * np.exp(lp1)
    return float(np.sum(weight * stable_pq(lp1 - lp0)))


def close_to_linear(value: float, linear: float) -> bool:
    """Within 1e-13 relative of the linear kernel; below the normal range,
    where the linear value has lost relative precision, within 1e-13 of the
    smallest normal double."""
    return abs(value - linear) <= 1e-13 * max(linear, sys.float_info.min)


@pytest.fixture
def cold_table(monkeypatch):
    """An empty-cache oracle whose shared ln i! table holds only ln 0!."""
    monkeypatch.setattr(decoder, "_LOG_FACTORIALS", np.zeros(1))
    exact_bit_variance.cache_clear()
    yield
    exact_bit_variance.cache_clear()


class TestPosteriorUpdate:
    def test_uninformative_symbol(self):
        ch = ChannelSpec(outputs=(0, 1), f0=(0.5, 0.5), f1=(0.5, 0.5))
        assert posterior_update(0.5, 0, ch) == 0.5

    def test_direct_formula(self):
        ch = make_bac(0.9, 0.8)
        assert posterior_update(0.5, 1, ch) == pytest.approx(0.8 / 0.9, rel=1e-15)

    def test_fixed_points(self):
        ch = make_bac(0.9, 0.8)
        for y in (0, 1):
            assert posterior_update(1.0, y, ch) == 1.0
            assert posterior_update(0.0, y, ch) == 0.0

    def test_impossible_observation(self):
        ch = ChannelSpec(outputs=(0, 1), f0=(1.0, 0.0), f1=(0.0, 1.0))
        with pytest.raises(ValidationError):
            posterior_update(1.0, 0, ch)  # bit surely 1 but saw the bit-0 symbol

    def test_martingale_identity(self, rng):
        # E_y[p'] over y ~ p f1 + (1-p) f0 returns p, by exact summation.
        for _ in range(100):
            ch = random_channel(rng, alphabet=int(rng.integers(2, 5)))
            p = float(rng.random())
            mean = math.fsum(
                (p * ch.f1[i] + (1.0 - p) * ch.f0[i]) * posterior_update(p, y, ch)
                for i, y in enumerate(ch.outputs)
                if p * ch.f1[i] + (1.0 - p) * ch.f0[i] > 0.0
            )
            assert mean == pytest.approx(p, abs=1e-12)

    def test_variance_contraction_pointwise(self, rng):
        # p'(1-p') >= p(1-p) exp(-|log-ratio|) for every symbol and posterior.
        for _ in range(20):
            ch = random_channel(rng, alphabet=3, min_mass=0.01)
            for p in np.linspace(0.001, 0.999, 25):
                for i, y in enumerate(ch.outputs):
                    p2 = posterior_update(float(p), y, ch)
                    floor = p * (1 - p) * math.exp(-abs(ch.log_ratio(y)))
                    assert p2 * (1 - p2) >= floor * (1.0 - 1e-12)

    def test_tiny_posterior_survives(self):
        # Log-odds branch: no underflow of p (1 - p) for near-certain states.
        ch = make_bsc(0.1)
        p = 1e-14
        p2 = posterior_update(p, 1, ch)
        assert 0.0 < p2 < 1e-12


class TestMmseEstimate:
    def test_all_prior_is_half(self):
        assert mmse_estimate(PosteriorState((0.5, 0.5, 0.5))) == 0.5

    def test_hand_sum(self):
        # (1, 0, 1) with the prior tail 2^-4: 1/2 + 1/8 + 1/16 = 0.6875.
        assert mmse_estimate(PosteriorState((1.0, 0.0, 1.0))) == 0.6875

    def test_all_ones_saturates(self):
        state = PosteriorState(tuple([1.0] * 52))
        assert mmse_estimate(state) == pytest.approx(1.0, abs=1e-15)

    def test_probability_range_checked(self):
        with pytest.raises(ValidationError):
            PosteriorState((0.5, 1.2))


class TestConditionalDistortion:
    def test_all_prior_is_exactly_one_twelfth(self):
        assert conditional_distortion(PosteriorState(())) == 1.0 / 12.0
        assert conditional_distortion(PosteriorState((0.5, 0.5, 0.5))) == 1.0 / 12.0

    def test_sharp_posteriors_leave_tail(self):
        # All tracked bits certain: only the prior tail 4^-3 / 12 remains.
        got = conditional_distortion(PosteriorState((1.0, 0.0, 1.0)))
        assert got == pytest.approx(1.0 / 768.0, rel=1e-12)

    def test_bounded_by_prior_variance(self, rng):
        for _ in range(100):
            state = PosteriorState(tuple(rng.random(5)))
            assert 0.0 <= conditional_distortion(state) <= 1.0 / 12.0 + 1e-15


class TestExactBitVariance:
    def test_prior_case(self):
        assert bit_variance(0, make_bsc(0.1)) == 0.25

    def test_single_use_bsc(self):
        # One BSC use leaves posterior eps or 1-eps: variance eps (1 - eps).
        assert bit_variance(1, make_bsc(0.1)) == pytest.approx(0.09, rel=1e-14)

    def test_one_bit_sandwich(self):
        ch = make_bsc(0.1)
        C = chernoff_information(ch).nats
        B = b_functional(ch)
        v = bit_variance(1, ch)
        assert 0.25 * math.exp(-B) <= v <= math.exp(-C)
        assert 0.25 * math.exp(-B) == pytest.approx(0.25 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    def test_matches_sequence_oracle_binary(self, t):
        ch = make_bac(0.9, 0.8)
        assert bit_variance(t, ch) == pytest.approx(sequence_bit_variance(t, ch), rel=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 4, 6])
    def test_matches_sequence_oracle_ternary(self, t, rng):
        ch = random_channel(rng, alphabet=3)
        assert bit_variance(t, ch) == pytest.approx(sequence_bit_variance(t, ch), rel=1e-12)

    def test_budget_refusal(self):
        # At 1e5 uses this ternary bit's window holds 6.5e6 rows.
        ch = random_channel(np.random.default_rng(1), alphabet=3)
        with pytest.raises(BudgetExceededError):
            bit_variance(10**5, ch)

    def test_budget_refusal_grows_no_table(self, cold_table):
        ch = random_channel(np.random.default_rng(1), alphabet=3)
        with pytest.raises(BudgetExceededError):
            bit_variance(10**5, ch)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_pattern_total_refused_before_any_bit(self, cold_table):
        # 300 distinct counts from 1e4 on a near-pure-noise ternary channel,
        # whose windows are boxes of sqrt(2 t rho), about 970, values a
        # side: each bit's window is under the per-bit budget, together they
        # pass the pattern's, and nothing is enumerated.
        counts = list(range(10_300, 10_000, -1))
        rows = window_rows(counts, NEAR_NOISE_3)
        assert max(rows) <= decoder.HISTOGRAM_BUDGET < math.comb(10_002, 2)
        assert sum(rows) > decoder.PATTERN_HISTOGRAM_BUDGET
        with pytest.raises(BudgetExceededError, match="budget of one pattern"):
            exact_distortion(pattern(counts), NEAR_NOISE_3)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_window_total_refused_before_any_bit(self, cold_table):
        # 1000 distinct counts near 1e9 on a near-pure-noise channel, whose
        # slab is wider than its box of about 3.2e5 rows: each bit's window
        # is under the per-bit budget, and the windows together pass the
        # pattern's.
        ch = make_bsc(0.49999)
        t = pattern(list(range(10**9 + 1000, 10**9, -1)))
        rows = window_rows(t.t, ch)
        assert max(rows) <= decoder.HISTOGRAM_BUDGET
        assert sum(rows) > decoder.PATTERN_HISTOGRAM_BUDGET
        with pytest.raises(BudgetExceededError):
            exact_distortion(t, ch)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_budget_totals_count_window_rows(self, cold_table):
        # The gate counts a bit's full rows C(t + m' - 1, m' - 1) until
        # they pass a budget, then each bit's window: the 1000 counts near
        # 1e9 above pass on bac:0.9,0.8 (at most 64 rows a bit). The Z
        # channel's one-sided output leaves one row a bit, and a ternary
        # bit's window is the compositions in its box and slab, counted here
        # over every composition. On each budget monkeypatched to the
        # counts' largest or summed rows they pass, one row fewer refuses
        # them, and no ln i! is computed before a refusal.
        near_1e9 = list(range(10**9 + 1000, 10**9, -1))
        ternary = random_channel(np.random.default_rng(3), alphabet=3)
        cases = [
            (make_bac(0.9, 0.8), near_1e9, None),
            (Z_CHANNEL, [300, 1000], [1, 1]),
            (ternary, [40, 90], [len(brute_window(t, ternary)) for t in (40, 90)]),
        ]
        assert cases[2][2] < [math.comb(42, 2), math.comb(92, 2)]
        for ch, counts, expected in cases:
            rows = window_rows(counts, ch)
            assert rows == expected if expected else max(rows) <= 64
            decoder._check_histogram_total(counts, ch)
            for budget, limit, what in [
                ("HISTOGRAM_BUDGET", max(rows), "one bit"),
                ("PATTERN_HISTOGRAM_BUDGET", sum(rows), "one pattern"),
            ]:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(decoder, budget, limit)
                    decoder._check_histogram_total(counts, ch)
                    mp.setattr(decoder, budget, limit - 1)
                    with pytest.raises(BudgetExceededError, match=f"{limit}.* budget of {what}"):
                        log_bit_variances(counts, ch)
                assert decoder._LOG_FACTORIALS.size == 1
        for ch, counts, _ in cases:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(decoder, "HISTOGRAM_BUDGET", max(window_rows(counts, ch)))
                assert all(math.isfinite(v) for v in log_bit_variances(counts, ch))

    def test_windowed_bits_over_full_row_budget(self):
        # Three bits of 1e7 uses hold 1e7 + 1 rows each, above the per-bit
        # budget, but their certified windows sum 135 rows. The value equals
        # the log sum over every row from a ln i! table of its own: the
        # oracle's entries past its table come from its lgamma path.
        ch, t = make_bsc(0.1), 10**7
        assert t + 1 > decoder.HISTOGRAM_BUDGET and t // 2 > decoder.LOG_FACTORIAL_TABLE
        d = exact_distortion(pattern([t] * 3), ch)
        (log_v,) = log_bit_variances([t], ch)
        full = full_row_log_v(t, ch, lgamma_table(t))
        assert log_v == pytest.approx(full, rel=1e-13)
        assert d == pytest.approx(decoder.assemble_distortion([full] * 3), rel=1e-13)

    def test_near_pure_noise_bit_past_full_row_budget(self):
        # bsc:0.4999 at 2e6 uses: 2e6 + 1 rows, twice the per-bit budget,
        # where the box of about 1.4e4 rows is the window.
        ch, t = make_bsc(0.4999), 2 * 10**6
        (rows,) = window_rows([t], ch)
        assert rows < decoder.HISTOGRAM_BUDGET < t + 1
        exact_bit_variance.cache_clear()
        (log_v,) = log_bit_variances([t], ch)
        assert log_v == pytest.approx(full_row_log_v(t, ch, lgamma_table(t)), rel=1e-13)

    def test_uncertified_window_over_full_row_budget_refused(self, monkeypatch):
        # A window that misses its certificate is summed again, wider, and
        # that pass is gated like any other: with rho lowered by 30 nats the
        # first window of 2e6 uses on bac:0.9,0.8 misses, and under a
        # per-bit budget of its rows the wider one is refused.
        ch, counts = make_bac(0.9, 0.8), [2 * 10**6]
        monkeypatch.setattr(decoder, "_RHO_BASE", decoder._RHO_BASE - 30.0)
        monkeypatch.setattr(decoder, "HISTOGRAM_BUDGET", max(window_rows(counts, ch)))
        exact_bit_variance.cache_clear()
        with pytest.raises(BudgetExceededError, match="budget of one bit"):
            log_bit_variances(counts, ch)
        assert exact_bit_variance.cache_info().currsize == 0
        exact_bit_variance.cache_clear()

    def test_many_outputs_at_small_t_sum_every_row(self):
        # An 8-symbol bit at t = 10 holds C(17, 7) = 19 448 rows, within the
        # per-bit budget, and its box spans [0, t] on every part: the
        # 11^6 = 1.8e6 products of the outer parts' widths overcount its
        # C(16, 6) = 8008 prefixes, which bound it. Its window is every row
        # and its value their sum, from the recursive enumerator and
        # math.lgamma.
        ch, t = random_channel(np.random.default_rng(8), alphabet=8), 10
        H = recursive_histograms(t, 8)
        assert window_rows([t], ch) == [len(H)] == [math.comb(t + 7, 7)]
        log_mult = math.lgamma(t + 1.0) - np.vectorize(math.lgamma)(H + 1.0).sum(axis=1)
        lp0, lp1 = (log_mult + H @ np.log(f) for f in (ch.f0, ch.f1))
        terms = math.log(0.5) + lp0 + lp1 - np.logaddexp(lp0, lp1)
        exact_bit_variance.cache_clear()
        (log_v,) = log_bit_variances([t], ch)
        assert log_v == pytest.approx(float(np.logaddexp.reduce(terms)), rel=1e-13)

    def test_pattern_total_admits_greedy_at_1e8(self):
        # The greedy pattern at n = 1e8 needs about 1.0001e8 rows and stays
        # exact; the check alone is run here, not the enumeration.
        ch = make_bac(0.9, 0.8)
        t = efficient_search(10**8, info_constants(ch).C).t
        assert sum(tk + 1 for tk in set(t)) > 10**8
        decoder._check_histogram_total(t, ch)

    def test_decreasing_in_uses(self):
        ch = make_bac(0.9, 0.8)
        values = [bit_variance(t, ch) for t in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBudgetGate:
    """``_check_histogram_total``, the oracle's one budget gate: window rows
    counted from their prefixes (the full rows where those pass both
    budgets), refused before any row is summed."""

    def test_counts_may_be_an_iterator(self):
        ch = make_bac(0.9, 0.8)
        exact_bit_variance.cache_clear()
        listed = log_bit_variances([3, 5], ch)
        assert len(listed) == 2
        for counts in (iter([3, 5]), (t for t in (3, 5))):
            exact_bit_variance.cache_clear()
            assert log_bit_variances(counts, ch) == listed
        exact_bit_variance.cache_clear()

    def test_negative_count_refused(self):
        for ch in (make_bac(0.9, 0.8), random_channel(np.random.default_rng(3), alphabet=3)):
            with pytest.raises(ValidationError, match="must be >= 0"):
                log_bit_variances([4, -5], ch)

    def test_count_past_the_uses_cap_refused(self):
        # Past 2^53 a count overflowed np.fromiter (2^64, 2^70) or reached
        # composition_counts beyond its exact range (2^60).
        ch = make_bac(0.9, 0.8)
        for counts in ([2**70], [3, 2**60], [2**53 + 1]):
            with pytest.raises(BudgetExceededError, match="too many uses"):
                log_bit_variances(counts, ch)
        with pytest.raises(BudgetExceededError, match="too many uses"):
            exact_distortion(pattern([2**64]), ch)
        assert math.isfinite(log_bit_variances([2**53], ch)[0])


class TestSharedTableKernel:
    """The log-domain kernel over the shared ln i! table and the batched
    composition rows against the linear-domain kernel it replaced."""

    _rng = np.random.default_rng(20261018)

    @pytest.mark.parametrize(
        "ch, t_max",
        [
            (make_bsc(0.05), 5000),
            (make_bac(0.9, 0.8), 5000),
            (random_channel(_rng, alphabet=3), 60),
            (random_channel(_rng, alphabet=4), 60),
            (make_bsc(0.25), 5000),
        ],
        ids=["bsc-0.05", "bac-0.9-0.8", "random-3", "random-4", "bsc-0.25"],
    )
    def test_bitwise_equal_to_per_call_kernel(self, ch, t_max, cold_table):
        # Relative 1e-13, no longer bitwise: ln V near -700 alone carries a
        # rounding of 5.7e-14 relative in V. One batched call gives every t.
        lg = np.array([math.lgamma(i + 1.0) for i in range(t_max + 1)])
        log_v = log_bit_variances(range(t_max + 1), ch)
        for t in range(t_max + 1):
            linear = linear_bit_variance(t, ch, lg)
            assert close_to_linear(bit_variance(t, ch), linear), t
            assert bit_variance(t, ch) == math.exp(log_v[t]), t

    @pytest.mark.parametrize("ch", [make_bac(0.9, 0.8), make_bsc(0.05)], ids=["bac", "bsc"])
    def test_call_order_independent(self, ch, monkeypatch, cold_table):
        ascending = [bit_variance(t, ch) for t in [*range(41), 3000]]
        monkeypatch.setattr(decoder, "_LOG_FACTORIALS", np.zeros(1))
        exact_bit_variance.cache_clear()
        big_first = bit_variance(3000, ch)
        assert [bit_variance(t, ch) for t in range(41)] + [big_first] == ascending

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_histograms_match_recursive_enumerator(self, m):
        for t in range(26):
            H = np.concatenate(list(compositions(t, m)))
            assert H.dtype == np.int64
            assert H.shape == (math.comb(t + m - 1, m - 1), m)
            assert np.array_equal(H, recursive_histograms(t, m))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_batched_rows_match_recursive_enumerator(self, m):
        # Several totals in one call: zeros, mixed sizes and one total with
        # more rows than a chunk, each block in input order.
        big = next(t for t in itertools.count() if math.comb(t + m - 1, m - 1) > decoder.CHUNK_ROWS)
        totals = [0, 3, 0, 1, big, 7, 2, 12]
        H, sizes = composition_rows(np.array(totals), m)
        assert H.dtype == np.int64 and sizes.tolist() == [math.comb(t + m - 1, m - 1) for t in totals]
        assert np.array_equal(H, np.concatenate([recursive_histograms(t, m) for t in totals]))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bounded_rows_match_filtered_enumerator(self, m):
        # A box on the free parts and a slab |sum_i c_i h_i| <= half keep
        # the rows of the recursive enumeration that satisfy both, in its
        # order; a zero slope difference of the last two parts included.
        rng = np.random.default_rng(m)
        for trial in range(40):
            totals = rng.integers(0, 12, size=3)
            lower = rng.integers(-2, 8, size=(3, m - 1))
            upper = lower + rng.integers(-1, 8, size=(3, m - 1))
            coef, half = rng.normal(size=m), rng.uniform(0.0, 5.0, size=3)
            if trial % 5 == 0:
                coef[-2] = coef[-1]
            H, built = composition_rows(totals, m, (lower, upper), (coef, half))
            kept = [
                [h for h in recursive_histograms(t, m).tolist()
                 if all(lower[i, j] <= h[j] <= upper[i, j] for j in range(m - 1))
                 and abs(float(np.dot(h, coef))) <= half[i]]
                for i, t in enumerate(totals.tolist())
            ]
            expected = np.array([h for rows in kept for h in rows], dtype=np.int64).reshape(-1, m)
            assert np.array_equal(H, expected), trial
            sizes = composition_sizes(totals, m, (lower, upper), (coef, half))
            assert sizes.tolist() == built.tolist() == [len(rows) for rows in kept]

    def test_ternary_call_order_independent(self, cold_table):
        # The m-ary twin of test_call_order_independent: a count's ln V is
        # the same alone, in one call with every other count, and in that
        # call reversed, which chunks the counts differently. Count 130 has
        # more rows than a chunk.
        ch = random_channel(np.random.default_rng(7), alphabet=3)
        counts = [*range(1, 41), 130]
        together = log_bit_variances(counts, ch)
        exact_bit_variance.cache_clear()
        backwards = log_bit_variances(counts[::-1], ch)[::-1]
        alone = []
        for t in counts:
            exact_bit_variance.cache_clear()
            alone.append(log_bit_variances([t], ch)[0])
        assert together == backwards == alone

    def test_lgamma_calls_bounded_by_deepest_bit(self, monkeypatch, cold_table):
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def lgamma(self, x):
                calls.append(x)
                return math.lgamma(x)

        ch = make_bac(0.9, 0.8)
        t = efficient_search(10**5, info_constants(ch).C)
        monkeypatch.setattr(decoder, "math", CountingMath())
        exact_distortion(t, ch)
        assert 0 < len(calls) <= 2 * max(t.t) + 2


# Symbols 1 and 2 share the ratio f1/f0 = 2: merged, a 3-symbol channel.
TIED_4 = ChannelSpec(outputs=(0, 1, 2, 3), f0=(0.4, 0.2, 0.1, 0.3), f1=(0.1, 0.4, 0.2, 0.3))
# Symbols 1 and 2 share the ratio 1.6: merged, a binary channel.
TIED_3 = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.25, 0.25), f1=(0.2, 0.4, 0.4))


class TestTiedOutputMerge:
    """Output symbols of equal ratio f1/f0 are merged before the oracle
    enumerates any row."""

    def test_merged_channels(self):
        merged = decoder._merge_tied_outputs(TIED_4)
        assert merged.outputs == (0, 1, 3)
        assert merged.f0 == (0.4, 0.2 + 0.1, 0.3) and merged.f1 == (0.1, 0.4 + 0.2, 0.3)
        binary = decoder._merge_tied_outputs(TIED_3)
        assert binary.outputs == (0, 1) and binary.f0 == (0.5, 0.5) and binary.f1 == (0.2, 0.8)
        assert window_law(TIED_3).parts == 2  # its rows are (t - j, j)
        noise = ChannelSpec(outputs=(0, 1, 2), f0=(0.2, 0.3, 0.5), f1=(0.2, 0.3, 0.5))
        ternary = random_channel(np.random.default_rng(1), alphabet=3)
        near = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.25, 0.25), f1=(0.2, 0.4 - 1e-12, 0.4 + 1e-12))
        for ch in (make_bac(0.9, 0.8), Z_CHANNEL, ternary, noise, near):
            assert decoder._merge_tied_outputs(ch) is ch

    # Past t of about 300 the ln multinomial terms, of size t ln t, carry a
    # rounding above 1e-13 relative in either sum (3e-13 against a 40-digit
    # reference at t = 900 on TIED_3), so the comparison stops below it.
    @pytest.mark.parametrize("ch, t_max", [(TIED_4, 120), (TIED_3, 250)], ids=["4-to-3", "3-to-2"])
    def test_equals_unmerged_full_sum(self, ch, t_max, cold_table, monkeypatch):
        # An infinite rho makes every window every row.
        ts = np.arange(1, t_max + 1)
        with monkeypatch.context() as mp:
            mp.setattr(decoder, "_RHO_BASE", math.inf)
            unmerged = decoder._log_variance_pass(ts, ch)
        merged = np.array(log_bit_variances(ts.tolist(), ch))
        assert np.abs(np.expm1(merged - unmerged)).max() <= 1e-13

    def test_budgets_count_merged_rows(self, cold_table):
        # 200 counts from 1600: unmerged, each bit has over 1.28e6 ternary
        # rows, past the per-bit budget, and the pattern about 2.9e8, past
        # the pattern's. Merged, each is a binary bit of at most t + 1 rows.
        counts = list(range(1600, 1800))
        assert math.comb(1600 + 2, 2) > decoder.HISTOGRAM_BUDGET
        assert sum(math.comb(t + 2, 2) for t in counts) > decoder.PATTERN_HISTOGRAM_BUDGET
        log_v = log_bit_variances(counts, TIED_3)
        assert all(math.isfinite(v) for v in log_v)
        # C(303, 3) = 4.6e6 rows unmerged, C(302, 2) = 45 451 merged.
        assert math.isfinite(log_bit_variances([300], TIED_4)[0])


class TestLogKernel:
    """The windowed log-domain oracle: reference values, the certificate's
    fallback, zero masses, batching and the cache."""

    @pytest.mark.parametrize("t", [10**4, 10**5])
    @pytest.mark.parametrize("ch", [make_bac(0.9, 0.8), make_bsc(0.05)], ids=["bac", "bsc"])
    def test_matches_bench_reference_at_large_t(self, ch, t):
        (log_v,) = log_bit_variances([t], ch)
        assert log_v == pytest.approx(bench_reference(ch).log_bit_variance(t), rel=1e-12)

    def test_uncertified_window_is_summed_again_wider(self, monkeypatch):
        # With rho lowered by 30 nats every window misses its certificate
        # and is summed once more, with rho + delta + 1: wider, yet far
        # short of every row, and the same value.
        ch = make_bac(0.9, 0.8)
        counts = [300, 1000, 2000]
        exact_bit_variance.cache_clear()
        certified = log_bit_variances(counts, ch)
        real_sums, rows = decoder._window_sums, []

        def counted(ts, law, rho):
            sizes, log_v = real_sums(ts, law, rho)
            rows.append(sizes.tolist())
            return sizes, log_v

        monkeypatch.setattr(decoder, "_RHO_BASE", decoder._RHO_BASE - 30.0)
        monkeypatch.setattr(decoder, "_window_sums", counted)
        exact_bit_variance.cache_clear()
        retried = log_bit_variances(counts, ch)
        exact_bit_variance.cache_clear()
        assert len(rows) == 2
        assert all(a < b < t // 4 for a, b, t in zip(*rows, counts))
        assert retried == pytest.approx(certified, rel=1e-13)

    def test_odd_counts_near_noiseless_retry_once(self, monkeypatch):
        # On bsc:0.001 the L_h nearest 0 of an odd count lies half a lattice
        # step (6.9 nats) away, so the first window misses its certificate
        # by about 1 nat. One retry certifies it on about 15 rows, not
        # t + 1, and gives the full-row sum.
        ch, counts = make_bsc(0.001), [1001, 1003, 4001]
        real_sums, rows = decoder._window_sums, []

        def counted(ts, law, rho):
            sizes, log_v = real_sums(ts, law, rho)
            rows.append(sizes.tolist())
            return sizes, log_v

        monkeypatch.setattr(decoder, "_window_sums", counted)
        exact_bit_variance.cache_clear()
        log_v = log_bit_variances(counts, ch)
        exact_bit_variance.cache_clear()
        assert len(rows) == 2 and max(rows[1]) <= 20
        lg = lgamma_table(max(counts))
        for t, v in zip(counts, log_v):
            assert v == pytest.approx(full_row_log_v(t, ch, lg), rel=1e-13)

    def test_odd_counts_far_below_noise_keep_the_nearest_rows(self, monkeypatch):
        # With crossover 1e-60 every |L_h| of an odd count is at least
        # lambda = 138 nats, past the slab's rho / kappa = 2 rho of about 90.
        # The slab widens to |lambda_1 - lambda_0| and keeps the two rows
        # next to t / 2; they miss the certificate by about lambda / 2 - rho,
        # and the retry certifies the same two. No pass sums more than 3
        # rows, at counts far past the full-row budget, and each value is
        # the log sum of the five rows nearest t / 2 by math.lgamma (the
        # next lie 2 lambda further down).
        p = 1e-60
        ch = ChannelSpec(outputs=(0, 1), f0=(1.0, p), f1=(p, 1.0))
        counts = [1001, 2 * 10**6 + 1, 10**7, 10**7 + 1]
        real_sums, rows = decoder._window_sums, []

        def counted(ts, law, rho):
            sizes, log_v = real_sums(ts, law, rho)
            rows.append(sizes.tolist())
            return sizes, log_v

        monkeypatch.setattr(decoder, "_window_sums", counted)
        exact_bit_variance.cache_clear()
        log_v = log_bit_variances(counts, ch)
        exact_bit_variance.cache_clear()
        assert rows == [[2, 2, 3, 2], [2, 2, 2]]
        for t, v in zip(counts, log_v):
            j = np.arange(t // 2 - 2, t // 2 + 3)
            ln_c = math.lgamma(t + 1.0) - np.array([math.lgamma(t - i + 1.0) + math.lgamma(i + 1.0) for i in j])
            lp0, lp1 = ln_c + j * math.log(p), ln_c + (t - j) * math.log(p)
            terms = math.log(0.5) + lp0 + lp1 - np.logaddexp(lp0, lp1)
            assert v == pytest.approx(float(np.logaddexp.reduce(terms)), rel=1e-13)

    def test_rows_on_one_sided_outputs_dropped(self):
        # A row with a count on an output of zero mass under one input has a
        # term of exactly 0 and is not enumerated: a Z channel bit is one
        # row, whose t zeros leave V = 0.3^t / (2 (1 + 0.3^t)).
        counts = [1, 5, 400, 3000]
        assert window_rows(counts, Z_CHANNEL) == [1] * 4
        for t, log_v in zip(counts, log_bit_variances(counts, Z_CHANNEL)):
            closed = math.log(0.5) + t * math.log(0.3) - math.log1p(0.3**t)
            assert log_v == pytest.approx(closed, rel=1e-13, abs=1e-13), t
        # Two charged outputs of three: the rows of a binary bit, against
        # every output sequence.
        ch = ChannelSpec(outputs=(0, 1, 2), f0=(0.6, 0.4, 0.0), f1=(0.2, 0.5, 0.3))
        assert window_rows([8], ch) == [9]
        for t in range(1, 9):
            assert bit_variance(t, ch) == pytest.approx(sequence_bit_variance(t, ch), rel=1e-12)
        # No output charged: every output reveals the bit, and ln V is the
        # stand-in log 0 of the rows' -1e30 log masses.
        disjoint = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.5, 0.0), f1=(0.0, 0.0, 1.0))
        assert log_bit_variances([1, 2, 3, 10], disjoint) == [-1e30, -1e30, -2e30, -5e30]

    @pytest.mark.parametrize(
        "ch",
        [make_bac(0.9, 0.8), make_bsc(0.05), random_channel(np.random.default_rng(7), 3), Z_CHANNEL],
        ids=["bac", "bsc", "random-3", "z-channel"],
    )
    def test_batch_composition_independent(self, ch):
        # The binary batch spans several chunks of rows; a bit's value is the
        # same alone, with others, and in any order, bit for bit.
        if len(ch.outputs) == 2:
            counts = [0, 1, 7, 60, 333, 2048, 9000, 40000, *range(1000, 1100)]
        else:
            counts = [0, 1, 5, 40, 90, *range(20, 30)]
        exact_bit_variance.cache_clear()
        together = log_bit_variances(counts, ch)
        alone = []
        for t in counts:
            exact_bit_variance.cache_clear()
            alone.append(log_bit_variances([t], ch)[0])
        exact_bit_variance.cache_clear()
        backwards = log_bit_variances(counts[::-1], ch)[::-1]
        exact_bit_variance.cache_clear()
        assert together == alone == backwards

    def test_cache_counts_every_lookup(self):
        ch = make_bsc(0.1)
        exact_bit_variance.cache_clear()
        log_bit_variances([3, 3, 5], ch)
        bit_variance(5, ch)
        info = exact_bit_variance.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        exact_bit_variance.cache_clear()
        info = exact_bit_variance.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


WINDOW_GRID_CHANNELS = [
    "bac:0.9,0.8", "bsc:0.05", "bsc:0.25", "bsc:0.45", "bsc:0.499", "bac:0.999,0.51", "bsc:0.001",
]
WINDOW_GRID_USES = np.array([1, 7, 50, 300, 3000, 10**5, 10**7, 10**10, 10**12])


def full_row_terms(t: int, ch: ChannelSpec) -> np.ndarray:
    """ln(P(j|0) sigmoid(L_j)) of every row j = 0..t of a binary bit, from
    math.lgamma and the masses alone."""
    j = np.arange(t + 1)
    lg = np.array([math.lgamma(x + 1.0) for x in range(t + 1)])
    (a0, a1), (b0, b1) = ch.f0, ch.f1
    lp0 = lg[t] - lg[j] - lg[t - j] + (t - j) * math.log(a0) + j * math.log(a1)
    llr = (t - j) * math.log(b0 / a0) + j * math.log(b1 / a1)
    return lp0 - np.logaddexp(0.0, -llr)


def mp_log_bit_variance(t: int, ch: ChannelSpec):
    """ln V(t) of a binary bit at 40 digits, an mpmath number: the rows
    P0 P1 / (2 (P0 + P1)) from the largest outwards, each side until its
    rows fall below 1e-60 of the largest (the terms are log-concave in j)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        (a0, a1), (b0, b1) = (map(mpmath.mpf, f) for f in (ch.f0, ch.f1))
        top = mpmath.loggamma(t + 1)

        def row(j: int):
            ln_c = top - mpmath.loggamma(j + 1) - mpmath.loggamma(t - j + 1)
            p0 = mpmath.exp(ln_c + (t - j) * mpmath.log(a0) + j * mpmath.log(a1))
            p1 = mpmath.exp(ln_c + (t - j) * mpmath.log(b0) + j * mpmath.log(b1))
            return p0 * p1 / (2 * (p0 + p1))

        centre = min(max(round(t * chernoff_tilt(ch).f[1]), 0), t)
        peak = row(centre)
        total = peak
        for step in (1, -1):
            j = centre + step
            while 0 <= j <= t and (value := row(j)) > peak * mpmath.mpf(10) ** -60:
                total += value
                j += step
        return mpmath.log(total)


class TestConstantWindow:
    """The one window, box and slab about the Chernoff tilt, on binary
    channels: certified at every t, its rows growing like ln t and not like
    sqrt t, equal to the full sum."""

    @pytest.mark.parametrize("name", WINDOW_GRID_CHANNELS)
    def test_grid_certified_and_no_wider(self, name, cold_table):
        # Each bit's bound on the rows left out lies 38 nats below its
        # in-window sum, or its window is every row; the window is no wider
        # than its box or its slab, and equals the full sum where that is
        # admitted.
        ch = load_channel(name)
        law, ts = window_law(ch), WINDOW_GRID_USES
        rho = decoder._rho(ts, 2)
        sizes, log_v = decoder._window_sums(ts, law, rho)
        bound = math.log(0.5) + ts * law.log_m + math.log(3.0) - rho
        assert ((bound <= log_v - decoder.WINDOW_CERTIFICATE) | (sizes == ts + 1)).all()
        box = 2.0 * np.sqrt(ts * rho / 2.0) + 1.0
        slab = 2.0 * rho / (law.kappa * abs(law.slope[0] - law.slope[1])) + 1.0
        assert (sizes <= np.minimum(box, slab)).all()
        assert log_v.tolist() == log_bit_variances(ts.tolist(), ch)
        small = ts[ts + 1 <= decoder.HISTOGRAM_BUDGET]
        full_sizes, full = decoder._window_sums(small, law, np.full(small.size, math.inf))
        assert (full_sizes == small + 1).all()
        assert log_v[: small.size] == pytest.approx(full, rel=1e-13)

    def test_rows_grow_like_log_t(self):
        # The slab's 2 rho / (kappa |lambda1 - lambda0|) rows bound a
        # bac:0.9,0.8 bit, rho growing like ln(t) / 2: 53 rows at t = 3000,
        # 68 at 1e15.
        ts = np.array([3000, 10**5, 10**8 + 7, 10**12, 10**15])
        rows = window_rows(ts, make_bac(0.9, 0.8))
        assert rows == sorted(rows) and 50 <= rows[0] and rows[-1] <= 70

    @settings(max_examples=150, deadline=None)
    @given(
        p00=st.floats(1e-4, 1.0 - 1e-4),
        p11=st.floats(1e-4, 1.0 - 1e-4),
        t=st.integers(1, 20_000),
    )
    @example(p00=0.9999, p11=0.0001, t=1)
    @example(p00=0.3333333333333333, p11=0.666666666666667, t=112)
    @example(p00=0.999, p11=0.999, t=1001)
    def test_derived_edges_clear_certificate(self, p00, p11, t):
        # The rows outside a bit's window sum to at most
        # (1/2) M^t (2 m' - 1) e^-rho (Hoeffding in the box, e^(-kappa |L|)
        # in the slab), on any binary channel with positive masses; the rows
        # come from math.lgamma and the masses alone.
        ch = ChannelSpec(outputs=(0, 1), f0=(p00, 1.0 - p00), f1=(1.0 - p11, p11))
        law, ts = window_law(ch), np.array([t])
        if law.parts < 2:
            return
        rho = decoder._rho(ts, 2)
        window = decoder._window(ts, law, rho)
        inside = composition_rows(ts, 2, *window)[0][:, 0]  # j ascending
        outside = np.setdiff1d(np.arange(t + 1), inside)
        if outside.size:
            left_out = math.log(0.5) + float(np.logaddexp.reduce(full_row_terms(t, ch)[outside]))
            bound = math.log(0.5) + t * law.log_m + math.log(3.0) - float(rho[0])
            assert left_out <= bound + 1e-9 * abs(bound)

    @pytest.mark.parametrize("t", [10**4, 10**6])
    @pytest.mark.parametrize("name", ["bac:0.9,0.8", "bsc:0.05", "bac:0.999,0.51"])
    def test_matches_forty_digit_reference(self, name, t):
        ch = load_channel(name)
        (log_v,) = log_bit_variances([t], ch)
        assert log_v == pytest.approx(float(mp_log_bit_variance(t, ch)), rel=1e-13)


class TestExactDistortion:
    def test_empty_pattern_is_prior_variance(self):
        assert exact_distortion(pattern([]), make_bsc(0.1)) == 1.0 / 12.0

    def test_single_transmission_hand_assembly(self):
        # 1/4 * 0.09 + (prior tail) 1/48.
        got = exact_distortion(pattern([1]), make_bsc(0.1))
        assert got == pytest.approx(0.0225 + 1.0 / 48.0, rel=1e-13)

    def test_bound_sandwich_on_figure_grid(self):
        from dyadicsearch import enumerate_patterns

        ch = make_bac(0.9, 0.8)
        C = chernoff_information(ch).nats
        B = b_functional(ch)
        for t in enumerate_patterns(10, 3):
            d = exact_distortion(t, ch)
            assert d <= upper_bound(t, C) + 1e-12
            assert d >= lower_bound(t, B) - 1e-12

    def test_sandwich_on_random_pairs(self, rng):
        for _ in range(100):
            ch = random_channel(rng, alphabet=int(rng.integers(2, 4)))
            C = chernoff_information(ch).nats
            B = b_functional(ch)
            n = int(rng.integers(0, 31))
            depth = int(rng.integers(1, 7))
            t = pattern(rng.multinomial(n, np.ones(depth) / depth).tolist())
            d = exact_distortion(t, ch)
            assert d <= upper_bound(t, C) + 1e-12
            assert d >= lower_bound(t, B) - 1e-12

    def test_monotone_under_extra_uses(self, rng):
        ch = make_bac(0.9, 0.8)
        t = pattern([4, 2, 1])
        base = exact_distortion(t, ch)
        for k in (1, 2, 3, 4):
            assert exact_distortion(bumped(t, k), ch) <= base


class TestArrayKernelAgainstScalarOracle:
    """The simulator's log-odds kernel against the scalar Bayes recursion."""

    @pytest.mark.parametrize("alphabet", [2, 3, 4])
    def test_summed_llr_posterior_matches_iterated_updates(self, alphabet, rng):
        for _ in range(100):
            ch = random_channel(rng, alphabet=alphabet)
            llr = np.log(np.array(ch.f1)) - np.log(np.array(ch.f0))
            # At most 8 outputs keeps |log-odds| < 32, where the scalar
            # posterior has not yet rounded to the fixed points 0 or 1.
            seq = rng.integers(0, alphabet, size=rng.integers(0, 9))
            p = 0.5
            for y in seq:
                p = posterior_update(p, ch.outputs[y], ch)
            kernel = _sigmoid(np.array([llr[seq].sum()]))[0]
            assert abs(kernel - p) <= 1e-12

    @pytest.mark.parametrize(
        "ch, counts",
        [(make_bac(0.9, 0.8), [6, 3, 1]), (make_bsc(0.2), [5, 0, 2, 1]), (make_bac(0.7, 0.95), [4, 3, 2, 2, 1])],
        ids=["bac-6-3-1", "bsc-with-skipped-bit", "bac-depth-5"],
    )
    def test_simulated_trials_match_scalar_decoder(self, ch, counts):
        # Under the uniform prior bit k adds 4^-k P0(h) sigma(L_h) / (2 P_s(h))
        # for its histogram h drawn from the tilted law f_s, whose mean is
        # 4^-k V(t_k); the bits without uses add 4^-k / 4 and the tail
        # 4^-q / 12. The draws are replayed from block 0's stream. Binary
        # outputs: the log-odds sum of bit k fixes how many of its t_k
        # outputs were 1, which is all the scalar pmfs and the scalar
        # recursion need.
        cfg = SimConfig(channel=ch, pattern=pattern(counts), prior=uniform_prior(), trials=300, seed=21)
        values = trial_values(cfg)
        llr0, llr1 = (math.log(b / a) for a, b in zip(ch.f0, ch.f1))
        tilt = chernoff_tilt(ch)
        f_s = [a ** (1.0 - tilt.s) * b**tilt.s for a, b in zip(ch.f0, ch.f1)]
        f_s = [x / math.fsum(f_s) for x in f_s]
        shared = math.fsum([0.25 * 4.0**-k for k, t_k in enumerate(counts, 1) if t_k == 0])
        expected = [shared + 4.0 ** -len(counts) / 12.0] * values.size
        rng = _block_rng(21, 0)
        for k, t_k in enumerate(counts, 1):
            if t_k == 0:
                continue
            table = _first_link_table(ch, t_k, True)
            s = _draw_llr(rng, values.size, table, 0)
            for i in range(values.size):
                ones = round((s[i] - t_k * llr0) / (llr1 - llr0))
                p0, p1, ps = (math.comb(t_k, ones) * f[1] ** ones * f[0] ** (t_k - ones)
                              for f in (ch.f0, ch.f1, f_s))
                expected[i] += 4.0**-k * p0 * (p1 / (p0 + p1)) / (2.0 * ps)
        assert values.tolist() == pytest.approx(expected, rel=1e-12)

        u, sums = draw_block(cfg, 0)
        u_hat = np.full(u.size, 0.5)
        for k, s in sums:
            u_hat += _bit_offset(s, k)
        by_bit = dict(sums)
        for i in range(u.size):
            p = [0.5] * len(counts)
            for k, s in by_bit.items():
                t_k = counts[k - 1]
                ones = round((s[i] - t_k * llr0) / (llr1 - llr0))
                for y in [1] * ones + [0] * (t_k - ones):
                    p[k - 1] = posterior_update(p[k - 1], y, ch)
            state = PosteriorState(tuple(p))
            assert u_hat[i] == pytest.approx(mmse_estimate(state), rel=1e-12)
