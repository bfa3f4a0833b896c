"""Posterior recursion, MMSE reconstruction, and the exact distortion oracle."""

import itertools
import math
import sys

import numpy as np
import pytest

from dyadicsearch import (
    BudgetExceededError,
    ChannelSpec,
    PosteriorState,
    SimConfig,
    ValidationError,
    b_functional,
    chernoff_information,
    conditional_distortion,
    exact_bit_variance,
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
from dyadicsearch import decoder, efficient_search, info_constants
from dyadicsearch.decoder import _bit_offset, _safe_log, _sigmoid
from dyadicsearch.policy import composition_rows, compositions
from dyadicsearch.sim import _block_rng, _draw_llr, _first_link_table, _tilt

from conftest import bench_reference, bumped, draw_block, random_channel


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
    lp0 = log_mult + H @ _safe_log(ch.f0)
    lp1 = log_mult + H @ _safe_log(ch.f1)
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
        assert exact_bit_variance(0, make_bsc(0.1)) == 0.25

    def test_single_use_bsc(self):
        # One BSC use leaves posterior eps or 1-eps: variance eps (1 - eps).
        assert exact_bit_variance(1, make_bsc(0.1)) == pytest.approx(0.09, rel=1e-14)

    def test_one_bit_sandwich(self):
        ch = make_bsc(0.1)
        C = chernoff_information(ch).nats
        B = b_functional(ch)
        v = exact_bit_variance(1, ch)
        assert 0.25 * math.exp(-B) <= v <= math.exp(-C)
        assert 0.25 * math.exp(-B) == pytest.approx(0.25 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
    def test_matches_sequence_oracle_binary(self, t):
        ch = make_bac(0.9, 0.8)
        assert exact_bit_variance(t, ch) == pytest.approx(sequence_bit_variance(t, ch), rel=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 4, 6])
    def test_matches_sequence_oracle_ternary(self, t, rng):
        ch = random_channel(rng, alphabet=3)
        assert exact_bit_variance(t, ch) == pytest.approx(sequence_bit_variance(t, ch), rel=1e-12)

    def test_budget_refusal(self):
        ch = random_channel(np.random.default_rng(1), alphabet=3)
        with pytest.raises(BudgetExceededError):
            exact_bit_variance(2000, ch)

    def test_budget_refusal_grows_no_table(self, cold_table):
        ch = random_channel(np.random.default_rng(1), alphabet=3)
        with pytest.raises(BudgetExceededError):
            exact_bit_variance(2000, ch)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_pattern_total_refused_before_any_bit(self, cold_table):
        # 600 distinct counts near 5e5: each bit is under the per-bit budget,
        # together they pass the pattern's, and nothing is enumerated. The
        # Z channel's zero mass makes every bit sum all its rows.
        ch = Z_CHANNEL
        t = pattern(list(range(500_600, 500_000, -1)))
        assert max(t.t) + 1 <= decoder.HISTOGRAM_BUDGET
        with pytest.raises(BudgetExceededError):
            exact_distortion(t, ch)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_window_total_refused_before_any_bit(self, cold_table):
        # 1000 distinct counts near 1e9 on a windowed channel: each bit's
        # window of about 2.5e5 rows is under the per-bit budget, and the
        # windows together pass the pattern's.
        ch = make_bac(0.9, 0.8)
        t = pattern(list(range(10**9 + 1000, 10**9, -1)))
        lo, hi = decoder._binary_windows(np.array(t.t), ch)
        assert (hi - lo + 1).max() <= decoder.HISTOGRAM_BUDGET
        assert (hi - lo + 1).sum() > decoder.PATTERN_HISTOGRAM_BUDGET
        with pytest.raises(BudgetExceededError):
            exact_distortion(t, ch)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_window_rows_closed_form(self):
        # The scalar count the budget checks use equals the window's size.
        ts = np.array([0, 1, 2, 7, 50, 99, 100, 101, 3000, 10**6, 10**8 + 7, 10**10, 10**12])
        for ch in (make_bac(0.9, 0.8), make_bsc(0.1), make_bac(0.999, 0.51)):
            theta = decoder._window_centre(ch)
            lo, hi = decoder._binary_windows(ts, ch)
            assert [decoder._window_rows(t, theta) for t in ts.tolist()] == (hi - lo + 1).tolist()
        for ch in (Z_CHANNEL, random_channel(np.random.default_rng(3), alphabet=3)):
            assert decoder._window_centre(ch) is None

    def test_windowed_bits_over_full_row_budget(self):
        # Three bits of 1e7 uses hold 1e7 + 1 rows each, above the per-bit
        # budget, but their certified windows sum about 2.5e4 rows. The
        # value equals the log sum over every row, computed here in segments
        # of 1e6 rows from a ln i! table of its own, combined by logsumexp.
        ch, t = make_bsc(0.1), 10**7
        assert t + 1 > decoder.HISTOGRAM_BUDGET
        d = exact_distortion(pattern([t] * 3), ch)
        (log_v,) = log_bit_variances([t], ch)
        lg = np.fromiter(map(math.lgamma, np.arange(1.0, t + 2.0)), float, count=t + 1)
        lo = np.arange(0, t + 1, 10**6)
        hi = np.minimum(lo + 10**6 - 1, t)
        segments, _ = decoder._binary_log_variances(np.full(lo.size, t), lo, hi, lg, ch)
        full = float(np.logaddexp.reduce(segments))
        assert log_v == pytest.approx(full, rel=1e-13)
        assert d == pytest.approx(decoder.assemble_distortion([full] * 3), rel=1e-13)

    def test_uncertified_window_over_full_row_budget_refused(self, monkeypatch):
        # A window that fails its certificate falls back to every row, which
        # stays under the full-row budget: at 2e6 uses that is a refusal.
        def narrow(ts, ch):
            mid = (ts // 2).astype(np.int64)
            return mid - 2, mid + 2

        monkeypatch.setattr(decoder, "_binary_windows", narrow)
        exact_bit_variance.cache_clear()
        with pytest.raises(BudgetExceededError, match="not certified"):
            log_bit_variances([2 * 10**6], make_bsc(0.1))
        exact_bit_variance.cache_clear()

    def test_pattern_total_admits_greedy_at_1e8(self):
        # The greedy pattern at n = 1e8 needs about 1.0001e8 rows and stays
        # exact; the check alone is run here, not the enumeration.
        ch = make_bac(0.9, 0.8)
        t = efficient_search(10**8, info_constants(ch).C).t
        assert sum(tk + 1 for tk in set(t)) > 10**8
        decoder._check_histogram_total(t, ch)

    def test_decreasing_in_uses(self):
        ch = make_bac(0.9, 0.8)
        values = [exact_bit_variance(t, ch) for t in range(12)]
        assert all(a > b for a, b in zip(values, values[1:]))


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
            assert close_to_linear(exact_bit_variance(t, ch), linear), t
            assert exact_bit_variance(t, ch) == math.exp(log_v[t]), t

    @pytest.mark.parametrize("ch", [make_bac(0.9, 0.8), make_bsc(0.05)], ids=["bac", "bsc"])
    def test_call_order_independent(self, ch, monkeypatch, cold_table):
        ascending = [exact_bit_variance(t, ch) for t in [*range(41), 3000]]
        monkeypatch.setattr(decoder, "_LOG_FACTORIALS", np.zeros(1))
        exact_bit_variance.cache_clear()
        big_first = exact_bit_variance(3000, ch)
        assert [exact_bit_variance(t, ch) for t in range(41)] + [big_first] == ascending

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
        H = composition_rows(np.array(totals), m)
        assert H.dtype == np.int64
        assert np.array_equal(H, np.concatenate([recursive_histograms(t, m) for t in totals]))

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


Z_CHANNEL = ChannelSpec(outputs=(0, 1), f0=(1.0, 0.0), f1=(0.3, 0.7))
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
        assert decoder._window_centre(binary) is not None  # the windowed binary path
        noise = ChannelSpec(outputs=(0, 1, 2), f0=(0.2, 0.3, 0.5), f1=(0.2, 0.3, 0.5))
        ternary = random_channel(np.random.default_rng(1), alphabet=3)
        near = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.25, 0.25), f1=(0.2, 0.4 - 1e-12, 0.4 + 1e-12))
        for ch in (make_bac(0.9, 0.8), Z_CHANNEL, ternary, noise, near):
            assert decoder._merge_tied_outputs(ch) is ch

    # Past t of about 300 the ln multinomial terms, of size t ln t, carry a
    # rounding above 1e-13 relative in either sum (3e-13 against a 40-digit
    # reference at t = 900 on TIED_3), so the comparison stops below it.
    @pytest.mark.parametrize("ch, t_max", [(TIED_4, 120), (TIED_3, 250)], ids=["4-to-3", "3-to-2"])
    def test_equals_unmerged_full_sum(self, ch, t_max, cold_table):
        ts = np.arange(1, t_max + 1)
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

    def test_uncertified_window_falls_back_to_full_rows(self, monkeypatch):
        ch = make_bac(0.9, 0.8)
        counts = [300, 1000, 2000]
        exact_bit_variance.cache_clear()
        windowed = [math.exp(v) for v in log_bit_variances(counts, ch)]
        real_windows, real_pass = decoder._binary_windows, decoder._binary_log_variances
        rows = []

        def narrow(ts, ch):
            lo, hi = real_windows(ts, ch)
            mid = (lo + hi) // 2
            return mid - 2, mid + 2

        def counted(ts, lo, hi, lg, ch):
            rows.append((hi - lo + 1).tolist())
            return real_pass(ts, lo, hi, lg, ch)

        monkeypatch.setattr(decoder, "_binary_windows", narrow)
        monkeypatch.setattr(decoder, "_binary_log_variances", counted)
        exact_bit_variance.cache_clear()
        fallback = [math.exp(v) for v in log_bit_variances(counts, ch)]
        exact_bit_variance.cache_clear()
        assert rows == [[5, 5, 5], [t + 1 for t in counts]]
        assert fallback == pytest.approx(windowed, rel=1e-13)

    def test_zero_mass_channel_sums_full_rows(self):
        ts = np.array([1, 5, 400, 3000], dtype=np.int64)
        lo, hi = decoder._binary_windows(ts, Z_CHANNEL)
        assert lo.tolist() == [0] * 4 and hi.tolist() == ts.tolist()
        # Any output 1 reveals the bit; t zeros leave V = 0.3^t / (2 (1 + 0.3^t)).
        for t, log_v in zip(ts.tolist(), log_bit_variances(ts.tolist(), Z_CHANNEL)):
            closed = math.log(0.5) + t * math.log(0.3) - math.log1p(0.3**t)
            assert log_v == pytest.approx(closed, rel=1e-13, abs=1e-13), t

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
        exact_bit_variance(5, ch)
        info = exact_bit_variance.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        exact_bit_variance.cache_clear()
        info = exact_bit_variance.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


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
        tilt = _tilt(ch)
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
