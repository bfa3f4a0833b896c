"""Posterior recursion, MMSE reconstruction, and the exact distortion oracle."""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicsearch import (
    BudgetExceededError,
    ChannelSpec,
    SimConfig,
    ValidationError,
    b_functional,
    chernoff_information,
    exact_distortion,
    log_bit_variances,
    lower_bound,
    make_bac,
    make_bsc,
    pattern,
    trial_values,
    uniform_prior,
    upper_bound,
)
from dyadicsearch import decoder, efficient_search, info_constants, load_channel
from dyadicsearch.channel import chernoff_tilt
from dyadicsearch.decoder import _bit_offset, _sigmoid, exact_bit_variance
from dyadicsearch.policy import composition_rows, compositions
from dyadicsearch.sim import _block_rng, _draw_llr, _first_link_table

from conftest import Z_CHANNEL, bench_reference, bit_variance, bumped, draw_block, random_channel
from oracles import PosteriorState, conditional_distortion, log_ratio, mmse_estimate, posterior_update


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
    """The oracle's law of the merged ``ch``."""
    return decoder._window_law(decoder._merge_tied_outputs(ch))


def bit_terms(counts, ch: ChannelSpec, rho=None) -> list[int]:
    """Terms of each count on the merged channel, its window's rows or its
    grid's nodes, as the gate counts them, whatever the budgets; ``rho``
    defaults to the first pass's."""
    law, ts = window_law(ch), np.array(counts, dtype=np.int64)
    rho = decoder._first_rho(ts, law) if rho is None else rho
    return decoder._terms(ts, law, rho).tolist()


CHANNEL3 = Path(__file__).resolve().parents[1] / "bench" / "channel3.json"

# Near pure noise: the cut keeps about 1.5e4 nodes of a bit near t = 1e4.
NEAR_NOISE_3 = ChannelSpec(outputs=(0, 1, 2), f0=(0.33, 0.33, 0.34), f1=(0.3301, 0.3299, 0.34))


def full_log_v(t: int, ch: ChannelSpec) -> float:
    """ln V(t) over every histogram of ch's outputs, from the recursive
    enumerator and math.lgamma: the terms ln(1/2) + lp0 + lp1 - ln(P0 + P1)
    of the rows with mass under both inputs, shifted by the largest and
    their exponentials summed pairwise."""
    H = recursive_histograms(t, len(ch.outputs))
    charged = [i for i, (a, b) in enumerate(zip(ch.f0, ch.f1)) if a > 0.0 and b > 0.0]
    H = H[H[:, [i for i in range(len(ch.outputs)) if i not in charged]].sum(axis=1) == 0][:, charged]
    lg = lgamma_table(t)
    log_mult = lg[t] - lg[H].sum(axis=1)
    lp0, lp1 = (log_mult + H @ np.log(np.array(f)[charged]) for f in (ch.f0, ch.f1))
    terms = lp0 + lp1 - np.logaddexp(lp0, lp1)
    top = terms.max()
    return float(math.log(0.5) + top + np.log(np.exp(terms - top).sum()))


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
                    floor = p * (1 - p) * math.exp(-abs(log_ratio(ch, y)))
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
        # At 1e5 uses a ternary bit is summed on its octave's grid of nodes:
        # under a per-bit budget of that many it is summed, under one fewer
        # it is refused.
        ch, t = random_channel(np.random.default_rng(1), alphabet=3), 10**5
        (nodes,) = bit_terms([t], ch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder, "HISTOGRAM_BUDGET", nodes)
            assert math.isfinite(log_bit_variances([t], ch)[0])
            exact_bit_variance.cache_clear()
            mp.setattr(decoder, "HISTOGRAM_BUDGET", nodes - 1)
            with pytest.raises(BudgetExceededError, match=f"{nodes} terms.* budget of one bit"):
                bit_variance(t, ch)

    def test_budget_refusal_grows_no_table(self, cold_table, monkeypatch):
        # Refused past the node budget, a ternary bit sums nothing: no ln i!
        # is computed and nothing is cached.
        ch, t = random_channel(np.random.default_rng(1), alphabet=3), 10**5
        monkeypatch.setattr(decoder, "HISTOGRAM_BUDGET", bit_terms([t], ch)[0] - 1)
        with pytest.raises(BudgetExceededError):
            bit_variance(t, ch)
        assert decoder._LOG_FACTORIALS.size == 1
        assert exact_bit_variance.cache_info().currsize == 0

    def test_pattern_total_refused_before_any_bit(self, cold_table, monkeypatch):
        # 300 distinct counts from 1e4 on a near-pure-noise ternary channel
        # share the grid of their octave: 458 nodes a bit. Under a pattern
        # budget of their summed nodes they pass the gate; under one fewer
        # they are refused, and nothing is summed.
        counts = list(range(10_300, 10_000, -1))
        nodes = bit_terms(counts, NEAR_NOISE_3)
        assert max(nodes) <= decoder.HISTOGRAM_BUDGET < math.comb(10_002, 2)
        monkeypatch.setattr(decoder, "PATTERN_HISTOGRAM_BUDGET", sum(nodes))
        decoder._check_histogram_total(counts, NEAR_NOISE_3)
        monkeypatch.setattr(decoder, "PATTERN_HISTOGRAM_BUDGET", sum(nodes) - 1)
        with pytest.raises(BudgetExceededError, match=f"{sum(nodes)} terms.* budget of one pattern"):
            exact_distortion(pattern(counts), NEAR_NOISE_3)
        assert decoder._LOG_FACTORIALS.size == 1
        assert exact_bit_variance.cache_info().currsize == 0

    def test_window_total_refused_before_any_bit(self, cold_table):
        # 1000 distinct counts near 1e9 on a near-pure-noise channel, whose
        # slab is wider than its box of about 3.2e5 rows: each bit's window
        # is under the per-bit budget, and the windows together pass the
        # pattern's.
        ch = make_bsc(0.49999)
        t = pattern(list(range(10**9 + 1000, 10**9, -1)))
        rows = bit_terms(t.t, ch)
        assert max(rows) <= decoder.HISTOGRAM_BUDGET
        assert sum(rows) > decoder.PATTERN_HISTOGRAM_BUDGET
        with pytest.raises(BudgetExceededError):
            exact_distortion(t, ch)
        assert decoder._LOG_FACTORIALS.size == 1

    def test_budget_totals_count_window_rows(self, cold_table, monkeypatch):
        # The gate counts a binary bit's full rows t + 1 until they pass a
        # budget, then each bit's window: the 1000 counts near 1e9 above
        # pass on bac:0.9,0.8 (at most 64 rows a bit). The Z channel's
        # one-sided output leaves one row a bit, and a ternary bit's terms
        # are the nodes its octave's grid sums, counted here as the pass
        # evaluates them. On
        # each budget monkeypatched to the counts' largest or summed terms
        # they pass, one term fewer refuses them, and no ln i! is computed
        # before a refusal.
        near_1e9 = list(range(10**9 + 1000, 10**9, -1))
        ternary = random_channel(np.random.default_rng(3), alphabet=3)
        summed, real_sums = [], decoder._fourier_sums

        def counted(ts, law, grid):
            summed.append(int(grid.width.sum()))
            return real_sums(ts, law, grid)

        with monkeypatch.context() as mp:
            mp.setattr(decoder, "_fourier_sums", counted)
            log_bit_variances([40, 90], ternary)
        exact_bit_variance.cache_clear()
        monkeypatch.setattr(decoder, "_LOG_FACTORIALS", np.zeros(1))
        cases = [
            (make_bac(0.9, 0.8), near_1e9, None),
            (Z_CHANNEL, [300, 1000], [1, 1]),
            (ternary, [40, 90], summed),
        ]
        assert len(summed) == 2
        for ch, counts, expected in cases:
            rows = bit_terms(counts, ch)
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
                mp.setattr(decoder, "HISTOGRAM_BUDGET", max(bit_terms(counts, ch)))
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
        (rows,) = bit_terms([t], ch)
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
        monkeypatch.setattr(decoder, "HISTOGRAM_BUDGET", max(bit_terms(counts, ch)))
        exact_bit_variance.cache_clear()
        with pytest.raises(BudgetExceededError, match="budget of one bit"):
            log_bit_variances(counts, ch)
        assert exact_bit_variance.cache_info().currsize == 0
        exact_bit_variance.cache_clear()

    def test_many_outputs_at_small_t_sum_every_row(self):
        # An 8-symbol bit at t = 10 has C(17, 7) = 19 448 rows; the formula
        # sums 556 nodes, and its value is the sum over every row, from the
        # recursive enumerator and math.lgamma.
        ch, t = random_channel(np.random.default_rng(8), alphabet=8), 10
        assert bit_terms([t], ch) == [556] and len(recursive_histograms(t, 8)) == math.comb(t + 7, 7)
        exact_bit_variance.cache_clear()
        (log_v,) = log_bit_variances([t], ch)
        assert log_v == pytest.approx(full_log_v(t, ch), rel=1e-13)

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
        # A bit of m outputs, two of them charged and the others one-sided,
        # merges to a binary window: its rows (t - j, j) are those of the
        # recursive enumeration with no count on a one-sided output, within
        # the box |j - t f_s*| <= w, w^2 = t rho / 2, and the slab
        # |L_h| <= max(rho / kappa, |lambda_1 - lambda_0|), with j ascending
        # where the enumeration has h_0 ascending.
        rng = np.random.default_rng(m)
        for trial in range(40):
            a, b = rng.uniform(0.05, 0.95, size=2)
            side = rng.dirichlet(np.ones(m - 1))
            ch = ChannelSpec(outputs=tuple(range(m)), f0=(a, 1.0 - a, *[0.0] * (m - 2)),
                             f1=(b * side[0], (1.0 - b) * side[0], *side[1:]))
            law, ts = window_law(ch), rng.integers(1, 25, size=3)
            rho = rng.uniform(0.0, 30.0, size=3)
            _, _, _, lo, sizes = decoder._window(ts, law, rho)
            tilt, lam = chernoff_tilt(ch), np.log(np.array(ch.f1[:2]) / np.array(ch.f0[:2]))
            for t, r, first, n in zip(ts.tolist(), rho.tolist(), lo.tolist(), sizes.tolist()):
                w, half = math.sqrt(t * r / 2.0), max(r / law.kappa, abs(lam[1] - lam[0]))
                kept = [h[1] for h in recursive_histograms(t, m).tolist()
                        if not any(h[2:]) and abs(h[1] - t * tilt.f[1]) <= w
                        and abs(h[0] * lam[0] + h[1] * lam[1]) <= half]
                assert kept[::-1] == list(range(first, first + n)), (trial, t)

    @pytest.mark.parametrize("m", [3, 4])
    def test_mary_window_matches_filtered_enumerator(self, m):
        # An m-ary window's rows (n - j, j, prefix) are those of the
        # recursive enumeration within the box |h_i - t f_s*(i)| <= w on
        # every output but the first and the slab
        # |L_h| <= max(rho / kappa, sum_i |lambda_i - lambda_0|), each
        # once, and the bound on its prefixes holds.
        rng = np.random.default_rng(10 + m)
        for trial in range(30):
            ch = random_channel(rng, alphabet=m)
            law, ts = window_law(ch), rng.integers(1, 20, size=3)
            rho = rng.uniform(0.0, 30.0, size=3)
            prefix, bit, n, lo, width = decoder._window(ts, law, rho)
            assert (np.bincount(bit, minlength=3) <= decoder._prefix_bound(ts, law, rho)).all()
            half = np.maximum(rho / law.kappa, np.abs(law.lam[1:] - law.lam[0]).sum())
            for b, t in enumerate(ts.tolist()):
                w, got = math.sqrt(t * rho[b] / 2.0), []
                for p in np.flatnonzero(bit == b).tolist():
                    got += [(n[p] - j, j, *prefix[p][::-1].tolist()) for j in range(lo[p], lo[p] + width[p])]
                kept = [tuple(h) for h in recursive_histograms(t, m).tolist()
                        if all(abs(h[i] - t * law.f[i]) <= w for i in range(1, m))
                        and abs(np.dot(h, law.lam)) <= half[b]]
                assert sorted(got) == sorted(kept) and len(set(got)) == len(got), (trial, t)

    def test_ternary_call_order_independent(self, cold_table):
        # The m-ary twin of test_call_order_independent: a count's ln V is
        # the same alone, in one call with every other count, and in that
        # call reversed, which batches the counts differently. Count 130
        # has more nodes than a pass holds with its octave's other counts.
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
    def test_equals_unmerged_full_sum(self, ch, t_max, cold_table):
        # An infinite rho makes the unmerged channel's window every row.
        ts = np.arange(1, t_max + 1)
        unmerged = decoder._window_sums(ts, decoder._window_law(ch), np.full(ts.size, math.inf))[1]
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
        # C(303, 3) = 4.6e6 rows unmerged; merged, a ternary bit of the formula.
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
        assert bit_terms(counts, Z_CHANNEL) == [1] * 4
        for t, log_v in zip(counts, log_bit_variances(counts, Z_CHANNEL)):
            closed = math.log(0.5) + t * math.log(0.3) - math.log1p(0.3**t)
            assert log_v == pytest.approx(closed, rel=1e-13, abs=1e-13), t
        # Two charged outputs of three: the rows of a binary bit, against
        # every output sequence.
        ch = ChannelSpec(outputs=(0, 1, 2), f0=(0.6, 0.4, 0.0), f1=(0.2, 0.5, 0.3))
        assert bit_terms([8], ch) == [9]
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


# f0 = (.5, .3, .2): every lambda a multiple of ln 2.5, so |phi| = 1 at
# every multiple of 2 pi / ln 2.5.
LATTICE_3 = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.3, 0.2), f1=(0.2, 0.3, 0.5))
# Output 3 has no mass under input 0, and s* = 1 - 4.7e-11: the contour
# lies past the pole at 1.
BOUNDARY_4 = ChannelSpec(outputs=(0, 1, 2, 3), f0=(0.5, 0.3, 0.2, 0.0), f1=(0.2, 0.3, 0.3, 0.2))
MIRROR_4 = ChannelSpec(outputs=(0, 1, 2, 3), f0=BOUNDARY_4.f1, f1=BOUNDARY_4.f0)
ZERO_MASS_4 = ChannelSpec(outputs=(0, 1, 2, 3), f0=(0.4, 0.35, 0.25, 0.0), f1=(0.25, 0.25, 0.4, 0.1))
NOISE_3 = ChannelSpec(outputs=(0, 1, 2), f0=(0.2, 0.3, 0.5), f1=(0.2, 0.3, 0.5))
NEAR_TIE_3 = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.25, 0.25), f1=(0.2, 0.4 - 1e-12, 0.4 + 1e-12))
NEAR_NOISELESS_3 = ChannelSpec(outputs=(0, 1, 2), f0=(1 - 2e-9, 1e-9, 1e-9), f1=(1e-9, 1e-9, 1 - 2e-9))


class TestFourierFormula:
    """The m-ary route, V(t) = 1/4 M(c)^t int phi_c^t / sin(pi (c + i w)) dw
    by the trapezoid rule, against the sum over every histogram."""

    @staticmethod
    def assert_matches_full_sum(ch: ChannelSpec, ts) -> None:
        # The formula on each count's octave grid, whether or not the
        # oracle sums its rows instead, where the grid is within the per-bit
        # budget: certified on its first pass, its rounding within bounds,
        # and within 1e-12 relative of the full sum, as is the oracle's value.
        law, ts = window_law(ch), np.array(ts)
        rho = decoder._first_rho(ts, law)
        exact_bit_variance.cache_clear()
        oracle = log_bit_variances(ts.tolist(), ch)
        checked = 0
        for t, r, value in zip(ts.tolist(), rho.tolist(), oracle):
            full = full_log_v(t, ch)
            assert value == pytest.approx(full, rel=1e-12), t
            k = t.bit_length()
            grid = decoder._grid(law.channel, 2 ** (k - 1), 2**k - 1, r)
            if grid.width.sum() > decoder.HISTOGRAM_BUDGET:
                continue
            (v,), (log_err,), (rounding,) = decoder._fourier_sums(np.array([t]), law, grid)
            assert log_err <= v - decoder.WINDOW_CERTIFICATE, t
            assert rounding - v <= math.log(decoder._ROUNDING * max(1.0, abs(v))), t
            assert v == pytest.approx(full, rel=1e-12), t
            checked += 1
        assert checked >= len(ts) // 2

    def test_random_ternary_channels_to_200(self):
        rng = np.random.default_rng(26)
        for _ in range(3):
            self.assert_matches_full_sum(random_channel(rng, alphabet=3), [*range(1, 200, 7), 200])

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_random_channels_of_many_outputs_to_20(self, m):
        rng = np.random.default_rng(m)
        for _ in range(2):
            self.assert_matches_full_sum(random_channel(rng, alphabet=m), [1, 2, 3, 8, 20])

    @pytest.mark.parametrize(
        "ch, t_max",
        [(LATTICE_3, 150), (ZERO_MASS_4, 60), (NEAR_TIE_3, 150), (BOUNDARY_4, 60), (MIRROR_4, 60)],
        ids=["lattice", "zero-mass-output", "near-tie", "boundary", "mirror"],
    )
    def test_edge_channels(self, ch, t_max):
        # A lattice of ratios, an output of zero mass under one input, two
        # outputs tied to 1e-12, and s* pinned at 1 and its mirror at 0.
        self.assert_matches_full_sum(ch, [*range(1, 21), *range(25, t_max + 1, 5)])

    def test_boundary_channel_at_large_t(self):
        # The residue (1/2) M(1)^t carries ln V, and the integral past the
        # pole moves it in the last digits; the window gave these values.
        expected = [-223.8366993260717, -2232.1286603226695]
        for ch in (BOUNDARY_4, MIRROR_4):
            exact_bit_variance.cache_clear()
            for t, want in zip([10**3, 10**4], expected):
                law, ts = window_law(ch), np.array([t])
                assert decoder._grid(law.channel, t, t, float(decoder._first_rho(ts, law)[0])).residue
                assert log_bit_variances([t], ch)[0] == pytest.approx(want, rel=0.0, abs=1e-10)

    def test_pure_noise_is_a_quarter(self):
        # Every lambda is 0: every posterior stays 1/2, and no node is summed.
        assert bit_terms([1, 10**9], NOISE_3) == [0, 0]
        assert log_bit_variances([1, 5, 10**9], NOISE_3) == [math.log(0.25)] * 3
        for t in (1, 5, 12):
            assert full_log_v(t, NOISE_3) == pytest.approx(math.log(0.25), rel=1e-14)

    @pytest.mark.parametrize(
        "ch, t, expected",
        [
            (NEAR_NOISELESS_3, 10**4, -96691.06220194261),
            (NEAR_NOISELESS_3, 10**6, -9668479.140503973),
            (load_channel(str(CHANNEL3)), 10**5, -16537.715784763775),
        ],
        ids=["near-noiseless-1e4", "near-noiseless-1e6", "channel3-1e5"],
    )
    def test_bits_the_window_answered(self, ch, t, expected):
        # Values the window gave. A near-noiseless lattice needs the phase
        # cut: without it, over 3e6 nodes at 1e6 uses.
        (nodes,) = bit_terms([t], ch)
        assert nodes <= 50_000
        exact_bit_variance.cache_clear()
        assert log_bit_variances([t], ch)[0] == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def window_counts(monkeypatch) -> list[list[int]]:
        # The counts of each call of the window's sums, as it is made.
        calls, real = [], decoder._window_sums
        monkeypatch.setattr(decoder, "_window_sums", lambda ts, law, rho: calls.append(ts.tolist()) or real(ts, law, rho))
        return calls

    def test_cancelling_bits_take_the_window(self, monkeypatch):
        # Likelihood ratios of e^27, e^-14, e^-44 and e^18: at t = 5 and 60
        # the formula's terms cancel and its rounding may pass 2^-40 |ln V|,
        # so each bit is summed over its window instead (twice: the first
        # window misses the certificate). Both equal the full sum.
        ch = ChannelSpec(outputs=(0, 1, 2, 3),
                         f0=(1.3941506051289498e-15, 7.020559547831197e-22, 0.9999999890828009, 1.0917197761922201e-08),
                         f1=(0.0006436388661018915, 3.753636133530561e-28, 9.269087296172866e-20, 0.999356361133898))
        windows = self.window_counts(monkeypatch)
        exact_bit_variance.cache_clear()
        log_v = log_bit_variances([5, 60], ch)
        assert windows == [[5, 60], [5, 60]]
        assert log_v == pytest.approx([full_log_v(5, ch), full_log_v(60, ch)], rel=1e-14)

    @pytest.mark.parametrize("t, expected", [(3000, -60375.45986355672), (10**5, -2011852.612808012)])
    def test_cancelling_bits_past_the_full_rows_take_the_window(self, monkeypatch, t, expected):
        # Ratios of e^-46 and e^38 on the two heavy outputs: the formula's
        # terms cancel about 1e8-fold, and the C(t + 2, 2) rows pass the
        # per-bit budget, so the window answers, with the value it gave
        # before the formula (to 1e-12 relative).
        ch = ChannelSpec(outputs=(0, 1, 2), f0=(1.0, 3.5e-17, 5.2e-24), f1=(9.1e-21, 1.0, 1.5e-24))
        assert math.comb(t + 2, 2) > decoder.HISTOGRAM_BUDGET
        windows = self.window_counts(monkeypatch)
        exact_bit_variance.cache_clear()
        assert log_bit_variances([t], ch)[0] == pytest.approx(expected, rel=1e-12)
        assert windows and all(w == [t] for w in windows)

    def test_fine_grid_near_pure_noise(self):
        # Likelihood ratios of e^-11 to e^29 on outputs of masses down to
        # 1e-28, near pure noise: the grid's step is so fine that
        # e^(2 pi b / h) passes the double range, so its discretisation
        # bound is taken in log space. The window gave the same value (to
        # 1e-12 relative).
        ch = ChannelSpec(outputs=(0, 1, 2, 3),
                         f0=(5.789351836026595e-26, 2.140289147521666e-23, 8.081998089011616e-15, 0.9999999999999919),
                         f1=(1.871903606030458e-28, 8.615819664039013e-11, 2.0035645881680976e-19, 0.9999999999138419))
        exact_bit_variance.cache_clear()
        assert log_bit_variances([3000], ch)[0] == pytest.approx(-1.3862944903691758, rel=1e-12)

    def test_ties_merged_to_two_outputs_take_the_window(self, monkeypatch):
        # TIED_3 has three outputs, two of them tied: merged, a binary
        # window of rows, with no node summed.
        calls = []
        monkeypatch.setattr(decoder, "_fourier_sums", lambda *a: calls.append(a))
        exact_bit_variance.cache_clear()
        assert window_law(TIED_3).parts == 2
        assert bit_terms([10, 1000], TIED_3) == bit_terms([10, 1000], decoder._merge_tied_outputs(TIED_3))
        assert all(math.isfinite(v) for v in log_bit_variances([10, 1000], TIED_3)) and calls == []
        exact_bit_variance.cache_clear()


# ln V of binary bits, bit for bit as the rows of their windows sum them.
BINARY_PINS = {
    "bac:0.9,0.8": [-2.0693912058263346, -4.6076253483464, -1047.1682598616665,
                    -694767.5658151464, -347379642.2444484],
    "bsc:0.1": [-2.4079456086518722, -6.002478223758105, -1537.690694845224,
                -1021659.7121070045, -510825635.3378714],
    "bsc:0.4999": [-1.3862944011198914, -1.386294641119862, -1.3864143539278562,
                   -1.463513575780576, -23.034083741268837],
    "z-channel": [-2.1594842493533726, -9.12117548693014, -3612.6115601583683,
                  -2407946.301799053, -1203972805.0190833],
}


@pytest.mark.parametrize("name", BINARY_PINS)
def test_binary_values_pinned(name):
    ch = Z_CHANNEL if name == "z-channel" else load_channel(name)
    exact_bit_variance.cache_clear()
    assert log_bit_variances([1, 7, 3000, 2 * 10**6, 10**9], ch) == BINARY_PINS[name]


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
        slab = 2.0 * rho / (law.kappa * abs(law.lam[-1] - law.lam[-2])) + 1.0
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
        rows = bit_terms(ts, make_bac(0.9, 0.8))
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
        _, _, _, lo, n = decoder._window(ts, law, rho)
        inside = np.arange(lo[0], lo[0] + n[0])  # j ascending
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
