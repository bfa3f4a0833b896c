"""Posterior recursion, MMSE reconstruction, and the exact distortion oracle."""

import itertools
import math

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
from dyadicsearch.decoder import _histograms, _safe_log, _sigmoid, _stable_pq, _uniform_estimate
from dyadicsearch.sim import _draw_block

from conftest import bumped, random_channel


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
    """The earlier histogram enumerator: binary rows (t - j, j), else recursion."""
    if m == 2:
        j = np.arange(t + 1, dtype=np.int64)
        return np.stack([t - j, j], axis=1)
    rows: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int, parts: int) -> None:
        if parts == 1:
            rows.append((*prefix, left))
            return
        for first in range(left + 1):
            rec(prefix + [first], left - first, parts - 1)

    rec([], t, m)
    return np.asarray(rows, dtype=np.int64)


def per_call_bit_variance(t: int, ch: ChannelSpec) -> float:
    """The earlier oracle kernel: recursive histograms, a fresh ln i! list per call."""
    if t == 0:
        return 0.25
    H = recursive_histograms(t, len(ch.outputs))
    lg = np.array([math.lgamma(i + 1.0) for i in range(t + 1)])
    log_mult = lg[t] - lg[H].sum(axis=1)
    lp0 = log_mult + H @ _safe_log(ch.f0)
    lp1 = log_mult + H @ _safe_log(ch.f1)
    weight = 0.5 * np.exp(lp0) + 0.5 * np.exp(lp1)
    return float(np.sum(weight * _stable_pq(lp1 - lp0)))


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
        # together they pass the pattern's, and nothing is enumerated.
        ch = make_bac(0.9, 0.8)
        t = pattern(list(range(500_600, 500_000, -1)))
        assert max(t.t) + 1 <= decoder.HISTOGRAM_BUDGET
        with pytest.raises(BudgetExceededError):
            exact_distortion(t, ch)
        assert decoder._LOG_FACTORIALS.size == 1

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
    """The shared ln i! table and stars-and-bars rows against the earlier kernel, bitwise."""

    _rng = np.random.default_rng(20261018)

    @pytest.mark.parametrize(
        "ch, extra",
        [
            (make_bsc(0.05), [500, 2000, 2823]),
            (make_bac(0.9, 0.8), [500, 2000, 2823]),
            (random_channel(_rng, alphabet=3), []),
            (random_channel(_rng, alphabet=4), []),
        ],
        ids=["bsc-0.05", "bac-0.9-0.8", "random-3", "random-4"],
    )
    def test_bitwise_equal_to_per_call_kernel(self, ch, extra, cold_table):
        for t in [*range(61), *extra]:
            assert exact_bit_variance(t, ch) == per_call_bit_variance(t, ch), t

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
            H = _histograms(t, m)
            assert H.dtype == np.int64
            assert H.shape == (math.comb(t + m - 1, m - 1), m)
            assert np.array_equal(H, recursive_histograms(t, m))

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
        # Binary outputs: the log-odds sum of bit k fixes how many of its t_k
        # outputs were 1, which is all the scalar recursion needs.
        cfg = SimConfig(channel=ch, pattern=pattern(counts), prior=uniform_prior(), trials=300, seed=21)
        rb = trial_values(cfg)
        u, sums = _draw_block(cfg, 0)
        u_hat = _uniform_estimate(u.size, sums)
        llr0, llr1 = (math.log(b / a) for a, b in zip(ch.f0, ch.f1))
        by_bit = dict(sums)
        for i in range(u.size):
            p = [0.5] * len(counts)
            for k, s in by_bit.items():
                t_k = counts[k - 1]
                ones = round((s[i] - t_k * llr0) / (llr1 - llr0))
                for y in [1] * ones + [0] * (t_k - ones):
                    p[k - 1] = posterior_update(p[k - 1], y, ch)
            state = PosteriorState(tuple(p))
            assert rb[i] == pytest.approx(conditional_distortion(state), rel=1e-12)
            assert u_hat[i] == pytest.approx(mmse_estimate(state), rel=1e-12)
