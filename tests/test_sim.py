"""Monte-Carlo estimators against the exact oracle, plus reproducibility."""

import functools
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyadicsearch import (
    BudgetExceededError,
    ChannelSpec,
    PriorSpec,
    SimConfig,
    SweepRow,
    ValidationError,
    aurelian,
    aurelian_sweep,
    estimate_distortion,
    exact_distortion,
    info_constants,
    load_channel,
    lower_bound,
    make_bac,
    make_bsc,
    nonuniform_experiment,
    pattern,
    power_prior,
    trial_values,
    uniform_prior,
    upper_bound,
)
from dyadicsearch import sim
from dyadicsearch.decoder import HISTOGRAM_BUDGET, _bit_offset
from dyadicsearch.sim import (
    BLOCK_TRIALS,
    PRIOR_DISTORTION,
    TABLE_CACHE_ENTRIES,
    DistortionEstimate,
    _block_rng,
    _draw_llr,
    _first_link_index,
    _first_link_table,
    _histogram_chain,
    _rounding_bound,
    _squared_errors,
    _table_index,
    _tilt,
    _tilted_value,
    _window_cdf,
)
from dyadicsearch.source import bits_array, from_uniform

from conftest import Z_CHANNEL, draw_block, random_moderate_channel

CHANNEL3 = Path(__file__).resolve().parents[1] / "bench" / "channel3.json"


def rb_config(channel, pat, trials, seed):
    return SimConfig(channel=channel, pattern=pat, prior=uniform_prior(), trials=trials, seed=seed)


def per_budget_sweep(channel, n_values, exact=True, trials=100_000, seed=0, jobs=1):
    """The sweep one budget at a time: ``aurelian(n)``, the oracle and both
    bounds rebuilt from scratch at every row (the earlier implementation, and
    the oracle the stepped sweep is held to, float for float)."""
    consts = info_constants(channel)
    rows = []
    for n in n_values:
        pat = aurelian(n, consts)
        if exact:
            d, se = exact_distortion(pat, channel), 0.0
        else:
            est = estimate_distortion(rb_config(channel, pat, trials, seed), jobs=jobs)
            d, se = est.mean, est.std_error
        u = upper_bound(pat, consts.C)
        rows.append(
            SweepRow(
                n=n,
                q=pat.q,
                t1=pat.t[0],
                distortion=d,
                std_error=se,
                upper=u,
                lower=lower_bound(pat, consts.B),
                log_d_over_sqrt_n=math.log(d) / math.sqrt(n),
                log_u_over_sqrt_n=math.log(u) / math.sqrt(n),
                d_over_d0=d / PRIOR_DISTORTION,
            )
        )
    return tuple(rows)


class TestRunTrial:
    """Per-trial statistics, as ``trial_values`` returns them in trial order."""

    def test_empty_pattern_rb_is_prior_variance_every_trial(self):
        cfg = rb_config(make_bsc(0.1), pattern([]), trials=50, seed=3)
        assert np.all(trial_values(cfg) == 1.0 / 12.0)

    def test_deterministic_given_seed_and_index(self):
        # A trial in a full block depends on (seed, i) only: a longer run
        # repeats those trials as its prefix, whatever the worker count.
        cfg = rb_config(make_bac(0.9, 0.8), pattern([6, 3, 1]), trials=8192, seed=11)
        longer = rb_config(make_bac(0.9, 0.8), pattern([6, 3, 1]), trials=9000, seed=11)
        values = trial_values(cfg)
        assert values.shape == (8192,)
        assert np.array_equal(values, trial_values(cfg, jobs=2))
        assert np.array_equal(values, trial_values(longer, jobs=3)[:8192])

    def test_near_noiseless_deep_pattern_small_error(self):
        # 17 essentially clean bits: the squared error sits at the 2^-17 tail,
        # whose uniform spread around the midpoint has variance 4^-17 / 12.
        report = nonuniform_experiment(
            make_bac(0.999, 0.999), uniform_prior(), pattern([20] * 17), trials=1000, seed=5
        )
        assert report.original_mse == report.uniform_mse
        assert abs(report.original_mse - 4.0**-17 / 12.0) <= 4.0 * report.original_se

    def test_nonuniform_prior_gives_original_domain_error(self):
        # Away from the uniform prior the statistic is the squared error in
        # the original domain, the one the CDF-transform experiment reports.
        ch, pat = make_bac(0.9, 0.8), pattern([6, 3, 1])
        cfg = SimConfig(channel=ch, pattern=pat, prior=power_prior(2), trials=9000, seed=4)
        est = estimate_distortion(cfg, jobs=2)
        report = nonuniform_experiment(ch, power_prior(2), pat, trials=9000, seed=4)
        assert (est.mean, est.std_error) == (report.original_mse, report.original_se)
        assert est.mean != report.uniform_mse

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        ch, pat = make_bsc(0.1), pattern([2, 1])
        cfg = rb_config(ch, pat, trials=10, seed=0)
        with pytest.raises(ValidationError):
            estimate_distortion(cfg, jobs=jobs)
        with pytest.raises(ValidationError):
            trial_values(cfg, jobs=jobs)
        with pytest.raises(ValidationError):
            nonuniform_experiment(ch, power_prior(2), pat, trials=10, seed=0, jobs=jobs)
        for exact in (True, False):
            with pytest.raises(ValidationError):
                aurelian_sweep(ch, [4, 5], exact=exact, trials=10, jobs=jobs)


class TestEstimateDistortion:
    def test_empty_pattern_rb(self):
        est = estimate_distortion(rb_config(make_bsc(0.1), pattern([]), trials=1000, seed=1))
        assert est.mean == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert est.std_error <= 1e-15

    def test_matches_exact_oracle(self):
        ch = make_bac(0.9, 0.8)
        pat = pattern([6, 3, 1])
        est = estimate_distortion(rb_config(ch, pat, trials=100_000, seed=42))
        exact = exact_distortion(pat, ch)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_rb_beats_plain_variance(self):
        # The plain squared error under the uniform prior is the original-
        # domain error of the CDF-transform experiment with F the identity.
        ch = make_bac(0.9, 0.8)
        pat = pattern([6, 3, 1])
        rb = estimate_distortion(rb_config(ch, pat, trials=10_000, seed=9))
        plain = nonuniform_experiment(ch, uniform_prior(), pat, trials=10_000, seed=9)
        assert rb.std_error < plain.original_se
        # Same mean up to combined Monte-Carlo noise.
        combined = math.hypot(rb.std_error, plain.original_se)
        assert abs(rb.mean - plain.original_mse) <= 3.0 * combined

    def test_worker_count_invariance(self):
        cfg = rb_config(make_bac(0.9, 0.8), pattern([6, 3, 1]), trials=20_000, seed=77)
        est1 = estimate_distortion(cfg, jobs=1)
        est4 = estimate_distortion(cfg, jobs=4)
        assert est1 == est4  # bit-identical mean and stderr

    def test_estimate_is_mean_of_trials(self):
        cfg = rb_config(make_bsc(0.2), pattern([3, 1]), trials=500, seed=13)
        est = estimate_distortion(cfg)
        values = trial_values(cfg)
        assert est.mean == pytest.approx(float(np.mean(values)), rel=1e-15)
        assert est.std_error == pytest.approx(float(np.std(values, ddof=1)) / math.sqrt(500), rel=1e-15)


    def test_wide_support_prior_mean_above_a_third(self):
        # F(x) = x / 4 on [0, 4] and no transmissions: the original-domain
        # squared error has mean 16/12, above the uniform domain's 1/3, and is
        # bounded by the squared support width 16 instead.
        prior = PriorSpec(
            kind="transformed",
            cdf=lambda x: np.asarray(x, dtype=float) / 4.0,
            inverse_cdf=lambda u: 4.0 * np.asarray(u, dtype=float),
            support=(0.0, 4.0),
            lipschitz_sq=1.0 / 16.0,
        )
        ch, empty = make_bac(0.9, 0.8), pattern([])
        cfg = SimConfig(channel=ch, pattern=empty, prior=prior, trials=5000, seed=3)
        est = estimate_distortion(cfg)
        assert est.mean == nonuniform_experiment(ch, prior, empty, trials=5000, seed=3).original_mse
        assert est.mean == pytest.approx(16.0 / 12.0, abs=3.0 * est.std_error)


class TestFigureGridAgreement:
    def test_mc_matches_exact_on_all_66_patterns(self):
        from dyadicsearch import enumerate_patterns

        ch = make_bac(0.9, 0.8)
        for pat in enumerate_patterns(10, 3):
            est = estimate_distortion(rb_config(ch, pat, trials=20_000, seed=1234))
            exact = exact_distortion(pat, ch)
            assert abs(est.mean - exact) <= 3.0 * max(est.std_error, 1e-15), str(pat)


def three_bits(n: int):
    """A fixed 3-bit pattern of n uses, for channels with no staircase."""
    return pattern([n - n // 3 - n // 6, n // 3, n // 6])


class TestAgreementOverMcAccuracyRange:
    """Monte-Carlo within 4 sigma of the exact oracle over the budgets the
    mc-accuracy benchmark estimates (odd n up to 59); ``TestTiltedEstimator``
    goes on to n = 1e5."""

    @pytest.mark.parametrize("n", [11, 31, 59])
    @pytest.mark.parametrize(
        "ch",
        [make_bsc(0.25), make_bac(0.9, 0.8), load_channel(str(CHANNEL3)), Z_CHANNEL],
        ids=["bsc-0.25", "bac", "three-symbol", "z"],
    )
    def test_within_four_sigma(self, ch, n):
        # The Z channel's infinite log-ratio leaves it without channel
        # constants, so without a staircase; every other r is at most 9.
        pat = three_bits(n) if ch == Z_CHANNEL else aurelian(n, info_constants(ch))
        exact = exact_distortion(pat, ch)
        for seed in (1, 2, 3):
            est = estimate_distortion(rb_config(ch, pat, trials=50_000, seed=seed))
            assert abs(est.mean - exact) <= 4.0 * est.std_error, (seed, est, exact)


edge_mass = st.one_of(st.just(0.0), st.floats(1e-12, 1e-9), st.floats(1e-3, 1.0))


@st.composite
def edge_channels(draw):
    """Channels of 2 to 4 symbols whose masses may be 0 or within 1e-9 of 0 or 1."""
    m = draw(st.sampled_from([2, 3, 4]))
    rows = []
    for _ in range(2):
        w = draw(st.lists(edge_mass, min_size=m, max_size=m).filter(lambda w: sum(w) > 0.0))
        rows.append(tuple(x / math.fsum(w) for x in w))
    assume(not any(a == 0.0 and b == 0.0 for a, b in zip(*rows)))
    return ChannelSpec(outputs=tuple(range(m)), f0=rows[0], f1=rows[1])


class TestSamplerProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        ch=edge_channels(),
        counts=st.lists(st.integers(0, 20), max_size=6),
        trials=st.integers(1, 3 * BLOCK_TRIALS),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_finite_and_job_invariant(self, ch, counts, trials, seed):
        for prior in (uniform_prior(), power_prior(2)):
            cfg = SimConfig(channel=ch, pattern=pattern(counts), prior=prior, trials=trials, seed=seed)
            values = trial_values(cfg, jobs=1)
            assert values.shape == (trials,)
            assert np.all(np.isfinite(values))
            assert values.tobytes() == trial_values(cfg, jobs=3).tobytes()


AGREEMENT_CHANNELS = {
    "bsc-0.25": make_bsc(0.25),
    "bac": make_bac(0.9, 0.8),
    "three-symbol": load_channel(str(CHANNEL3)),
}


@functools.cache
def exact_at(name: str, n: int) -> float:
    """Exact D of ``aurelian(n)``, once per module: the ternary oracle at
    n = 1e5 sums about 4e7 histograms."""
    ch = AGREEMENT_CHANNELS[name]
    return exact_distortion(aurelian(n, info_constants(ch)), ch)


class TestTiltedEstimator:
    """The uniform-prior estimator: importance sampling at the Chernoff tilt."""

    @pytest.mark.parametrize("n", [300, 1000, 2000, 5000, 100_000])
    @pytest.mark.parametrize("name", list(AGREEMENT_CHANNELS))
    def test_within_three_sigma_of_exact(self, name, n):
        ch = AGREEMENT_CHANNELS[name]
        pat = aurelian(n, info_constants(ch))
        exact = exact_at(name, n)
        for seed in (1, 2, 3):
            est = estimate_distortion(rb_config(ch, pat, trials=20_000, seed=seed))
            assert abs(est.mean - exact) <= 3.0 * est.std_error, (seed, est, exact)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        ch=edge_channels(),
        counts=st.lists(st.integers(0, 20), max_size=6),
        trials=st.integers(1, 2 * BLOCK_TRIALS),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_values_finite_and_positive(self, ch, counts, trials, seed):
        values = trial_values(rb_config(ch, pattern(counts), trials, seed))
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)

    def test_rounding_floor_never_binds_on_bac(self):
        from dyadicsearch import enumerate_patterns

        ch = make_bac(0.9, 0.8)
        k = info_constants(ch)
        for pat in enumerate_patterns(10, 3) + [aurelian(n, k) for n in (59, 300, 2000, 100_000)]:
            cfg = rb_config(ch, pat, trials=BLOCK_TRIALS, seed=6)
            values = trial_values(cfg)
            sample_se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
            est = estimate_distortion(cfg)
            assert est.std_error == sample_se
            assert _rounding_bound(cfg) * est.mean < 1e-6 * sample_se, str(pat)

    def test_deterministic_draw_reports_the_rounding_floor(self):
        # The Z channel's tilted law puts every use on output 0, so every
        # trial has the same value; the error bar is the rounding bound.
        pat = three_bits(59)
        cfg = rb_config(Z_CHANNEL, pat, trials=10_000, seed=4)
        values = trial_values(cfg)
        assert np.all(values == values[0])
        est = estimate_distortion(cfg)
        assert est.std_error == _rounding_bound(cfg) * est.mean > 0.0
        assert est.std_error < 1e-12 * est.mean
        assert abs(est.mean - exact_distortion(pat, Z_CHANNEL)) <= est.std_error

    def test_bits_past_the_double_mantissa_are_drawn(self):
        # 60 bits of a near-noiseless channel: the bits past 52 carry most of
        # D; without them the mean would sit near 4^-52 / 12.
        ch, pat = make_bsc(1e-6), pattern([40] * 60)
        est = estimate_distortion(rb_config(ch, pat, trials=5000, seed=2))
        exact = exact_distortion(pat, ch)
        assert exact < 1e-3 * 4.0**-52 / 12.0
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_negative_mean_refused(self):
        DistortionEstimate(mean=0.0, std_error=0.0, trials=1)
        with pytest.raises(ValidationError):
            DistortionEstimate(mean=-1e-300, std_error=0.0, trials=1)


def exact_binomial_pmf(t: int, p: float) -> tuple[list[int], int]:
    """Binomial(t, p) pmf in exact rationals, p the double as it is stored:
    integer numerators over one common denominator."""
    a, d = Fraction(p).as_integer_ratio()
    return [math.comb(t, c) * a**c * (d - a) ** (t - c) for c in range(t + 1)], d**t


def first_counts(ch: ChannelSpec, t: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Input bit and count of symbol 0 of bit 1 in each trial of a binary
    channel, recovered from its log-odds sum c0 lam0 + (t - c0) lam1."""
    lam0, lam1 = _histogram_chain(ch)[1]
    cfg = SimConfig(channel=ch, pattern=pattern([t]), prior=uniform_prior(), trials=trials, seed=seed)
    bits, counts = [], []
    for block in range(-(-trials // BLOCK_TRIALS)):
        u, [(k, s)] = draw_block(cfg, block)
        c0 = (s - t * lam1) / (lam0 - lam1)
        assert np.all(np.abs(c0 - np.rint(c0)) < 1e-6 * max(1.0, t * 1e-6))
        bits.append(bits_array(u, k))
        counts.append(np.rint(c0).astype(np.int64))
    return np.concatenate(bits), np.concatenate(counts)


class TestFirstLinkTable:
    """The inverse-CDF table of the first link of ``_draw_llr``: the count
    of symbol 0, Binomial(t_k, f_b(0)), over its Hoeffding window."""

    @pytest.mark.parametrize("t", [1, 7, 1000])
    @pytest.mark.parametrize(
        "ch", [make_bac(0.9, 0.8), make_bsc(0.25), Z_CHANNEL], ids=["bac", "bsc-0.25", "z"]
    )
    def test_bin_masses_match_the_binomial_pmf(self, ch, t):
        table = _first_link_table(ch, t)
        rows = [_window_cdf(t, float(p)) for p in _histogram_chain(ch)[0][:, 0]]
        # Each row's thresholds, shifted by r 2^53 and closed by (r + 1) 2^53,
        # then int64 max as padding; index i of row r is count i + base[r].
        size = rows[0][1].size + rows[1][1].size + 2
        assert table.keys[:size].tolist() == (
            rows[0][1].tolist() + [2**53] + (rows[1][1] + 2**53).tolist() + [2**54]
        )
        assert np.all(table.keys[size:] == np.iinfo(np.int64).max)
        assert table.base.tolist() == [rows[0][0], rows[1][0] - rows[0][1].size - 1]
        for b, (lo, edges) in enumerate(rows):
            p = float(_histogram_chain(ch)[0][b, 0])
            assert p == (ch.f0, ch.f1)[b][0]
            masses = np.diff(np.concatenate([[0], edges, [2**53]])) / 2.0**53
            pmf, whole = exact_binomial_pmf(t, p)
            window = pmf[lo : lo + masses.size]
            assert np.max(np.abs(masses - np.array([x / whole for x in window]))) <= 1e-15, b
            # Hoeffding: the counts left out carry at most 2 e^-50.
            assert (whole - sum(window)) / whole <= 2.0 * math.exp(-50.0)
            assert lo + masses.size - 1 <= t and all(abs(c - t * p) < 5.0 * math.sqrt(t)
                                                     for c in (lo, lo + masses.size - 1))

    def test_counts_have_binomial_mean_and_variance(self):
        ch, t, trials = make_bac(0.9, 0.8), 10**4, 200_000
        bits, counts = first_counts(ch, t, trials, seed=77)
        for b in (0, 1):
            lo, edges = _window_cdf(t, float(_histogram_chain(ch)[0][b, 0]))
            sent = counts[bits == b]
            assert lo <= sent.min() and sent.max() <= lo + edges.size
            p = (ch.f0, ch.f1)[b][0]
            var = t * p * (1.0 - p)
            fourth = var * (1.0 + 3.0 * (t - 2) * p * (1.0 - p))  # central moment
            n = sent.size
            assert abs(sent.mean() - t * p) <= 5.0 * math.sqrt(var / n), b
            assert abs(sent.var(ddof=1) - var) <= 5.0 * math.sqrt((fourth - var**2) / n), b

    def test_huge_count_in_bounded_time(self):
        # 1e10 uses: a window of 1e6 - 1 counts per input, built and
        # searched for 4096 trials in well under a second on two cores.
        ch, t = make_bac(0.9, 0.8), 10**10
        _first_link_table.cache_clear()
        start = time.perf_counter()
        bits, counts = first_counts(ch, t, BLOCK_TRIALS, seed=5)
        assert time.perf_counter() - start < 5.0
        for b in (0, 1):
            p = (ch.f0, ch.f1)[b][0]
            sent = counts[bits == b]
            assert abs(sent.mean() - t * p) <= 5.0 * math.sqrt(t * p * (1.0 - p) / sent.size)
        assert _first_link_table(ch, t).llr.size <= 2 * HISTOGRAM_BUDGET
        _first_link_table.cache_clear()

    def test_window_over_budget_refused_naming_the_bit(self):
        # 1e11 uses need a window of about 3.2e6 counts: refused, not drawn.
        cfg = rb_config(make_bac(0.9, 0.8), pattern([3, 10**11]), trials=10, seed=1)
        with pytest.raises(BudgetExceededError, match="^bit 2: "):
            _squared_errors(cfg)
        with pytest.raises(BudgetExceededError, match="^bit 2: "):
            trial_values(cfg)  # the tilted draw's table has the same window
        with pytest.raises(BudgetExceededError):
            _window_cdf(10**11, 0.5)


# Output 0 reveals input 0 (ln f1(0)/f0(0) = -inf), and the tilted law
# never charges it: every count of symbol 0 but 0 is undrawable there.
REVERSE_Z = ChannelSpec(outputs=(0, 1), f0=(0.3, 0.7), f1=(0.0, 1.0))
PURE_NOISE = ChannelSpec(outputs=(0, 1), f0=(0.4, 0.6), f1=(0.4, 0.6))
TABLE_CHANNELS = [make_bac(0.9, 0.8), Z_CHANNEL, REVERSE_Z, PURE_NOISE, load_channel(CHANNEL3)]
TABLE_IDS = ["bac", "z", "reverse-z", "pure-noise", "channel3"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTableKernel:
    """The per-count tables of the Monte-Carlo kernel against the per-trial
    computation they stand for: the guide lookup against a binary search,
    the raw draws against scaled uniforms, and the gathered values against
    values computed trial by trial, bit for bit."""

    @pytest.mark.parametrize("tilted", [False, True], ids=["channel-laws", "tilted"])
    @pytest.mark.parametrize("t", [1, 7, 20, 1000, 10**6])
    @pytest.mark.parametrize("ch", TABLE_CHANNELS, ids=TABLE_IDS)
    def test_guide_lookup_equals_searchsorted(self, ch, t, tilted):
        table = _first_link_table(ch, t, tilted)
        end = table.base.size << 53  # keys lie in [0, rows 2^53)
        inner = table.keys[table.keys < end]
        rows = np.arange(table.base.size, dtype=np.int64) << 53
        keys = np.concatenate([
            np.random.default_rng(t).integers(0, end, 20_000),
            inner, inner - 1, inner + 1,  # every threshold and its neighbours
            rows, rows + 2**53 - 1,  # 0 and 2^53 - 1 in every row
        ])
        keys = keys[(keys >= 0) & (keys < end)]
        assert np.array_equal(_table_index(table, keys), np.searchsorted(table.keys, keys, side="right"))

    def test_raw_draws_equal_scaled_uniforms(self):
        # random() is the top 53 bits of one raw output times 2^-53, so both
        # give the same integers and leave the generator in the same state,
        # also between the binomial draws of an m-ary channel's links.
        a, b = _block_rng(9, 4), _block_rng(9, 4)
        for size in (1, 3, BLOCK_TRIALS, 5):
            w = (a.random(size) * 2.0**53).astype(np.int64)
            assert w.tolist() == (b.bit_generator.random_raw(size) >> 11).tolist()
            left = np.arange(size) + 3
            assert a.binomial(left, 0.3).tolist() == b.binomial(left, 0.3).tolist()
        np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
        assert a.random(7).tolist() == b.random(7).tolist()

    @pytest.mark.parametrize("tilted", [False, True], ids=["channel-laws", "tilted"])
    def test_first_link_index_is_the_searched_uniform(self, tilted):
        table = _first_link_table(make_bac(0.9, 0.8), 20, tilted)
        row = 0 if tilted else (np.arange(BLOCK_TRIALS) % 3 == 0).astype(np.int8)
        a, b = _block_rng(3, 1), _block_rng(3, 1)
        key = (a.random(BLOCK_TRIALS) * 2.0**53).astype(np.int64) + (np.asarray(row, np.int64) << 53)
        index = _first_link_index(b, BLOCK_TRIALS, table, row)
        assert np.array_equal(index, np.searchsorted(table.keys, key, side="right"))

    @pytest.mark.parametrize("ch", TABLE_CHANNELS, ids=TABLE_IDS)
    def test_table_path_matches_per_trial_reference(self, ch):
        # A full block and a partial one; bit 2 sends nothing, bit 4 is m-ary
        # on channel3 and binary elsewhere.
        counts, trials, seed = [6, 0, 3, 20, 1], BLOCK_TRIALS + 1000, 17
        cfg = rb_config(ch, pattern(counts), trials, seed)
        tilt = _tilt(ch)
        expected = np.full(trials, math.fsum([0.25 * 4.0**-2, 4.0**-5 / 12.0]))
        rngs = [_block_rng(seed, 0), _block_rng(seed, 1)]
        for k, t_k in enumerate(counts, 1):
            if t_k and tilt.cond is not None:
                table = _first_link_table(ch, t_k, True)
                for lo, rng in zip((0, BLOCK_TRIALS), rngs):
                    part = expected[lo : lo + BLOCK_TRIALS]
                    part += _tilted_value(tilt, k, t_k, _draw_llr(rng, part.size, table, 0))
        assert trial_values(cfg).tobytes() == expected.tobytes()

        cfg = SimConfig(channel=ch, pattern=pattern(counts), prior=power_prior(2), trials=trials, seed=seed)
        blocks = []
        for block in (0, 1):
            u, sums = draw_block(cfg, block)
            u_hat = np.full(u.size, 0.5)
            for k, s in sums:
                u_hat += _bit_offset(s, k)
            x, x_hat = from_uniform(cfg.prior, u), from_uniform(cfg.prior, u_hat)
            blocks.append(np.stack([(u_hat - u) ** 2, (x_hat - x) ** 2]))
        assert _squared_errors(cfg).tobytes() == np.concatenate(blocks, axis=1).tobytes()

    @pytest.mark.parametrize("t", [1, 7, 100])
    @pytest.mark.parametrize("ch", [Z_CHANNEL, REVERSE_Z], ids=["z", "reverse-z"])
    def test_undrawable_counts_are_never_gathered(self, ch, t):
        # The table holds every count of the window, also those of zero
        # mass, whose +-inf log-likelihood ratio gives inf - inf in the
        # tilted value. Their bins are empty: no key lands on them.
        tilt = _tilt(ch)
        for tilted in (False, True):
            table = _first_link_table(ch, t, tilted)
            with np.errstate(invalid="ignore"):
                values = _tilted_value(tilt, 1, t, table.llr) if tilted else _bit_offset(table.llr, 1)
            width = np.diff(table.keys[: table.llr.size], prepend=0)
            assert np.all(width[~np.isfinite(values)] == 0)
            if tilted and ch is REVERSE_Z and t > 1:
                assert not np.isfinite(values).all()
        cfg = rb_config(ch, pattern([t, 3, t]), trials=5000, seed=2)
        assert np.isfinite(trial_values(cfg)).all()
        assert np.isfinite(_squared_errors(cfg)).all()

    def test_sweep_reuses_tables(self):
        # q = 140 at n = 30000: more distinct counts per pattern than a
        # cache of 52 tables holds, which then missed on every lookup.
        _first_link_table.cache_clear()
        aurelian_sweep(make_bac(0.9, 0.8), list(range(20000, 30001, 1000)), exact=False, trials=4096)
        info = _first_link_table.cache_info()
        assert info.hits > info.misses > 0
        assert info.entries <= TABLE_CACHE_ENTRIES

    def test_cache_starts_over_at_its_entry_bound(self, monkeypatch):
        monkeypatch.setattr(sim, "TABLE_CACHE_ENTRIES", 5000)
        _first_link_table.cache_clear()
        for t in range(100, 200):
            _first_link_table(make_bac(0.9, 0.8), t, True)
            assert _first_link_table.cache_info().entries <= 5000
        assert _first_link_table.cache_info().tables < 100
        _first_link_table.cache_clear()


class TestAurelianSweep:
    def test_exact_staircase_budgets(self):
        k = info_constants(make_bsc(0.1))
        assert k.r == 2
        # n = r q (q+1) / 2 leaves no remainder: the pure staircase comes back.
        n = k.r * 4 * 5 // 2
        res = aurelian_sweep(make_bsc(0.1), [n])
        assert aurelian(n, k).t == (8, 6, 4, 2)
        assert res.rows[0].t1 == 8 and res.rows[0].q == 4

    def test_distortion_decreases_along_sweep(self):
        # Strict decrease can break exactly when the staircase completes a new
        # level (n = r q (q+1) / 2): the depth jump redistributes budget and D
        # may tick up by ~1% there (n = 110 for this channel). Away from those
        # budgets the decrease is strict, and the overall decay is large.
        k = info_constants(make_bsc(0.1))
        grid = list(range(2, 120, 4))
        completions = {k.r * q * (q + 1) // 2 for q in range(1, 20)}
        res = aurelian_sweep(make_bsc(0.1), grid)
        for prev, cur in zip(res.rows, res.rows[1:]):
            if not any(prev.n < c <= cur.n for c in completions):
                assert cur.distortion < prev.distortion, (prev.n, cur.n)
        assert res.rows[-1].distortion < 1e-4 * res.rows[0].distortion
        assert all(r.lower <= r.distortion <= r.upper + 1e-12 for r in res.rows)

    def test_rate_within_quarter_of_a2_at_large_n(self):
        # ln U / sqrt(n) settles within 25% of -A2 (slow ln q correction).
        ch = make_bsc(0.25)
        res = aurelian_sweep(ch, [5000])
        a2 = res.constants.A2
        assert abs(res.rows[0].log_u_over_sqrt_n + a2) <= 0.25 * a2

    def test_u_rate_trend_is_decreasing(self):
        # ln U / sqrt(n) wiggles slightly where the staircase completes a
        # level, but the doubling-stride trend is strictly downward.
        res = aurelian_sweep(make_bsc(0.25), [500, 1000, 2000, 4000, 5000])
        vals = {r.n: r.log_u_over_sqrt_n for r in res.rows}
        assert vals[500] > vals[1000] > vals[2000] > vals[4000]
        assert vals[500] > vals[5000]

    def test_hundred_trial_argmin_matches_exact(self):
        # Even at 100 trials the estimates separate the 66 patterns: on every
        # seed the Monte-Carlo argmin is the exact one, or its estimate lies
        # within 2 combined standard errors of the exact argmin's estimate.
        from dyadicsearch import enumerate_patterns

        ch = make_bac(0.9, 0.8)
        pats = enumerate_patterns(10, 3)
        best = min(range(len(pats)), key=lambda i: exact_distortion(pats[i], ch))
        for seed in range(1, 9):
            ests = [estimate_distortion(rb_config(ch, p, trials=100, seed=seed)) for p in pats]
            pick = min(range(len(pats)), key=lambda i: ests[i].mean)
            gap = ests[best].mean - ests[pick].mean
            assert pick == best or gap <= 2.0 * math.hypot(ests[best].std_error, ests[pick].std_error), seed

    def test_mc_mode_agrees_with_exact(self):
        ch = make_bsc(0.15)
        exact = aurelian_sweep(ch, [20, 40])
        mc = aurelian_sweep(ch, [20, 40], exact=False, trials=40_000, seed=8)
        for e, m in zip(exact.rows, mc.rows):
            assert abs(m.distortion - e.distortion) <= 3.0 * m.std_error

    def test_increasing_grid_required(self):
        with pytest.raises(ValidationError):
            aurelian_sweep(make_bsc(0.1), [10, 10])


class TestSteppedSweepAgainstPerBudget:
    """The stepped sweep gives the per-budget rows exactly (``==`` on every float)."""

    def test_binary_every_budget_to_5000(self):
        ch = make_bac(0.9, 0.8)
        grid = list(range(info_constants(ch).r, 5001))
        assert aurelian_sweep(ch, grid).rows == per_budget_sweep(ch, grid)

    @pytest.mark.parametrize("eps", [0.05, 0.25])
    def test_bsc_every_budget_to_3000(self, eps):
        ch = make_bsc(eps)
        grid = list(range(info_constants(ch).r, 3001))
        assert aurelian_sweep(ch, grid).rows == per_budget_sweep(ch, grid)

    def test_three_symbol_channel_step_250(self):
        ch = load_channel(str(CHANNEL3))
        grid = list(range(250, 2001, 250))
        assert aurelian_sweep(ch, grid).rows == per_budget_sweep(ch, grid)

    @pytest.mark.parametrize(
        "ch, grid",
        [
            (make_bac(0.9, 0.8), range(7, 5001, 7)),
            (make_bac(0.9, 0.8), range(10, 5001, 10)),
            (make_bsc(0.1), range(10, 3001, 10)),
            (make_bsc(0.25), range(14, 3001, 7)),
            (make_bac(0.9, 0.8), [3, 4, 5, 6, 50, 51, 400, 401, 402, 2000, 20000]),
        ],
        ids=["bac-step-7", "bac-step-10", "bsc-0.1-step-10", "bsc-0.25-step-7", "bac-mixed"],
    )
    def test_sparse_grids(self, ch, grid):
        grid = list(grid)
        assert aurelian_sweep(ch, grid).rows == per_budget_sweep(ch, grid)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_monte_carlo_rows_at_a_fixed_seed(self, jobs):
        ch = make_bsc(0.15)
        grid = list(range(10, 201, 10))
        got = aurelian_sweep(ch, grid, exact=False, trials=9000, seed=5, jobs=jobs)
        assert got.rows == per_budget_sweep(ch, grid, exact=False, trials=9000, seed=5)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        channel_seed=st.integers(0, 2**32 - 1),
        alphabet=st.sampled_from([2, 2, 3]),
        start=st.integers(0, 60),
        steps=st.lists(st.integers(1, 250), min_size=1, max_size=30),
    )
    def test_random_channels_and_grids(self, channel_seed, alphabet, start, steps):
        ch = random_moderate_channel(np.random.default_rng(channel_seed), alphabet=alphabet)
        r = info_constants(ch).r
        grid = [r + start]
        # A ternary bit sums C(t+2, 2) histograms, so ternary grids stay short.
        for step in steps[: 8 if alphabet == 3 else None]:
            grid.append(grid[-1] + step)
        assert aurelian_sweep(ch, grid).rows == per_budget_sweep(ch, grid)


class TestNonuniform:
    def test_uniform_prior_gives_identical_columns(self):
        report = nonuniform_experiment(
            make_bac(0.9, 0.8), uniform_prior(), pattern([6, 3, 1]), trials=5000, seed=21
        )
        assert report.uniform_mse == report.original_mse
        assert report.lipschitz_sq == 1.0
        assert report.inequality_ok

    def test_power_prior_inequality(self):
        report = nonuniform_experiment(
            make_bac(0.9, 0.8), power_prior(2), pattern([6, 3, 1]), trials=100_000, seed=22
        )
        assert report.lipschitz_sq == 4.0
        assert report.inequality_ok
        assert report.margin_mean >= 0.0  # holds pointwise, not just on average

    def test_empty_pattern_prior_distortion(self):
        report = nonuniform_experiment(
            make_bsc(0.1), power_prior(2), pattern([]), trials=50_000, seed=23
        )
        # The uniform-domain decoder outputs 1/2 every trial.
        assert report.uniform_mse == pytest.approx(1.0 / 12.0, abs=3.0 * report.uniform_se)
        assert report.inequality_ok

    def test_worker_count_invariance(self):
        args = (make_bsc(0.1), power_prior(2), pattern([4, 2]))
        r1 = nonuniform_experiment(*args, trials=20_000, seed=3, jobs=1)
        r3 = nonuniform_experiment(*args, trials=20_000, seed=3, jobs=3)
        assert r1 == r3
