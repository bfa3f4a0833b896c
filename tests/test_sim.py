"""Monte-Carlo estimators against the exact oracle, plus reproducibility."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicsearch import (
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
from dyadicsearch.sim import PRIOR_DISTORTION

from conftest import random_moderate_channel

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


class TestFigureGridAgreement:
    def test_mc_matches_exact_on_all_66_patterns(self):
        from dyadicsearch import enumerate_patterns

        ch = make_bac(0.9, 0.8)
        for pat in enumerate_patterns(10, 3):
            est = estimate_distortion(rb_config(ch, pat, trials=20_000, seed=1234))
            exact = exact_distortion(pat, ch)
            assert abs(est.mean - exact) <= 3.0 * max(est.std_error, 1e-15), str(pat)


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

    def test_hundred_trial_argmin_is_seed_dependent(self):
        # At 100 trials the per-pattern estimates overlap, so the empirical
        # argmin over the 66 patterns moves with the seed.
        from dyadicsearch import enumerate_patterns

        ch = make_bac(0.9, 0.8)
        pats = enumerate_patterns(10, 3)
        argmins = set()
        for seed in range(1, 9):
            means = [
                estimate_distortion(rb_config(ch, p, trials=100, seed=seed)).mean
                for p in pats
            ]
            argmins.add(pats[int(np.argmin(means))].t)
        assert len(argmins) >= 2

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
