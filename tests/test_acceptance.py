"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion is one test that prints a PASS/FAIL line (visible with
`pytest tests/test_acceptance.py -v -s`). Tolerances are pinned here:

  1. 66-pattern grid, U-side sandwich hard at 1e-12, L-side reported;
     exact-argmin vs the quoted (6,3,1) documented, < 60 s.
  2. 500 random (pattern, channel) pairs, n <= 30: D <= U hard (1e-12),
     D >= L soft with logged exceptions, < 120 s.
  3. 20 configs, 1e5 trials each: |MC - exact| <= 3 stderr, < 300 s.
  4. n <= 15, depth <= 6, 10 random channels: exhaustive minimizer passes the
     structural checks; greedy equals exhaustive everywhere.
  5. exact staircase sweep to n = 5000: (a) ln(D_n)/sqrt(n) >= -A1 on the
     whole grid, (b) ln(U_n)/sqrt(n) in [-A2, -0.75 A2] at n = 5000,
     (c) ln(D_n)/sqrt(n) < -0.5 A2 by n = 5000; D_300/D_0 reported for the
     (0.9, 0.8) channel.
  6. martingale identity at 1e-12, pointwise variance contraction on a grid,
     prior base cases 1/12 and 1/4 exact.
  7. power-2 prior, pattern (6,3,1), 1e5 trials: uniform-domain distortion
     <= 4 x original within 3 combined standard errors.
  8. byte-identical CSVs across repeated runs, worker counts and processes.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dyadicsearch import (
    SimConfig,
    assemble_log_distortion,
    aurelian,
    aurelian_sweep,
    b_functional,
    chernoff_information,
    check_efficient_properties,
    depth_bounds,
    efficient_search,
    estimate_distortion,
    exact_distortion,
    info_constants,
    load_channel,
    log_bit_variances,
    lower_bound,
    make_bac,
    make_bsc,
    nonuniform_experiment,
    pattern,
    power_prior,
    uniform_prior,
    upper_bound,
)
from dyadicsearch.cli import main

from conftest import bit_variance, random_channel, random_moderate_channel
from oracles import PosteriorState, conditional_distortion, log_ratio, posterior_update
from test_cli import read_csv

U_SIDE_TOL = 1e-12
L_SIDE_TOL = 1e-12
MARTINGALE_TOL = 1e-12
MC_SIGMA = 3.0
SWEEP_CHANNEL_EPS = 0.25  # r = 9: both finite-n rate windows attainable
FIG2_CHANNEL = (0.9, 0.8)
QUOTED_OPTIMUM = (6, 3, 1)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_figure_grid(tmp_path):
    start = time.perf_counter()
    rc = main(
        ["fig2", "--channel", "bac:0.9,0.8", "--n", "10", "--depth", "3",
         "--trials", "20000", "--seed", "20260810", "--out", str(tmp_path)]
    )
    assert rc == 0
    _, header, rows = read_csv(tmp_path / "fig2.csv")
    iL, iU, iD = header.index("L"), header.index("U"), header.index("exact_d")
    u_violations = [r for r in rows if float(r[iD]) > float(r[iU]) + U_SIDE_TOL]
    l_violations = [r for r in rows if float(r[iD]) < float(r[iL]) - L_SIDE_TOL]
    exact_argmin = min(rows, key=lambda r: float(r[iD]))[header.index("pattern")]
    elapsed = time.perf_counter() - start
    matches = exact_argmin == ",".join(str(x) for x in QUOTED_OPTIMUM)
    print(
        f"  finding: exact-D argmin is ({exact_argmin}); "
        f"{'matches' if matches else 'differs from'} the quoted optimum (6,3,1)"
    )
    if l_violations:
        print(f"  finding: {len(l_violations)} lower-bound exceptions (reported, not asserted)")
    report(
        1,
        len(rows) == 66 and not u_violations and elapsed < 60.0,
        f"66 patterns, U-side sandwich at {U_SIDE_TOL}, "
        f"L-side exceptions: {len(l_violations)}, {elapsed:.1f}s",
    )


def test_criterion_2_sandwich_500_random_pairs():
    start = time.perf_counter()
    gen = np.random.default_rng(505)
    u_bad, l_bad = [], []
    for _ in range(500):
        ch = random_channel(gen, alphabet=int(gen.integers(2, 5)), min_mass=0.01)
        C = chernoff_information(ch).nats
        B = b_functional(ch)
        n = int(gen.integers(0, 31))
        depth = int(gen.integers(1, 7))
        t = pattern(gen.multinomial(n, np.ones(depth) / depth).tolist())
        d = exact_distortion(t, ch)
        if d > upper_bound(t, C) + U_SIDE_TOL:
            u_bad.append((t.t, ch))
        if B >= C and d < lower_bound(t, B) - L_SIDE_TOL:
            l_bad.append((t.t, ch))
    elapsed = time.perf_counter() - start
    for t, ch in l_bad:
        print(f"  lower-bound exception (logged, soft): pattern {t} on {ch.describe()}")
    report(
        2,
        not u_bad and elapsed < 120.0,
        f"500 pairs, U-side hard: {len(u_bad)} violations, "
        f"L-side soft: {len(l_bad)} exceptions, {elapsed:.1f}s",
    )


def test_criterion_3_exact_vs_monte_carlo():
    start = time.perf_counter()
    channels = [make_bsc(0.1), make_bsc(0.2), make_bsc(0.3), make_bac(*FIG2_CHANNEL), make_bac(0.85, 0.7)]
    patterns = [pattern(p) for p in ([6, 3, 1], [10, 5, 2, 1], [15, 10, 5], [2, 1])]
    worst = 0.0
    failures = []
    for ch in channels:
        for pat in patterns:
            cfg = SimConfig(
                channel=ch, pattern=pat, prior=uniform_prior(), trials=100_000, seed=314159
            )
            est = estimate_distortion(cfg, jobs=2)
            exact = exact_distortion(pat, ch)
            z = abs(est.mean - exact) / est.std_error
            worst = max(worst, z)
            if z > MC_SIGMA:
                failures.append((ch.describe(), pat.t, z))
    elapsed = time.perf_counter() - start
    report(
        3,
        not failures and elapsed < 300.0,
        f"20 configs x 1e5 trials, worst |z| = {worst:.2f} (limit {MC_SIGMA}), {elapsed:.1f}s",
    )


def test_criterion_4_efficient_structure():
    gen = np.random.default_rng(404)
    checked = 0
    for _ in range(10):
        ch = random_moderate_channel(gen)
        k = info_constants(ch)
        for n in range(1, 16):
            best = efficient_search(n, k.C, mode="exhaustive", max_depth=6)
            greedy = efficient_search(n, k.C, mode="greedy")
            assert greedy.t == best.t, (ch.describe(), n, greedy.t, best.t)
            assert check_efficient_properties(best, k.r_real).ok, (ch.describe(), n, best.t)
            assert depth_bounds(best, k.r).ok, (ch.describe(), n, best.t)
            checked += 1
    report(4, checked == 150, f"{checked} (n, channel) cases: greedy == exhaustive, checks pass")


def test_criterion_5_asymptotic_rate():
    ch = make_bsc(SWEEP_CHANNEL_EPS)
    k = info_constants(ch)
    grid = list(range(k.r, 240)) + list(range(250, 5001, 25))
    res = aurelian_sweep(ch, grid)
    a1, a2 = res.constants.A1, res.constants.A2

    below_a1 = [r.n for r in res.rows if r.log_d_over_sqrt_n < -a1]
    last = res.rows[-1]
    assert last.n == 5000
    in_window = -a2 <= last.log_u_over_sqrt_n <= -0.75 * a2
    trend = last.log_d_over_sqrt_n < -0.5 * a2

    # Reported (not asserted): the quoted ~300-transmission decode horizon on
    # the figure channel, the same channel's rate window, and the
    # staircase-vs-efficient log-distortion ratio alongside A1/A2.
    fig2 = make_bac(*FIG2_CHANNEL)
    kf = info_constants(fig2)
    fig2_sweep = aurelian_sweep(fig2, [300, 5000])
    d300_ratio = fig2_sweep.rows[0].d_over_d0
    fig2_u_rate = fig2_sweep.rows[1].log_u_over_sqrt_n
    print(
        f"  finding: D_300/D_0 = {d300_ratio:.3e} on bac:0.9,0.8 "
        f"({'<' if d300_ratio < 1e-3 else '>='} 1e-3, reported only)"
    )
    print(
        f"  finding: bac:0.9,0.8 ln(U_5000)/sqrt(n) = {fig2_u_rate:.4f} vs -A2 = {-kf.A2:.4f}: "
        f"{'inside' if -kf.A2 <= fig2_u_rate <= -0.75 * kf.A2 else 'outside'} the finite-n window "
        "(r_real = 3.99 makes floor(r) = 3 maximally lossy; reported only)"
    )
    d_eff = exact_distortion(efficient_search(5000, k.C, mode="greedy"), ch)
    ratio = math.log(last.distortion) / math.log(d_eff)
    print(
        f"  finding: ln(D_aurelian)/ln(D_efficient) at n=5000 is {ratio:.4f}; "
        f"A1/A2 = {a1 / a2:.4f} (reported only)"
    )
    report(
        5,
        not below_a1 and in_window and trend,
        f"bsc:{SWEEP_CHANNEL_EPS} grid of {len(grid)} budgets: "
        f"(a) min ln(D)/sqrt(n) = {min(r.log_d_over_sqrt_n for r in res.rows):.4f} >= -A1 = {-a1:.4f}; "
        f"(b) ln(U_5000)/sqrt(n) = {last.log_u_over_sqrt_n:.4f} in [{-a2:.4f}, {-0.75 * a2:.4f}]; "
        f"(c) ln(D_5000)/sqrt(n) = {last.log_d_over_sqrt_n:.4f} < {-0.5 * a2:.4f}",
    )


@pytest.mark.parametrize("spec", ["bsc:0.05", "bsc:0.1", "bsc:0.25", "bac:0.9,0.8"])
def test_exact_rates_approach_their_limits(spec):
    # Exact ln D / sqrt(n): greedy's tends to -sqrt(2 C ln4), the staircase's
    # to -A2, and each gets closer at every step of 1e5..1e8. (Below 1e5 it
    # need not: bsc:0.25 greedy reads -0.62984 at 1e4 and -0.62912 at 1e5.)
    ch = load_channel(spec)
    k = info_constants(ch)
    rules = {
        "greedy": (lambda n: efficient_search(n, k.C), -math.sqrt(2.0 * k.C * math.log(4.0))),
        "aurelian": (lambda n: aurelian(n, k), -k.A2),
    }
    for rule, (policy, limit) in rules.items():
        gaps = []
        for n in (10**5, 10**6, 10**7, 10**8):
            log_d = assemble_log_distortion(log_bit_variances(policy(n).t, ch))
            gaps.append(abs(log_d / math.sqrt(n) - limit))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (rule, gaps)


def test_criterion_6_decoder_unit_properties():
    gen = np.random.default_rng(606)
    # Martingale identity by exact summation.
    worst = 0.0
    for _ in range(100):
        ch = random_channel(gen, alphabet=int(gen.integers(2, 5)))
        p = float(gen.random())
        mean = math.fsum(
            (p * ch.f1[i] + (1.0 - p) * ch.f0[i]) * posterior_update(p, y, ch)
            for i, y in enumerate(ch.outputs)
        )
        worst = max(worst, abs(mean - p))
    martingale_ok = worst <= MARTINGALE_TOL

    # Pointwise variance contraction on a dense grid.
    contraction_ok = True
    for _ in range(25):
        ch = random_channel(gen, alphabet=3, min_mass=0.01)
        for p in np.linspace(1e-4, 1.0 - 1e-4, 60):
            for y in ch.outputs:
                p2 = posterior_update(float(p), y, ch)
                floor = p * (1.0 - p) * math.exp(-abs(log_ratio(ch, y)))
                if p2 * (1.0 - p2) < floor * (1.0 - 1e-12):
                    contraction_ok = False

    base_ok = (
        conditional_distortion(PosteriorState(())) == 1.0 / 12.0
        and conditional_distortion(PosteriorState((0.5, 0.5, 0.5, 0.5))) == 1.0 / 12.0
        and bit_variance(0, make_bsc(0.1)) == 0.25
    )
    report(
        6,
        martingale_ok and contraction_ok and base_ok,
        f"martingale max |E[p'] - p| = {worst:.2e} (tol {MARTINGALE_TOL}), "
        f"pointwise contraction on grid: {contraction_ok}, base cases 1/12 and 1/4 exact: {base_ok}",
    )


def test_criterion_7_nonuniform_prior():
    rep = nonuniform_experiment(
        make_bac(*FIG2_CHANNEL), power_prior(2), pattern([6, 3, 1]),
        trials=100_000, seed=777,
    )
    ok = rep.margin_mean >= -MC_SIGMA * rep.margin_se
    report(
        7,
        ok and rep.inequality_ok,
        f"power-2 prior, 1e5 trials: uniform {rep.uniform_mse:.5g} <= "
        f"4 x original = {4.0 * rep.original_mse:.5g} "
        f"(margin {rep.margin_mean:.3g} +- {rep.margin_se:.2g})",
    )


def test_criterion_8_determinism(tmp_path):
    # Same seed and config: byte-identical CSVs across repeated in-process
    # runs, different worker counts, and a separate OS process.
    fig2_args = ["fig2", "--channel", "bac:0.9,0.8", "--trials", "8000", "--seed", "11"]
    assert main(fig2_args + ["--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert main(fig2_args + ["--out", str(tmp_path / "b"), "--jobs", "4"]) == 0
    # The separate process imports this checkout's src/, whether or not a
    # copy of the package is installed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "dyadicsearch.cli", *fig2_args, "--out", str(tmp_path / "c"), "--jobs", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    ref = (tmp_path / "a" / "fig2.csv").read_bytes()
    fig2_ok = ref == (tmp_path / "b" / "fig2.csv").read_bytes() == (tmp_path / "c" / "fig2.csv").read_bytes()

    fig3_args = ["fig3", "--channel", "bsc:0.15", "--n-max", "60", "--step", "10",
                 "--mode", "mc", "--trials", "6000", "--seed", "5"]
    assert main(fig3_args + ["--out", str(tmp_path / "d"), "--jobs", "1"]) == 0
    assert main(fig3_args + ["--out", str(tmp_path / "e"), "--jobs", "3"]) == 0
    fig3_ok = (tmp_path / "d" / "fig3.csv").read_bytes() == (tmp_path / "e" / "fig3.csv").read_bytes()

    non_args = ["nonuniform", "--channel", "bsc:0.2", "--prior", "power:2",
                "--pattern", "6,3,1", "--trials", "6000", "--seed", "9"]
    assert main(non_args + ["--out", str(tmp_path / "f"), "--jobs", "1"]) == 0
    assert main(non_args + ["--out", str(tmp_path / "g"), "--jobs", "4"]) == 0
    non_ok = (tmp_path / "f" / "nonuniform.csv").read_bytes() == (tmp_path / "g" / "nonuniform.csv").read_bytes()

    for cmd, name in ((["info", "--channel", "bac:0.9,0.8"], "info.csv"),
                      (["policy", "--channel", "bsc:0.1", "--n", "12", "--rule", "greedy"], "policy.csv")):
        assert main(cmd + ["--out", str(tmp_path / "h1")]) == 0
        assert main(cmd + ["--out", str(tmp_path / "h2")]) == 0
        assert (tmp_path / "h1" / name).read_bytes() == (tmp_path / "h2" / name).read_bytes()

    report(
        8,
        fig2_ok and fig3_ok and non_ok,
        "byte-identical CSVs for fig2 (jobs 1/4 + subprocess), fig3-mc (jobs 1/3), "
        "nonuniform (jobs 1/4), info and policy reruns",
    )
