"""CLI behavior: outputs, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicsearch import aurelian, cli, decoder, info_constants, load_channel, make_bac, policy
from dyadicsearch.cli import _pattern_summary, main
from dyadicsearch.decoder import exact_bit_variance
from dyadicsearch.policy import _staircase_walk, pattern

from conftest import bench_reference
from test_sim import per_budget_sweep

CHANNEL3 = Path(__file__).resolve().parents[1] / "bench" / "channel3.json"


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


class TestInfo:
    def test_constants_table(self, tmp_path):
        rc = main(["info", "--channel", "bsc:0.1", "--out", str(tmp_path)])
        assert rc == 0
        comments, header, rows = read_csv(tmp_path / "info.csv")
        assert header == ["constant", "value"]
        values = {r[0]: float(r[1]) for r in rows}
        assert values["C"] == pytest.approx(0.5108256237659907, abs=1e-12)
        assert values["B"] == pytest.approx(math.log(9.0), abs=1e-12)
        assert values["r"] == 2
        assert any("schema" in c for c in comments)
        assert (tmp_path / "manifest-info.json").exists()

    def test_degenerate_channel_rejected(self, tmp_path, capsys):
        rc = main(["info", "--channel", "bsc:0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "degenerate" in capsys.readouterr().err

    def test_preset_alias(self, tmp_path):
        assert main(["info", "--preset", "bac:0.9,0.8", "--out", str(tmp_path)]) == 0

    def test_quoted_constants_note(self, tmp_path, capsys):
        main(["info", "--channel", "bac:0.9,0.8", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "0.77" in out and "2.08" in out
        manifest = json.loads((tmp_path / "manifest-info.json").read_text())
        assert manifest["findings"]["quoted_constants"] == {"C": 0.77, "B": 2.08}

    def test_unknown_preset(self, tmp_path, capsys):
        assert main(["info", "--channel", "zchan:0.1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"preset": "bac", "p00": "abc", "p11": 0.8}',
            '{"preset": "bac", "p00": null, "p11": 0.8}',
            '{"outputs": [0, 1], "f0": ["x", 0.5], "f1": [0.5, 0.5]}',
            '{"outputs": 5, "f0": [0.5, 0.5], "f1": [0.2, 0.8]}',
            '{"outputs": [[0], [1]], "f0": [0.5, 0.5], "f1": [0.2, 0.8]}',
            '{"outputs": [0, 1, 2], "f0": [NaN, 0.5, 0.5], "f1": [0.3, 0.2, 0.5]}',
        ],
        ids=["preset-not-a-number", "preset-null", "mass-not-a-number", "outputs-not-a-list",
             "outputs-unhashable", "mass-nan"],
    )
    def test_bad_channel_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "channel.json"
        path.write_text(text, encoding="utf-8")
        assert main(["info", "--channel", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_disjoint_supports_exit_2(self, tmp_path, capsys):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(EDGE_CHANNEL_FILES["disjoint-3"]), encoding="utf-8")
        assert main(["info", "--channel", str(path), "--out", str(tmp_path)]) == 2
        assert "cannot form r: C=inf" in capsys.readouterr().err

    def test_out_is_an_existing_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n", encoding="utf-8")
        assert main(["info", "--channel", "bsc:0.1", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n", encoding="utf-8")
        below = target / "sub"
        assert main(["info", "--channel", "bsc:0.1", "--out", str(below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(below) in err


class TestFig2:
    def test_sixty_six_rows_and_argmins(self, tmp_path):
        rc = main(
            ["fig2", "--channel", "bac:0.9,0.8", "--trials", "2000", "--seed", "7",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig2.csv")
        assert len(rows) == 66
        assert header[:6] == ["pattern", "L", "U", "exact_d", "mc_mean", "mc_stderr"]
        for col in ("argmin_l", "argmin_u", "argmin_exact", "argmin_mc"):
            marks = [int(r[header.index(col)]) for r in rows]
            assert sum(marks) == 1
        ranks = [int(r[header.index("rank")]) for r in rows]
        assert sorted(ranks) == list(range(1, 67))
        best = ranks.index(1)
        assert rows[best][header.index("argmin_exact")] == "1"
        manifest = json.loads((tmp_path / "manifest-fig2.json").read_text())
        assert manifest["findings"]["argmin_u"] == "7,3"
        assert manifest["findings"]["argmin_exact"] == "6,3,1"
        assert manifest["findings"]["exact_argmin_matches_reference"] is True

    def test_bounds_sandwich_in_output(self, tmp_path):
        main(["fig2", "--channel", "bac:0.9,0.8", "--trials", "500", "--seed", "3",
              "--out", str(tmp_path)])
        _, header, rows = read_csv(tmp_path / "fig2.csv")
        iL, iU, iD = header.index("L"), header.index("U"), header.index("exact_d")
        for r in rows:
            assert float(r[iL]) <= float(r[iD]) <= float(r[iU]) + 1e-12

    def test_eight_symbol_channel_sums_every_row(self, tmp_path):
        # An 8-symbol bit of at most 10 uses has at most C(17, 7) = 19 448
        # rows; the formula sums its exact value on a few hundred nodes.
        ch = tmp_path / "eight.json"
        ch.write_text(json.dumps(EDGE_CHANNEL_FILES["random-8"]))
        assert main(["fig2", "--channel", str(ch), "--trials", "200", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "fig2.csv")
        exact = [float(r[header.index("exact_d")]) for r in rows]
        assert len(rows) == 66 and all(0.0 < d < 1.0 / 12.0 for d in exact)

    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fig2", "--channel", "bac:0.9,0.8", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestFig3:
    def test_exact_sweep_columns(self, tmp_path):
        # bsc:0.25 sits in the regime where ln(D_n)/sqrt(n) >= -A1 already
        # holds at every swept budget (for noisier-than-not channels the ratio
        # dips below -A1 near n = r before sqrt(n) grows).
        rc = main(
            ["fig3", "--channel", "bsc:0.25", "--n-max", "200", "--step", "20",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig3.csv")
        assert header[0] == "n" and "log_d_over_sqrt_n" in header
        d = [float(r[header.index("d")]) for r in rows]
        assert all(a > b for a, b in zip(d, d[1:]))
        neg_a1 = float(rows[0][header.index("neg_a1")])
        for r in rows:
            assert float(r[header.index("log_d_over_sqrt_n")]) >= neg_a1

    def test_manifest_reports_per_run_oracle_cache(self, tmp_path):
        exact_bit_variance.cache_clear()
        argv = ["fig3", "--channel", "bac:0.9,0.8", "--n-max", "400", "--step", "10"]
        stats = []
        for run in ("first", "second"):
            assert main([*argv, "--out", str(tmp_path / run)]) == 0
            manifest = json.loads((tmp_path / run / "manifest-fig3.json").read_text())
            stats.append(manifest["findings"]["oracle_cache"])
        # The sweep looks up only the bits each budget step changes.
        k = info_constants(make_bac(0.9, 0.8))
        lookups = sum(len(changed) for *_, changed, _ in _staircase_walk(range(10, 401, 10), k))
        assert stats[0]["misses"] > 0
        assert stats[0]["hits"] + stats[0]["misses"] == lookups
        assert stats[1] == {"hits": lookups, "misses": 0}
        assert (tmp_path / "first" / "fig3.csv").read_bytes() == (tmp_path / "second" / "fig3.csv").read_bytes()

    @pytest.mark.parametrize(
        "channel, step, n_max",
        [("bac:0.9,0.8", 1, 600), (str(CHANNEL3), 250, 2000)],
        ids=["bac-step-1", "channel3-step-250"],
    )
    def test_exact_rows_are_the_per_budget_rows(self, tmp_path, channel, step, n_max):
        # Each CSV row is a per-budget row, rebuilt from scratch at its
        # budget, and the floats -A1 and -A2, as csv.writer writes them.
        assert main(["fig3", "--channel", channel, "--n-max", str(n_max), "--step", str(step),
                     "--out", str(tmp_path)]) == 0
        ch = load_channel(channel)
        k = info_constants(ch)
        grid = [n for n in range(step, n_max + 1, step) if n >= k.r]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["n", "q", "t1", "d", "d_stderr", "u", "l", "log_d_over_sqrt_n",
                         "log_u_over_sqrt_n", "d_over_d0", "neg_a1", "neg_a2"])
        writer.writerows([*row, -k.A1, -k.A2] for row in per_budget_sweep(ch, grid))
        lines = (tmp_path / "fig3.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert "".join(l for l in lines if not l.startswith("#")) == want.getvalue()

    def test_manifest_records_phase_times(self, tmp_path):
        assert main(["fig3", "--channel", "bsc:0.25", "--n-max", "200", "--step", "20",
                     "--out", str(tmp_path)]) == 0
        phases = json.loads((tmp_path / "manifest-fig3.json").read_text())["phase_s"]
        assert sorted(phases) == ["sweep", "write"]
        assert all(isinstance(v, float) and v >= 0.0 for v in phases.values())

    def test_oracle_passes_stay_within_the_pattern_budget(self, tmp_path, monkeypatch):
        # The 8 budgets of channel3.json to 2000 share one block, whose
        # distinct counts sum 116 052 nodes; each step's own sum at most
        # 32 843. Under a pattern budget of 50 000 the gate refuses the
        # block's counts together, so each step is looked up as its own
        # pattern: each oracle pass stays within the budget, and the CSV and
        # the cache counts stay the same.
        argv = ["fig3", "--channel", str(CHANNEL3), "--n-max", "2000", "--step", "250"]
        exact_bit_variance.cache_clear()
        assert main([*argv, "--out", str(tmp_path / "whole")]) == 0
        passes = []
        real_sums = decoder._mary_sums

        def counted(ts, law, rho):
            passes.append(int(decoder._terms(ts, law, rho).sum()))
            return real_sums(ts, law, rho)

        monkeypatch.setattr(decoder, "PATTERN_HISTOGRAM_BUDGET", 50_000)
        monkeypatch.setattr(decoder, "_mary_sums", counted)
        exact_bit_variance.cache_clear()
        assert main([*argv, "--out", str(tmp_path / "split")]) == 0
        assert len(passes) > 1 and max(passes) <= 50_000
        assert sum(passes) == 116_052  # every distinct count summed once
        whole, split = (tmp_path / run for run in ("whole", "split"))
        assert (split / "fig3.csv").read_bytes() == (whole / "fig3.csv").read_bytes()
        cache = [json.loads((run / "manifest-fig3.json").read_text())["findings"]["oracle_cache"]
                 for run in (whole, split)]
        assert cache[0] == cache[1]
        # A budget below one step's own terms still refuses that step,
        # before any of the block is summed.
        monkeypatch.setattr(decoder, "PATTERN_HISTOGRAM_BUDGET", 30_000)
        exact_bit_variance.cache_clear()
        passes.clear()
        assert main([*argv, "--out", str(tmp_path / "refused")]) == 3
        assert passes == []

    def test_channel3_past_the_full_row_budget(self, tmp_path):
        # The sweep's bits reach t = 1460, whose 1 069 453 ternary rows pass
        # the per-bit budget; the formula sums a few thousand nodes a bit.
        argv = ["fig3", "--channel", str(CHANNEL3), "--n-max", "200000", "--step", "10000",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        _, _, rows = read_csv(tmp_path / "fig3.csv")
        assert len(rows) == 20 and all(float(r[3]) > 0.0 for r in rows)

    def test_six_symbol_sweep_held_to_the_node_budget(self, tmp_path, monkeypatch, capsys):
        # A 6-symbol bit has C(t + 5, 5) rows, 1.2e8 at t = 93; the formula
        # sums a few thousand nodes, so the sweep exits 0. Under a per-bit
        # budget of its bits' most nodes it still does; under one fewer it
        # exits 3, and the refused bit's nodes are never evaluated.
        ch = tmp_path / "six.json"
        ch.write_text(json.dumps({"outputs": list(range(6)),
                                  "f0": [0.3, 0.2, 0.15, 0.15, 0.1, 0.1],
                                  "f1": [0.1, 0.1, 0.15, 0.2, 0.2, 0.25]}))
        argv = ["fig3", "--channel", str(ch), "--n-max", "2000", "--step", "250"]
        start = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "all")]) == 0
        assert time.perf_counter() - start < 5.0
        consts = info_constants(load_channel(str(ch)))
        ts = np.array(sorted({tk for n in range(250, 2001, 250) for tk in aurelian(n, consts).t}))
        law = decoder._window_law(load_channel(str(ch)))
        nodes = decoder._terms(ts, law, decoder._first_rho(ts, law))
        evaluated, real = [], decoder._fourier_sums
        monkeypatch.setattr(decoder, "_fourier_sums", lambda ts, law, g: evaluated.append(g) or real(ts, law, g))
        monkeypatch.setattr(decoder, "HISTOGRAM_BUDGET", int(nodes.max()))
        exact_bit_variance.cache_clear()
        assert main([*argv, "--out", str(tmp_path / "at")]) == 0
        monkeypatch.setattr(decoder, "HISTOGRAM_BUDGET", int(nodes.max()) - 1)
        exact_bit_variance.cache_clear()
        evaluated.clear()
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "past")]) == 3
        assert f"{nodes.max()} terms, over the {nodes.max() - 1} budget of one bit" in capsys.readouterr().err
        assert all(g.width.sum() < nodes.max() for g in evaluated)
        exact_bit_variance.cache_clear()

    def test_mc_mode_requires_seed(self, tmp_path, capsys):
        rc = main(["fig3", "--channel", "bsc:0.1", "--n-max", "50", "--step", "10",
                   "--mode", "mc", "--out", str(tmp_path)])
        assert rc == 2

    def test_mc_mode_row_at_2000_agrees_with_exact(self, tmp_path):
        # The Rao-Blackwell sum this estimator replaced cancelled below zero
        # here (-4.6e-18 against an exact 1.30e-18) and the command exited 3.
        argv = ["fig3", "--channel", "bac:0.9,0.8", "--n-max", "2000", "--trials", "8192",
                "--seed", "1"]
        for step in ("2000", "500"):
            out = tmp_path / f"mc-{step}"
            assert main(argv + ["--step", step, "--mode", "mc", "--out", str(out)]) == 0
        assert main(argv + ["--step", "2000", "--mode", "exact", "--out", str(tmp_path / "exact")]) == 0
        _, header, (mc,) = read_csv(tmp_path / "mc-2000" / "fig3.csv")
        _, _, (exact,) = read_csv(tmp_path / "exact" / "fig3.csv")
        d, se, d_exact = (float(row[header.index(c)]) for row, c in ((mc, "d"), (mc, "d_stderr"), (exact, "d")))
        assert 0.0 < se and abs(d - d_exact) <= 3.0 * se
        _, _, rows = read_csv(tmp_path / "mc-500" / "fig3.csv")
        assert rows[-1] == mc

    def test_exact_mode_refuses_underflowed_row(self, tmp_path):
        # D and U at n = 1e6 lie below the smallest double (ln D is about
        # -875): the row prints 0.0 there, and its log columns come from the
        # log-domain sums, against the benchmark's independent reference.
        rc = main(["fig3", "--channel", "bac:0.9,0.8", "--mode", "exact", "--n-max", "1000000",
                   "--step", "500000", "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig3.csv")
        ch = make_bac(0.9, 0.8)
        k, ref = info_constants(ch), bench_reference(ch)
        assert [r[header.index("n")] for r in rows] == ["500000", "1000000"]
        assert [float(rows[1][header.index(c)]) for c in ("d", "u")] == [0.0, 0.0]
        for row in rows:
            n = int(row[header.index("n")])
            t = list(aurelian(n, k).t)
            for col, log_ref in (("log_d_over_sqrt_n", ref.log_distortion(t)),
                                 ("log_u_over_sqrt_n", ref.log_upper(t))):
                assert float(row[header.index(col)]) == pytest.approx(log_ref / math.sqrt(n), rel=1e-12)

    def test_exact_mode_refuses_pattern_over_histogram_budget(self, tmp_path, capsys, monkeypatch):
        # aurelian(1e11)'s histograms sum to about 1e11 full rows and about
        # 1.4e7 windowed ones: on a pattern budget of 1e6 rows it is refused up
        # front, not enumerated.
        monkeypatch.setattr(decoder, "PATTERN_HISTOGRAM_BUDGET", 10**6)
        start = time.perf_counter()
        rc = main(["fig3", "--channel", "bsc:0.1", "--mode", "exact", "--n-max", "100000000000",
                   "--step", "100000000000", "--out", str(tmp_path)])
        assert rc == 3
        assert time.perf_counter() - start < 20.0
        assert "terms exceed" in capsys.readouterr().err

    def test_grid_over_pattern_budget_refused_before_it_is_built(self, tmp_path, capsys):
        start = time.perf_counter()
        rc = main(["fig3", "--channel", "bac:0.9,0.8", "--n-max", "100000000000", "--step", "1",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: too many budgets") and "Traceback" not in err
        assert not (tmp_path / "fig3.csv").exists()

    def test_grid_of_exactly_the_pattern_budget_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(policy, "PATTERN_BUDGET", 100)
        argv = ["fig3", "--channel", "bac:0.9,0.8", "--step", "1", "--out", str(tmp_path)]
        assert main([*argv, "--n-max", "100"]) == 0
        assert main([*argv, "--n-max", "101"]) == 3

    def test_mc_mode_runs(self, tmp_path):
        rc = main(["fig3", "--channel", "bsc:0.1", "--n-max", "40", "--step", "20",
                   "--mode", "mc", "--trials", "2000", "--seed", "5", "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "fig3.csv")
        assert all(float(r[header.index("d_stderr")]) > 0.0 for r in rows)


class TestPolicy:
    def test_aurelian_unit_staircase(self, tmp_path, capsys):
        rc = main(["policy", "--channel", "bsc:0.05", "--n", "10", "--rule", "aurelian",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "policy.csv")
        assert rows[0][header.index("pattern")] == "4,3,2,1"
        d = float(rows[0][header.index("exact_d")])
        assert float(rows[0][header.index("L")]) <= d <= float(rows[0][header.index("U")])

    def test_exhaustive_equals_greedy(self, tmp_path):
        for rule in ("greedy", "exhaustive:6"):
            main(["policy", "--channel", "bsc:0.1", "--n", "12", "--rule", rule,
                  "--out", str(tmp_path / rule.replace(":", "_"))])
        _, h1, r1 = read_csv(tmp_path / "greedy" / "policy.csv")
        _, h2, r2 = read_csv(tmp_path / "exhaustive_6" / "policy.csv")
        assert r1[0][h1.index("pattern")] == r2[0][h2.index("pattern")]

    def test_manifest_reports_per_run_oracle_cache(self, tmp_path):
        exact_bit_variance.cache_clear()
        argv = ["policy", "--channel", "bsc:0.05", "--n", "10", "--rule", "aurelian"]
        stats = []
        for run in ("first", "second"):
            assert main([*argv, "--out", str(tmp_path / run)]) == 0
            manifest = json.loads((tmp_path / run / "manifest-policy.json").read_text())
            stats.append(manifest["findings"]["oracle_cache"])
        # Pattern 4,3,2,1: four distinct counts, all looked up once per run.
        assert stats == [{"hits": 0, "misses": 4}, {"hits": 4, "misses": 0}]

    def test_log_values_match_reference(self, tmp_path, capsys):
        # At n = 999983 D, U and L are below the double range; ln D is
        # printed and ln D, ln U and ln L are recorded.
        assert main(["policy", "--channel", "bac:0.9,0.8", "--n", "999983", "--rule", "greedy",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        findings = json.loads((tmp_path / "manifest-policy.json").read_text())["findings"]
        _, header, rows = read_csv(tmp_path / "policy.csv")
        t = [int(x) for x in rows[0][header.index("pattern")].split(",")]
        ref = bench_reference(make_bac(0.9, 0.8))
        assert f"exact_d=0.0  ln_exact_d={findings['ln_exact_d']!r}" in out
        assert findings["ln_exact_d"] == pytest.approx(ref.log_distortion(t), rel=1e-12)
        assert findings["ln_U"] == pytest.approx(ref.log_upper(t), rel=1e-12)
        assert findings["ln_L"] == pytest.approx(ref.log_lower(t), rel=1e-12)

    def test_manifest_records_underflowed_values(self, tmp_path):
        runs = {
            "greedy-1e6": (["--channel", "bac:0.9,0.8", "--n", "999983", "--rule", "greedy"],
                           ["U", "L", "exact_d"]),
            "unit-staircase": (["--channel", "bsc:0.05", "--n", "10", "--rule", "aurelian"], []),
        }
        for name, (argv, expected) in runs.items():
            assert main(["policy", *argv, "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / name / "manifest-policy.json").read_text())
            assert manifest["findings"]["underflow"] == expected, name
            _, header, rows = read_csv(tmp_path / name / "policy.csv")
            assert [rows[0][header.index(c)] for c in expected] == ["0.0"] * len(expected)

    def test_budget_refusal_exit_code(self, tmp_path):
        rc = main(["policy", "--channel", "bsc:0.1", "--n", "200",
                   "--rule", "exhaustive:6", "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("channel", ["bsc:0.1", "bac:0.9,0.8"])
    @pytest.mark.parametrize("rule", ["greedy", "aurelian"])
    def test_pattern_deeper_than_budget_exits_3(self, tmp_path, capsys, channel, rule):
        # At n = 1e15 both rules reach more than 2e7 bits on these channels.
        start = time.perf_counter()
        rc = main(["policy", "--channel", channel, "--n", "1000000000000000", "--rule", rule,
                   "--out", str(tmp_path)])
        assert rc == 3
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: too many bits in the pattern") and "Traceback" not in err

    @pytest.mark.parametrize("rule", ["greedy", "aurelian"])
    def test_budget_of_2_to_53_sums_exactly(self, tmp_path, rule):
        # On a near-pure-noise channel 2^53 uses fill about 1600 bits; every
        # count stays exact, and the structural checks pass.
        n = 2**53
        assert main(["policy", "--channel", "bsc:0.49999", "--n", str(n), "--rule", rule,
                     "--out", str(tmp_path)]) == 0
        csv.field_size_limit(10**7)
        _, header, rows = read_csv(tmp_path / "policy.csv")
        assert sum(map(int, rows[0][header.index("pattern")].split(","))) == n
        assert [rows[0][header.index(c)] for c in ("no_gap", "spacing")] == ["1", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["policy", "--channel", "bsc:0.49999", "--rule", "greedy", "--n", str(2**53 + 1)],
            ["policy", "--channel", "bsc:0.49999", "--rule", "aurelian", "--n", str(2**53 + 1)],
            ["policy", "--channel", "bsc:0.49999", "--rule", "greedy", "--n", "20000000000000000000"],
            ["fig3", "--channel", "bsc:0.49999", "--n-max", str(2**53 + 1), "--step", str(2**53 + 1)],
            ["fig3", "--channel", "bsc:0.1", "--n-max", str(2**60), "--step", str(2**50)],
        ],
        ids=["greedy", "aurelian", "greedy-1e19", "fig3-one-budget", "fig3-grid"],
    )
    def test_budget_past_2_to_53_exits_3(self, tmp_path, capsys, argv):
        # Past 2^53 the fill's double keys would place uses that do not sum
        # to n; such a budget is refused before any pattern is built.
        assert main([*argv, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: too many uses") and "2^53" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_pattern_over_histogram_budget_keeps_bounds(self, tmp_path, capsys, monkeypatch):
        # On a pattern budget of 1e6 rows, aurelian(1e11) (about 1.4e7
        # windowed rows) gets no exact D: the bounds are printed and exact_d
        # is left empty.
        monkeypatch.setattr(decoder, "PATTERN_HISTOGRAM_BUDGET", 10**6)
        start = time.perf_counter()
        rc = main(["policy", "--channel", "bsc:0.1", "--n", "100000000000", "--rule", "aurelian",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert time.perf_counter() - start < 20.0
        out = capsys.readouterr().out
        assert "U=" in out and "exact_d=" not in out
        manifest = json.loads((tmp_path / "manifest-policy.json").read_text())
        assert manifest["findings"]["oracle_cache"] == {"hits": 0, "misses": 0}
        assert "ln_exact_d" not in manifest["findings"] and "ln_U" in manifest["findings"]

    def test_exact_d_at_1e11(self, tmp_path, capsys):
        # Each windowed bit sums at most 43 rows on bsc:0.1, so the
        # 316 227 bits of aurelian(1e11) get an exact ln D inside the bounds.
        exact_bit_variance.cache_clear()
        start = time.perf_counter()
        rc = main(["policy", "--channel", "bsc:0.1", "--n", "100000000000", "--rule", "aurelian",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert time.perf_counter() - start < 20.0
        findings = json.loads((tmp_path / "manifest-policy.json").read_text())["findings"]
        assert f"ln_exact_d={findings['ln_exact_d']!r}" in capsys.readouterr().out
        assert math.isfinite(findings["ln_exact_d"])
        assert findings["ln_L"] <= findings["ln_exact_d"] <= findings["ln_U"]

    def test_long_pattern_stdout_bounded(self, tmp_path, capsys):
        # q = 316227: stdout and the manifest show q and the first and last
        # five counts; the CSV keeps every count, and the manifest its digest.
        rc = main(["policy", "--channel", "bsc:0.1", "--n", "100000000000", "--rule", "aurelian",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 4096
        full = aurelian(10**11, info_constants(load_channel("bsc:0.1"))).t
        shown = ",".join(map(str, [*full[:5], "...", *full[-5:]]))
        assert f"pattern ({shown}) depth q={len(full)}" in out
        # The pattern cell is past csv's default field size limit.
        data = (tmp_path / "policy.csv").read_text().splitlines()[-1]
        assert data.split('"')[1] == ",".join(map(str, full))
        findings = json.loads((tmp_path / "manifest-policy.json").read_text())["findings"]
        assert (findings["pattern"], findings["q"]) == (shown, len(full))
        assert findings["pattern_sha256"] == hashlib.sha256(data.split('"')[1].encode()).hexdigest()
        # Up to 20 counts stdout shows the whole pattern.
        assert _pattern_summary(pattern(range(20, 0, -1))) == ",".join(map(str, range(20, 0, -1)))
        assert _pattern_summary(pattern(range(21, 0, -1))) == "21,20,19,18,17,...,5,4,3,2,1"

    def test_unknown_rule(self, tmp_path):
        rc = main(["policy", "--channel", "bsc:0.1", "--n", "5", "--rule", "magic",
                   "--out", str(tmp_path)])
        assert rc == 2


class TestNonuniform:
    def test_uniform_prior_columns_equal(self, tmp_path):
        rc = main(["nonuniform", "--channel", "bac:0.9,0.8", "--prior", "uniform",
                   "--pattern", "6,3,1", "--trials", "3000", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "nonuniform.csv")
        row = rows[0]
        assert row[header.index("uniform_mse")] == row[header.index("original_mse")]
        assert row[header.index("inequality_ok")] == "1"

    def test_power_prior_verdict(self, tmp_path):
        rc = main(["nonuniform", "--channel", "bac:0.9,0.8", "--prior", "power:2",
                   "--pattern", "6,3,1", "--trials", "5000", "--seed", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "nonuniform.csv")
        assert float(rows[0][header.index("lipschitz_sq")]) == 4.0
        assert rows[0][header.index("inequality_ok")] == "1"

    @pytest.mark.parametrize("pattern, flagged", [("50,30,20", False), ("50,30,21", True)])
    def test_flags_patterns_past_the_checked_range(self, tmp_path, capsys, pattern, flagged):
        # Past 100 uses a non-uniform estimate has not been checked against
        # the exact oracle: the manifest and stderr say so; the CSV, stdout
        # and exit code are those of the run without the flag.
        argv = ["nonuniform", "--channel", "bac:0.9,0.8", "--pattern", pattern,
                "--trials", "2000", "--seed", "3"]
        runs = {}
        for prior in ("power:2", "uniform"):
            out = tmp_path / prior.replace(":", "")
            assert main([*argv, "--prior", prior, "--out", str(out)]) == 0
            std = capsys.readouterr()
            findings = json.loads((out / "manifest-nonuniform.json").read_text())["findings"]
            runs[prior] = std, findings, (out / "nonuniform.csv").read_bytes()
        (out, err), findings, _ = runs["power:2"]
        warnings = [line for line in err.splitlines() if line.startswith("warning: ")]
        assert len(warnings) == int(flagged) and err == "".join(w + "\n" for w in warnings)
        if flagged:
            assert findings["outside_checked_range"] == {"uses": 101, "checked_up_to": 100}
            assert "101 uses" in warnings[0]
        else:
            assert "outside_checked_range" not in findings
        assert "outside_checked_range" not in runs["uniform"][1] and runs["uniform"][0].err == ""
        monkeypatched = tmp_path / "unflagged"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_NONUNIFORM_CHECKED_USES", 10**6)
            assert main([*argv, "--prior", "power:2", "--out", str(monkeypatched)]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert out.replace(str(tmp_path / "power2"), "OUT") == plain.out.replace(str(monkeypatched), "OUT")
        assert runs["power:2"][2] == (monkeypatched / "nonuniform.csv").read_bytes()

    def test_count_over_sampler_budget_exits_3(self, tmp_path, capsys):
        # 1e11 uses of bit 1 need a first-link window of about 3.2e6 counts.
        rc = main(["nonuniform", "--channel", "bac:0.9,0.8", "--prior", "uniform",
                   "--pattern", "100000000000,3", "--trials", "100", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: bit 1: ") and "Traceback" not in err
        assert not (tmp_path / "nonuniform.csv").exists()

    def test_misdeclared_lipschitz_rejected_at_load(self, tmp_path, capsys):
        prior_file = tmp_path / "prior.json"
        prior_file.write_text('{"prior": "power", "exponent": 2, "lipschitz_sq": 1.0}')
        rc = main(["nonuniform", "--channel", "bsc:0.1", "--prior", str(prior_file),
                   "--pattern", "3,1", "--trials", "100", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "lipschitz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prior, file_text",
        [
            ("power:abc", None),
            ("power:nan", None),
            ("file", '{"prior": "power", "exponent": 2'),
            ("file", '{"prior": "power", "exponent": "abc"}'),
        ],
        ids=["power-not-a-number", "power-nan", "file-invalid-json", "file-exponent-not-a-number"],
    )
    def test_bad_prior_exits_2(self, tmp_path, capsys, prior, file_text):
        if file_text is not None:
            prior = str(tmp_path / "prior.json")
            Path(prior).write_text(file_text, encoding="utf-8")
        rc = main(["nonuniform", "--channel", "bsc:0.1", "--prior", prior,
                   "--pattern", "3,1", "--trials", "100", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_pattern(self, tmp_path):
        rc = main(["nonuniform", "--channel", "bsc:0.1", "--prior", "uniform",
                   "--pattern", "3,x", "--trials", "100", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["fig2", "--n", "3", "--depth", "2", "--trials", "50", "--seed", "1"],
        ["fig3", "--n-max", "20", "--step", "10"],
        ["fig3", "--n-max", "20", "--step", "10", "--mode", "mc", "--trials", "50", "--seed", "1"],
        ["nonuniform", "--prior", "power:2", "--pattern", "2,1", "--trials", "50", "--seed", "1"],
    ],
    ids=["fig2", "fig3-exact", "fig3-mc", "nonuniform"],
)
def test_jobs_below_one_exits_2(tmp_path, capsys, argv, jobs):
    rc = main(argv + ["--channel", "bac:0.9,0.8", "--jobs", jobs, "--out", str(tmp_path)])
    assert rc == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["fig2", "--n", "3", "--depth", "2", "--trials", "50", "--seed", "1"],
        ["fig3", "--n-max", "20", "--step", "10"],
        ["policy", "--n", "10", "--rule", "aurelian"],
        ["nonuniform", "--prior", "power:2", "--pattern", "2,1", "--trials", "50", "--seed", "1"],
    ],
    ids=["info", "fig2", "fig3", "policy", "nonuniform"],
)
def test_manifest_records_the_environment(tmp_path, argv):
    assert main(argv + ["--channel", "bac:0.9,0.8", "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("manifest-*.json")
    env = json.loads(path.read_text())["environment"]
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "cpus": os.cpu_count()}


class TestSharedParser:
    """``main`` builds its parser once per process; parsing leaves it as it was."""

    def test_three_runs_build_one_tree(self, tmp_path):
        cli.build_parser.cache_clear()
        for n in ("10", "11", "12"):
            argv = ["policy", "--channel", "bsc:0.1", "--n", n, "--rule", "greedy"]
            assert main(argv + ["--out", str(tmp_path)]) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_no_argument_leaks_into_the_next_run(self, tmp_path):
        first = ["fig3", "--channel", "bsc:0.1", "--n-max", "20", "--step", "10",
                 "--mode", "mc", "--trials", "50", "--seed", "5", "--out", str(tmp_path / "a")]
        second = ["fig3", "--channel", "bsc:0.1", "--n-max", "20", "--step", "10",
                  "--mode", "exact", "--out", str(tmp_path / "b")]
        assert main(first) == 0 and main(second) == 0
        manifests = [json.loads((tmp_path / d / "manifest-fig3.json").read_text()) for d in "ab"]
        assert [m["seed"] for m in manifests] == [5, None]
        assert [m["command"] for m in manifests] == [first, second]
        assert manifests[1]["config"]["mode"] == "exact"

    def test_usage_error_leaves_the_tree_intact(self, tmp_path, capsys):
        argv = ["policy", "--channel", "bac:0.9,0.8", "--n", "100000", "--rule", "aurelian"]
        assert main(argv + ["--out", str(tmp_path / "before")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["policy", "--n", "100000", "--rule", "aurelian", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert "--channel" in capsys.readouterr().err
        assert main(argv + ["--out", str(tmp_path / "after")]) == 0
        before, after = ((tmp_path / d / "policy.csv").read_bytes() for d in ("before", "after"))
        assert before == after

    def test_commands_are_looked_up_per_call(self, tmp_path, monkeypatch):
        argv = ["info", "--channel", "bsc:0.1", "--out", str(tmp_path)]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_info", lambda args: seen.append(args.argv_echo) or 0)
        assert main(argv) == 0 and seen == [argv]

    def test_import_builds_nothing(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import dyadicsearch.cli as c; print(c.build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"


class TestDeterminism:
    def test_fig2_byte_identical_across_runs_and_jobs(self, tmp_path):
        args = ["fig2", "--channel", "bac:0.9,0.8", "--trials", "5000", "--seed", "99"]
        main(args + ["--out", str(tmp_path / "a"), "--jobs", "1"])
        main(args + ["--out", str(tmp_path / "b"), "--jobs", "3"])
        assert (tmp_path / "a" / "fig2.csv").read_bytes() == (tmp_path / "b" / "fig2.csv").read_bytes()

    def test_nonuniform_byte_identical(self, tmp_path):
        args = ["nonuniform", "--channel", "bsc:0.2", "--prior", "power:2",
                "--pattern", "5,2,1", "--trials", "6000", "--seed", "4"]
        main(args + ["--out", str(tmp_path / "a"), "--jobs", "1"])
        main(args + ["--out", str(tmp_path / "b"), "--jobs", "4"])
        assert (tmp_path / "a" / "nonuniform.csv").read_bytes() == (tmp_path / "b" / "nonuniform.csv").read_bytes()


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stderr and wall time of one in-process CLI run; argparse's
    usage errors arrive as ``SystemExit`` and any other exception escapes."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue(), time.perf_counter() - start


def mostly(valid, bad):
    """An argument drawn from ``valid`` three times in four, else from ``bad``."""
    return st.one_of(valid, valid, valid, bad)


malformed = st.sampled_from(["", "x", "1.5", "1e3", "-", "nan", " 7"])
huge = st.sampled_from([10**9, 10**10, 10**11, 10**12])
count_arg = mostly(st.integers(0, 12) | huge, st.integers(-3, -1) | malformed).map(str)
trials_arg = mostly(st.integers(1, 40), st.integers(-2, 0) | malformed).map(str)
seed_arg = mostly(
    st.integers(0, 3) | st.just(2**64 - 1), st.sampled_from([-1, 2**64]) | malformed
).map(str)


def dirichlet_masses(rng: np.random.Generator, m: int) -> list[float]:
    return rng.dirichlet(np.ones(m)).tolist()


_EDGE_RNG = np.random.default_rng(22)
EDGE_CHANNEL_FILES = {
    "zero-mass-symbol": {"outputs": [0, 1, 2], "f0": [0.5, 0.5, 0.0], "f1": [0.2, 0.3, 0.5]},
    "z-channel": {"outputs": [0, 1], "f0": [1.0, 0.0], "f1": [0.3, 0.7]},
    "disjoint-2": {"outputs": [0, 1], "f0": [1.0, 0.0], "f1": [0.0, 1.0]},
    "disjoint-3": {"outputs": [0, 1, 2], "f0": [0.5, 0.5, 0.0], "f1": [0.0, 0.0, 1.0]},
    "near-noiseless": {"outputs": [0, 1], "f0": [1 - 1e-12, 1e-12], "f1": [1e-12, 1 - 1e-12]},
    "near-noiseless-1e-300": {"outputs": [0, 1], "f0": [1.0, 1e-300], "f1": [1e-300, 1.0]},
    "tiny-masses-3": {"outputs": [0, 1, 2], "f0": [1e-300, 0.5, 0.5], "f1": [0.5, 1e-300, 0.5]},
    "pure-noise": {"outputs": [0, 1], "f0": [0.5, 0.5], "f1": [0.5, 0.5]},
    "near-pure-noise-2": {"outputs": [0, 1], "f0": [0.5, 0.5], "f1": [0.5 + 1e-9, 0.5 - 1e-9]},
    "near-pure-noise-3": {"outputs": [0, 1, 2], "f0": [0.33, 0.33, 0.34], "f1": [0.3301, 0.3299, 0.34]},
    **{
        f"random-{m}": {"outputs": list(range(m)), "f0": dirichlet_masses(_EDGE_RNG, m),
                        "f1": dirichlet_masses(_EDGE_RNG, m)}
        for m in range(2, 9)
    },
    "invalid-json": "{not json",
    "empty-file": "",
    "json-list": "[]",
    "nan-mass": '{"outputs": [0, 1], "f0": [NaN, 0.5], "f1": [0.2, 0.8]}',
    "short-masses": {"outputs": [0, 1], "f0": [0.5], "f1": [0.5, 0.5]},
    "masses-not-summing-to-1": {"outputs": [0, 1], "f0": [0.6, 0.6], "f1": [0.2, 0.8]},
    "one-symbol": {"outputs": [0], "f0": [1.0], "f1": [1.0]},
    "unhashable-symbols": {"outputs": [[0], [1]], "f0": [0.5, 0.5], "f1": [0.2, 0.8]},
}
EDGE_COMMANDS = [
    ["info"],
    ["fig2", "--trials", "200", "--seed", "1"],
    ["fig3", "--mode", "exact", "--n-max", "2000", "--step", "250"],
    ["fig3", "--mode", "exact", "--n-max", "1000000", "--step", "100000"],
    ["policy", "--n", "1000", "--rule", "greedy"],
    ["policy", "--n", "1000000", "--rule", "aurelian"],
]


@pytest.mark.parametrize("name", EDGE_CHANNEL_FILES)
def test_edge_channel_files_exit_cleanly(tmp_path, name):
    # Zero masses, disjoint supports, near-noiseless and near-pure-noise
    # masses, 2 to 8 symbols and malformed files, through every command
    # that reads a channel, at n up to 1e6: each run exits 0, 2 or 3 within
    # 30 s, never with a traceback, and fig2's small grid on a random
    # channel of up to 8 symbols exits 0.
    spec = EDGE_CHANNEL_FILES[name]
    path = tmp_path / "channel.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec), encoding="utf-8")
    for command in EDGE_COMMANDS:
        rc, err, seconds = run_cli([*command, "--channel", str(path), "--out", str(tmp_path / "out")])
        assert rc in (0, 2, 3), (command, rc, err)
        assert rc == 0 or not (name.startswith("random-") and command[0] == "fig2"), err
        assert "Traceback" not in err
        assert seconds < 30.0, (command, seconds)


EDGE_PRIOR_FILES = {
    "invalid-utf8": b"\xff\xfe{}",
    "invalid-json": '{"prior": "power", "exponent": 2',
    "json-array": "[]",
    "prior-not-a-name": '{"prior": 5}',
    "missing-exponent": '{"prior": "power"}',
    **{
        f"exponent-{name}": f'{{"prior": "power", "exponent": {value}}}'
        for name, value in (("abc", '"abc"'), ("nan", "NaN"), ("inf", "Infinity"), ("0.5", "0.5"))
    },
    **{
        f"lipschitz-{value}": f'{{"prior": "power", "exponent": 2, "lipschitz_sq": {value}}}'
        for value in ("0.5", "-1", "NaN", "Infinity", "null")
    },
}
EDGE_PRIOR_STRINGS = ["uniform:3", "power:1,2", "power:", "power:inf", "cauchy:1"]


@pytest.mark.parametrize("name", ["directory", "missing-path", *EDGE_PRIOR_FILES, *EDGE_PRIOR_STRINGS])
def test_edge_prior_inputs_exit_cleanly(tmp_path, name):
    # A directory, a missing path, malformed files, out-of-range and
    # non-finite numbers and malformed preset strings: each run exits 2 with
    # an error line, never a traceback, within 30 s; only a null declared
    # lipschitz_sq, which means the derived e^2, exits 0.
    prior = {"directory": str(tmp_path), "missing-path": str(tmp_path / "missing.json")}.get(name, name)
    if name in EDGE_PRIOR_FILES:
        spec = EDGE_PRIOR_FILES[name]
        path = tmp_path / "prior.json"
        path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
        prior = str(path)
    rc, err, seconds = run_cli([
        "nonuniform", "--channel", "bac:0.9,0.8", "--prior", prior, "--pattern", "6,3,1",
        "--trials", "50", "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert rc == (0 if name == "lipschitz-null" else 2), (rc, err)
    assert rc == 0 or err.startswith("error: "), err
    assert "Traceback" not in err
    assert seconds < 30.0


class TestMonteCarloCommandContract:
    """Malformed and extreme arguments of the Monte-Carlo commands: every run
    ends in exit 0, 2 or 3 within bounded time, never in a traceback."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        entries=st.lists(count_arg, max_size=4),
        trials=trials_arg,
        seed=seed_arg,
        jobs=st.integers(1, 3),
        prior=st.sampled_from(["uniform", "power:2"]),
    )
    @example(entries=["10000000000", "3"], trials="40", seed="1", jobs=2, prior="uniform")
    @example(entries=["0", "100000000000"], trials="5", seed="0", jobs=1, prior="power:2")
    @example(entries=["1000000000000"], trials="1", seed="3", jobs=3, prior="uniform")
    def test_nonuniform(self, entries, trials, seed, jobs, prior):
        with tempfile.TemporaryDirectory() as out:
            rc, err, seconds = run_cli([
                "nonuniform", "--channel", "bac:0.9,0.8", "--prior", prior,
                "--pattern", ",".join(entries), "--trials", trials,
                "--seed", seed, "--jobs", str(jobs), "--out", out,
            ])
        assert rc in (0, 2, 3), (rc, err)
        assert "Traceback" not in err
        assert seconds < 30.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        n=count_arg,
        depth=mostly(st.integers(1, 3), st.integers(-1, 0)).map(str),
        trials=trials_arg,
        seed=seed_arg,
        jobs=st.integers(1, 3),
    )
    @example(n="10000000000", depth="1", trials="40", seed="1", jobs=2)
    @example(n="1000000000000", depth="1", trials="5", seed="2", jobs=1)
    @example(n="10000000000", depth="2", trials="5", seed="2", jobs=1)
    @example(n="12", depth="3", trials="40", seed=str(2**64 - 1), jobs=3)
    def test_fig2(self, n, depth, trials, seed, jobs):
        with tempfile.TemporaryDirectory() as out:
            rc, err, seconds = run_cli([
                "fig2", "--channel", "bsc:0.25", "--n", n, "--depth", depth,
                "--trials", trials, "--seed", seed, "--jobs", str(jobs), "--out", out,
            ])
        assert rc in (0, 2, 3), (rc, err)
        assert "Traceback" not in err
        assert seconds < 30.0
