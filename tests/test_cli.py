"""CLI behavior: outputs, exit codes, determinism."""

import csv
import json
import math
import time
from pathlib import Path

import pytest

from dyadicsearch import info_constants, make_bac
from dyadicsearch.cli import main
from dyadicsearch.decoder import exact_bit_variance
from dyadicsearch.policy import aurelian_steps


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
        lookups = sum(len(changed) for _, changed in aurelian_steps(range(10, 401, 10), k))
        assert stats[0]["misses"] > 0
        assert stats[0]["hits"] + stats[0]["misses"] == lookups
        assert stats[1] == {"hits": lookups, "misses": 0}
        assert (tmp_path / "first" / "fig3.csv").read_bytes() == (tmp_path / "second" / "fig3.csv").read_bytes()

    def test_mc_mode_requires_seed(self, tmp_path, capsys):
        rc = main(["fig3", "--channel", "bsc:0.1", "--n-max", "50", "--step", "10",
                   "--mode", "mc", "--out", str(tmp_path)])
        assert rc == 2

    def test_mc_mode_refuses_nonpositive_estimate(self, tmp_path, capsys):
        # At n = 2000 the Rao-Blackwell sum cancels below zero on this channel.
        rc = main(["fig3", "--channel", "bac:0.9,0.8", "--mode", "mc", "--n-max", "2000",
                   "--step", "2000", "--trials", "8192", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "n=2000" in err and "--mode exact" in err
        assert not (tmp_path / "fig3.csv").exists()

    def test_exact_mode_refuses_underflowed_row(self, tmp_path, capsys):
        # D and U at n = 1e6 lie below the smallest double (ln D is about
        # -875); ln D there needs a log-domain oracle, so the row is refused.
        rc = main(["fig3", "--channel", "bac:0.9,0.8", "--mode", "exact", "--n-max", "1000000",
                   "--step", "500000", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "n=1000000" in err and "log-domain" in err
        assert not (tmp_path / "fig3.csv").exists()

    def test_exact_mode_refuses_pattern_over_histogram_budget(self, tmp_path, capsys):
        # Every bit of aurelian(1e11) is under the per-bit budget, but their
        # histograms sum to about 1e11 rows: refused up front, not enumerated.
        start = time.perf_counter()
        rc = main(["fig3", "--channel", "bsc:0.1", "--mode", "exact", "--n-max", "100000000000",
                   "--step", "100000000000", "--out", str(tmp_path)])
        assert rc == 3
        assert time.perf_counter() - start < 20.0
        assert "histograms exceed" in capsys.readouterr().err

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

    def test_pattern_over_histogram_budget_keeps_bounds(self, tmp_path, capsys):
        # aurelian(1e10) needs about 1e10 histogram rows for exact D: the
        # bounds are printed and exact_d is left empty.
        start = time.perf_counter()
        rc = main(["policy", "--channel", "bsc:0.1", "--n", "10000000000", "--rule", "aurelian",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert time.perf_counter() - start < 20.0
        out = capsys.readouterr().out
        assert "U=" in out and "exact_d=" not in out
        manifest = json.loads((tmp_path / "manifest-policy.json").read_text())
        assert manifest["findings"]["oracle_cache"] == {"hits": 0, "misses": 0}

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
