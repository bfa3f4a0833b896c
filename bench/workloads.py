"""The benchmark's three workloads: operations, checks and per-operation counts.

Each workload turns the seed into rounds of operations. ``run`` is the timed
part; ``check`` runs untimed after it and compares the program's output with
``reference.py``. A run always executes whole rounds, so every run of a
workload does the same mix of work.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import random
from collections import Counter
from pathlib import Path

from reference import Reference, close, histogram_count, single_move_optimal, staircase_floor

TARGET_REL_SE = 0.01  # Monte-Carlo accuracy every mc-accuracy operation reaches
Z_LIMIT = 5.0  # |estimate - exact| allowed, in standard errors
BLOCK = 4096  # trials per simulator block, the smallest estimate made
PILOT_TRIALS = 4 * BLOCK
SLACK = 1e-12  # relative rounding allowance on inequalities between printed values
GOLDEN = (5**0.5 - 1) / 2


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def pattern_of(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


class Workload:
    """Shared plumbing: the program's state, the CLI, the oracle cache."""

    name = ""
    tail_pct = 75
    min_ops = 40

    def __init__(self, state: dict, seed: int, out_dir: Path, bench_dir: Path, traced: bool):
        self.ds = state["ds"]
        self.state = state
        self.rng = random.Random(seed)
        self.seed = seed
        self.out = out_dir
        self.bench = bench_dir
        self.traced = traced
        self.devnull = open(os.devnull, "w", encoding="utf-8")

    def close(self) -> None:
        self.devnull.close()

    def cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(self.devnull):
            code = self.ds.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dyadicsearch {' '.join(argv)} exited with {code}")

    def _oracle(self):
        return self.ds.decoder.exact_bit_variance

    def clear_oracle(self) -> None:
        clear = getattr(self._oracle(), "cache_clear", None)
        if clear is not None:
            clear()

    def oracle_counts(self) -> tuple[int, int]:
        info = getattr(self._oracle(), "cache_info", None)
        if info is None:
            return 0, 0
        i = info()
        return i.hits, i.misses


def reference_for(ch) -> Reference:
    return Reference(list(ch.f0), list(ch.f1))


class ExactSweep(Workload):
    """Two cold-cache ``fig3 --mode exact`` runs per operation."""

    name = "exact-sweep"
    SAMPLED_ROWS = 16

    def __init__(self, *args):
        super().__init__(*args)
        s = self.state
        self.halves = [
            dict(channel="bac:0.9,0.8", n_max=5000, step=1, ch=s["bac"], consts=s["bac_consts"],
                 out=self.out / "binary", sample=self.SAMPLED_ROWS),
            dict(channel=str(self.bench / "channel3.json"), n_max=2000, step=250, ch=s["ch3"],
                 consts=s["ch3_consts"], out=self.out / "ternary", sample=None),
        ]
        for h in self.halves:
            h["ref"] = reference_for(h["ch"])
            h["m"] = len(h["ch"].outputs)
            h["n"] = [n for n in range(h["step"], h["n_max"] + 1, h["step"]) if n >= h["ref"].r]
        self._histograms = None

    def round(self, r: int) -> list:
        return [r]

    def run(self, spec) -> dict:
        cache = []
        for h in self.halves:
            self.clear_oracle()
            self.cli(["fig3", "--channel", h["channel"], "--n-max", str(h["n_max"]),
                      "--step", str(h["step"]), "--mode", "exact", "--out", str(h["out"])])
            cache.append(self.oracle_counts())
        return {"cache": cache}

    def check(self, spec, out) -> tuple[list[str], Counter]:
        problems: list[str] = []
        counts = Counter()
        for h, (hits, misses) in zip(self.halves, out["cache"]):
            path = h["out"] / "fig3.csv"
            counts["cli.csv_bytes"] += path.stat().st_size
            counts["decoder.cache_hits"] += hits
            counts["decoder.cache_misses"] += misses
            problems += self._check_sweep(h, read_csv(path))
        if self.traced:
            counts["decoder.histograms"] += self._sweep_histograms()
        return problems, counts

    def _check_sweep(self, h: dict, rows: list[dict]) -> list[str]:
        ref = h["ref"]
        tag = h["channel"].rsplit("/", 1)[-1]
        if [int(row["n"]) for row in rows] != h["n"]:
            return [f"{tag}: budget column differs from {h['step']}..{h['n_max']}"]
        problems = []
        for row in rows:
            n, d, u, l = int(row["n"]), float(row["d"]), float(row["u"]), float(row["l"])
            if not (0.0 < d and l <= d * (1 + SLACK) and d <= u * (1 + SLACK)):
                problems.append(f"{tag} n={n}: L <= D <= U fails ({l!r}, {d!r}, {u!r})")
            if float(row["d_stderr"]) != 0.0:
                problems.append(f"{tag} n={n}: exact row carries a standard error")
            if not (math.isclose(-float(row["neg_a1"]), ref.A1, rel_tol=1e-9)
                    and math.isclose(-float(row["neg_a2"]), ref.A2, rel_tol=1e-9)):
                problems.append(f"{tag} n={n}: A1/A2 differ from the reference")
            if not (math.isclose(float(row["log_d_over_sqrt_n"]), math.log(d) / math.sqrt(n), rel_tol=1e-12)
                    and math.isclose(float(row["d_over_d0"]), 12.0 * d, rel_tol=1e-12)):
                problems.append(f"{tag} n={n}: derived columns disagree with d")
        picks = range(len(rows)) if h["sample"] is None else self.rng.sample(range(len(rows)), h["sample"])
        for i in picks:
            problems += self._check_row(h, rows[i], tag)
        return problems

    def _check_row(self, h: dict, row: dict, tag: str) -> list[str]:
        ref = h["ref"]
        n, q = int(row["n"]), int(row["q"])
        t = list(self.ds.aurelian(n, h["consts"]).t)
        problems = []
        if sum(t) != n or len(t) != q or t[0] != int(row["t1"]):
            problems.append(f"{tag} n={n}: row q/t1 do not match a staircase pattern of {n} uses")
        if not staircase_floor(t, n, ref.r):
            problems.append(f"{tag} n={n}: staircase floor t_k >= (q-k+1) r fails")
        for col, log_ref in (("d", ref.log_distortion(t)), ("u", ref.log_upper(t)), ("l", ref.log_lower(t))):
            if not close(float(row[col]), log_ref):
                problems.append(f"{tag} n={n}: {col}={row[col]} but the reference gives {math.exp(log_ref)!r}")
        return problems

    def _sweep_histograms(self) -> int:
        # Each distinct t_k in the sweep is one cold-cache oracle evaluation.
        if self._histograms is None:
            total = 0
            for h in self.halves:
                ts = {tk for n in h["n"] for tk in self.ds.aurelian(n, h["consts"]).t}
                total += sum(histogram_count(tk, h["m"]) for tk in ts if tk > 0)
            self._histograms = total
        return self._histograms


class PolicyAlloc(Workload):
    """One ``policy`` run per operation at a seeded budget in [1e5, 1e6]."""

    name = "policy-alloc"
    STRATA = 20
    LOG10_LOW, LOG10_HIGH = 5.0, 6.0
    JITTER = 0.02

    def __init__(self, *args):
        super().__init__(*args)
        self.ref = reference_for(self.state["bac"])
        self.dir = self.out / "policy"

    def round(self, r: int) -> list:
        # One budget in each log-spaced stratum, at a place that moves by the
        # golden ratio from round to round, so the operations of a run cover
        # the range evenly instead of repeating a few budgets; rules alternate
        # between strata and swap every round. The seed moves each budget by
        # up to 2 %: every seed gets its own patterns, every run the same mix.
        width = (self.LOG10_HIGH - self.LOG10_LOW) / self.STRATA
        place = (0.5 + r * GOLDEN) % 1.0
        specs = []
        for i in range(self.STRATA):
            n = 10.0 ** (self.LOG10_LOW + (i + place) * width)
            n = round(n * (1.0 + self.JITTER * (2.0 * self.rng.random() - 1.0)))
            specs.append((n, "greedy" if (i + r) % 2 == 0 else "aurelian"))
        self.rng.shuffle(specs)
        return specs

    def run(self, spec) -> dict:
        n, rule = spec
        self.clear_oracle()
        self.cli(["policy", "--channel", "bac:0.9,0.8", "--n", str(n), "--rule", rule,
                  "--out", str(self.dir)])
        return {"cache": self.oracle_counts()}

    def check(self, spec, out) -> tuple[list[str], Counter]:
        n, rule = spec
        ref = self.ref
        path = self.dir / "policy.csv"
        (row,) = read_csv(path)
        t = pattern_of(row["pattern"])
        q = len(t)
        tag = f"{rule} n={n}"
        problems = []
        if row["rule"] != rule or int(row["n"]) != n or sum(t) != n or int(row["q"]) != q:
            problems.append(f"{tag}: pattern does not spend the budget (sum {sum(t)}, q {row['q']})")
        if rule == "greedy":
            if not single_move_optimal(t, ref.C):
                problems.append(f"{tag}: moving one use between two bits lowers U")
            if row["no_gap"] != "1" or row["spacing"] != "1":
                problems.append(f"{tag}: structural checks report a violation")
        elif not staircase_floor(t, n, ref.r):
            problems.append(f"{tag}: staircase floor t_k >= (q-k+1) r fails")
        if row["exact_d"] == "":
            problems.append(f"{tag}: no exact distortion")
        else:
            d, u, l = float(row["exact_d"]), float(row["U"]), float(row["L"])
            if not (l <= d * (1 + SLACK) and d <= u * (1 + SLACK)):
                problems.append(f"{tag}: L <= D <= U fails ({l!r}, {d!r}, {u!r})")
            for col, log_ref in (("exact_d", ref.log_distortion(t)), ("U", ref.log_upper(t)),
                                 ("L", ref.log_lower(t))):
                if not close(float(row[col]), log_ref):
                    problems.append(f"{tag}: {col}={row[col]} but the reference gives {math.exp(log_ref)!r}")
        hits, misses = out["cache"]
        counts = Counter({
            "cli.csv_bytes": path.stat().st_size,
            "decoder.cache_hits": hits,
            "decoder.cache_misses": misses,
            "decoder.histograms": sum(histogram_count(tk, 2) for tk in set(t) if tk > 0),
            "policy.units": n if rule == "greedy" else 0,
        })
        return problems, counts


class MCAccuracy(Workload):
    """Monte-Carlo estimates of D(t) to a fixed relative standard error."""

    name = "mc-accuracy"
    tail_pct = 95
    min_ops = 200
    NONUNIFORM_EVERY = 8

    def __init__(self, *args):
        super().__init__(*args)
        s = self.state
        self.ref = reference_for(s["bac"])
        self.patterns = s["patterns"]
        self.nonuniform = self.ds.pattern([6, 3, 1])
        # One simulator thread: with two on a two-core host, a busy process
        # on the other core cut ops_per_s by 30 % and raised the p95 by 60 %;
        # with one, by 4 % and 3 %.
        self.jobs = 1
        # Fresh seeds for every estimate, so no simulator cache ever serves a repeat.
        self._seeds = iter(range(self.seed * 2**32, (self.seed + 1) * 2**32))

    def round(self, r: int) -> list:
        order = list(range(len(self.patterns)))
        self.rng.shuffle(order)
        specs = []
        for j, p in enumerate(order):
            specs.append(("rb", p))
            if (j + 1) % self.NONUNIFORM_EVERY == 0:
                specs.append(("nonuniform", None))
        return specs

    def _estimate(self, kind: str, pat, trials: int):
        ds, s = self.ds, self.state
        if kind == "rb":
            cfg = ds.SimConfig(channel=s["bac"], pattern=pat, prior=s["uniform"],
                               trials=trials, seed=next(self._seeds))
            est = ds.estimate_distortion(cfg, jobs=self.jobs)
            return est.mean, est.std_error, trials, True
        rep = ds.nonuniform_experiment(s["bac"], s["power2"], pat, trials=trials,
                                       seed=next(self._seeds), jobs=self.jobs)
        return rep.uniform_mse, rep.uniform_se, trials, rep.inequality_ok

    @staticmethod
    def _trials_for(rel_sd: float) -> int:
        return max(BLOCK, math.ceil(1.25 * (rel_sd / TARGET_REL_SE) ** 2))

    def run(self, spec) -> dict:
        kind, p = spec
        pat = self.patterns[p] if kind == "rb" else self.nonuniform
        pilot = self._estimate(kind, pat, PILOT_TRIALS)
        parts = [self._estimate(kind, pat, self._trials_for(_rel_sd(*pilot[:3])))]
        while len(parts) < 6:  # top up with fresh seeds when the sizing fell short
            mean, se, total = _pooled(parts)
            if se <= TARGET_REL_SE * mean:
                break
            more = self._trials_for(_rel_sd(mean, se, total)) - total
            parts.append(self._estimate(kind, pat, max(BLOCK, more)))
        return {"pattern": pat, "pilot": pilot, "parts": parts}

    def check(self, spec, out) -> tuple[list[str], Counter]:
        pat = out["pattern"]
        t = list(pat.t)
        tag = f"{spec[0]} ({pat})"
        mean, se, total = _pooled(out["parts"])
        exact = math.exp(self.ref.log_distortion(t))
        problems = []
        if se > TARGET_REL_SE * mean:
            problems.append(f"{tag}: relative SE {se / mean:.4f} above the {TARGET_REL_SE} target")
        if abs(mean - exact) > Z_LIMIT * se + SLACK * exact:
            problems.append(f"{tag}: estimate {mean!r} is {(mean - exact) / se:.1f} SE from exact {exact!r}")
        if not all(part[3] for part in out["parts"] + [out["pilot"]]):
            problems.append(f"{tag}: uniform <= L^2 * original inequality reported violated")
        trials = total + out["pilot"][2]
        counts = Counter({
            "sim.trials": trials,
            "sim.channel_uses": trials * pat.n,
            "sim.rel_sd_per_trial": _rel_sd(mean, se, total),
        })
        return problems, counts


def _rel_sd(mean: float, se: float, trials: int) -> float:
    return se / mean * math.sqrt(trials) if mean > 0.0 else math.inf


def _pooled(parts: list) -> tuple[float, float, int]:
    """Mean, standard error and trials of independent estimates taken together."""
    total = sum(p[2] for p in parts)
    mean = math.fsum(p[0] * p[2] for p in parts) / total
    ss = math.fsum((p[2] - 1) * p[1] ** 2 * p[2] + p[2] * (p[0] - mean) ** 2 for p in parts)
    return mean, math.sqrt(ss / (total - 1) / total), total


WORKLOADS = {w.name: w for w in (ExactSweep, PolicyAlloc, MCAccuracy)}
