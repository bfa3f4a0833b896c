"""Command-line front end.

Subcommands reproduce the package's standard experiments as CSV files plus a
console summary:

* ``info``        channel constants C, s*, B, b_alt, r, r_real, A1, A2
* ``fig2``        every pattern at a small budget: bounds, exact and
                  Monte-Carlo distortion, argmin markers
* ``fig3``        staircase-policy sweep: D_n, U, L, ln(D_n)/sqrt(n)
* ``policy``      one pattern query with structural check reports
* ``nonuniform``  CDF-transform experiment for a non-uniform prior

Every run writes a manifest JSON next to its CSVs; each CSV carries comment
lines naming its schema, manifest and channel so the numbers stay traceable.
Randomness enters only through --seed. Exit codes: 0 success, 2 validation
error (an --out that cannot be written included), 3 budget refusal (an
enumeration too large, a budget past 2^53 uses, a Monte-Carlo bit whose
first-link window holds more than ``decoder.HISTOGRAM_BUDGET`` counts, or a
``fig3 --mode mc`` mean that underflows the double range). A ``fig3 --mode
exact`` row whose D or U underflows the double range prints 0.0 there, and
its ln(D)/sqrt(n) and ln(U)/sqrt(n) columns come from the log-domain sums;
``policy`` prints ln D beside D and records ln D, ln U and ln L in its
manifest.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .channel import (
    ChannelSpec,
    InfoConstants,
    b_alt,
    chernoff_information,
    info_constants,
    load_channel,
    make_bac,
)
from .decoder import (
    assemble_distortion,
    assemble_log_distortion,
    exact_bit_variance,
    exact_distortion,
    log_bit_variances,
)
from .errors import BudgetExceededError, ValidationError
from .policy import (
    TransmissionPattern,
    aurelian,
    check_efficient_properties,
    depth_bounds,
    efficient_search,
    enumerate_patterns,
    log_lower_bound,
    log_upper_bound,
    lower_bound,
    parse_pattern,
    upper_bound,
)
from .policy import _check_budget
from .sim import SimConfig, aurelian_sweep, estimate_distortion, nonuniform_experiment
from .source import load_prior, uniform_prior

SCHEMA_VERSION = "v1"

# Widely quoted constants for the (0.9, 0.8) asymmetric channel; they do not
# match the definitions used here (2.08 = ln 8 is the max |log-ratio|, not its
# mixture mean), so `info` prints both for comparison.
_QUOTED_BAC_CONSTANTS = {"C": 0.77, "B": 2.08}
_REFERENCE_OPTIMUM_N10_D3 = "6,3,1"
# Counts shown at each end of a long pattern on stdout; the CSV and the
# manifest keep the whole pattern.
_SHOWN_COUNTS = 5
# The most uses at which the non-uniform estimator has been checked against
# the exact oracle (README); past it, it landed up to 7 standard errors low.
_NONUNIFORM_CHECKED_USES = 100


@functools.cache
def _environment() -> dict:
    """Python and numpy versions, machine type and CPU count, once per
    process. ``platform.platform()`` is left out: its first call takes
    about 9 ms, more than a small ``policy`` run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def _write_csv(
    path: Path,
    schema: str,
    channel: ChannelSpec,
    manifest_name: str,
    header: list[str],
    rows: list[Sequence],
) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write(f"# schema: dyadicsearch/{schema}-{SCHEMA_VERSION}\n")
        f.write(f"# manifest: {manifest_name}\n")
        f.write(f"# channel: {channel.describe()}\n")
        # csv writes a float by repr and any other cell by str; callers
        # give flags as 0/1.
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _emit(
    args,
    name: str,
    channel: ChannelSpec,
    header: list[str],
    rows: list[Sequence],
    start: float,
    config: dict,
    seed: int | None,
    findings: dict,
    phase_s: dict | None = None,
) -> Path:
    """Write ``<name>.csv`` and ``manifest-<name>.json`` under --out.

    ``config`` holds the command's settings besides --channel; the wall time
    runs from ``start`` to the manifest write. The manifest's ``phase_s``
    holds the command's own ``phase_s`` and ``write``, the seconds the CSV
    took. Returns the CSV path.
    """
    out = Path(args.out)
    csv_path = out / f"{name}.csv"
    manifest_name = f"manifest-{name}.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        _write_csv(csv_path, name, channel, manifest_name, header, rows)
        manifest = {
            "command": args.argv_echo,
            "config": {"channel": args.channel, **config},
            "seed": seed,
            "version": __version__,
            "phase_s": {**(phase_s or {}), "write": time.perf_counter() - t0},
            "wall_time_s": time.perf_counter() - start,
            "outputs": [csv_path.name],
            "findings": findings,
            "environment": _environment(),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        (out / manifest_name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write output under --out {str(out)!r}: {exc}") from exc
    return csv_path


def _oracle_cache_since(before) -> dict:
    """Hits and misses of the exact oracle's cache since ``before``."""
    after = exact_bit_variance.cache_info()
    return {"hits": after.hits - before.hits, "misses": after.misses - before.misses}


def cmd_info(args) -> int:
    start = time.perf_counter()
    ch = load_channel(args.channel)
    if not ch.informative:
        raise ValidationError("degenerate channel: f0 == f1 carries no information")
    cinfo = chernoff_information(ch)
    consts = info_constants(ch)
    alt = b_alt(ch)
    rows = [
        ["C", consts.C],
        ["s_star", cinfo.s_star],
        ["B", consts.B],
        ["b_alt", alt],
        ["r", consts.r],
        ["r_real", consts.r_real],
        ["A1", consts.A1],
        ["A2", consts.A2],
    ]
    print(f"channel: {ch.describe()}")
    for name, value in rows:
        print(f"  {name:8s} {value}")
    findings = {}
    if ch == make_bac(0.9, 0.8):
        findings["quoted_constants"] = _QUOTED_BAC_CONSTANTS
        findings["computed_constants"] = {"C": consts.C, "B": consts.B}
        print(
            "  note: commonly quoted constants for this channel "
            f"(C={_QUOTED_BAC_CONSTANTS['C']}, B={_QUOTED_BAC_CONSTANTS['B']}) do not match "
            f"these definitions (C={consts.C:.4f}, B={consts.B:.4f}); "
            "2.08 = ln 8 is the maximum |log-ratio| of this channel, not its mixture mean."
        )
    _emit(args, "info", ch, ["constant", "value"], rows, start, {}, None, findings)
    return 0


def cmd_fig2(args) -> int:
    start = time.perf_counter()
    ch = load_channel(args.channel)
    consts = info_constants(ch)
    patterns = enumerate_patterns(args.n, args.depth)
    uniform = uniform_prior()

    rows = []
    for pat in patterns:
        cfg = SimConfig(channel=ch, pattern=pat, prior=uniform, trials=args.trials, seed=args.seed)
        est = estimate_distortion(cfg, jobs=args.jobs)
        rows.append(
            {
                "pattern": pat,
                "L": lower_bound(pat, consts.B),
                "U": upper_bound(pat, consts.C),
                "exact_d": exact_distortion(pat, ch),
                "mc_mean": est.mean,
                "mc_stderr": est.std_error,
            }
        )

    argmins = {
        key: min(range(len(rows)), key=lambda i: rows[i][key])
        for key in ("L", "U", "exact_d", "mc_mean")
    }
    order = sorted(range(len(rows)), key=lambda i: rows[i]["exact_d"])
    rank = {i: pos + 1 for pos, i in enumerate(order)}  # 1 = best exact distortion
    header = [
        "pattern", "L", "U", "exact_d", "mc_mean", "mc_stderr",
        "argmin_l", "argmin_u", "argmin_exact", "argmin_mc", "rank",
    ]
    table = [
        [
            str(r["pattern"]), r["L"], r["U"], r["exact_d"], r["mc_mean"], r["mc_stderr"],
            *(int(i == argmins[key]) for key in ("L", "U", "exact_d", "mc_mean")),
            rank[i],
        ]
        for i, r in enumerate(rows)
    ]

    exact_argmin = str(rows[argmins["exact_d"]]["pattern"])
    findings = {
        "pattern_count": len(rows),
        "argmin_l": str(rows[argmins["L"]]["pattern"]),
        "argmin_u": str(rows[argmins["U"]]["pattern"]),
        "argmin_exact": exact_argmin,
        "argmin_mc": str(rows[argmins["mc_mean"]]["pattern"]),
    }
    if args.n == 10 and args.depth == 3 and ch == make_bac(0.9, 0.8):
        findings["exact_argmin_matches_reference"] = exact_argmin == _REFERENCE_OPTIMUM_N10_D3
        findings["reference_optimum"] = _REFERENCE_OPTIMUM_N10_D3

    config = {"n": args.n, "depth": args.depth, "trials": args.trials}
    csv_path = _emit(args, "fig2", ch, header, table, start, config, args.seed, findings)

    print(f"{len(rows)} patterns for n={args.n}, depth={args.depth}")
    for key in ("argmin_exact", "argmin_mc", "argmin_u", "argmin_l"):
        print(f"  {key}: ({findings[key]})")
    if "exact_argmin_matches_reference" in findings:
        verdict = "matches" if findings["exact_argmin_matches_reference"] else "differs from"
        print(f"  exact argmin {verdict} the reference optimum ({_REFERENCE_OPTIMUM_N10_D3})")
    print(f"wrote {csv_path}")
    return 0


def cmd_fig3(args) -> int:
    start = time.perf_counter()
    cache_before = exact_bit_variance.cache_info()
    ch = load_channel(args.channel)
    consts = info_constants(ch)
    if args.mode == "mc" and args.seed is None:
        raise ValidationError("--seed is required in mc mode")
    if args.step < 1 or args.n_max < args.step:
        raise ValidationError("need n_max >= step >= 1")
    grid = range(args.step, args.n_max + 1, args.step)
    _check_budget(len(grid), "budgets in the fig3 grid")
    n_values = [n for n in grid if n >= consts.r]
    if not n_values:
        raise ValidationError(
            f"no sweep points: need a budget of at least r={consts.r} (step {args.step})"
        )
    t0 = time.perf_counter()
    result = aurelian_sweep(
        ch,
        n_values,
        exact=(args.mode == "exact"),
        trials=args.trials,
        seed=args.seed if args.seed is not None else 0,
        jobs=args.jobs,
    )
    phase_s = {"sweep": time.perf_counter() - t0}
    header = [
        "n", "q", "t1", "d", "d_stderr", "u", "l",
        "log_d_over_sqrt_n", "log_u_over_sqrt_n", "d_over_d0", "neg_a1", "neg_a2",
    ]
    # A SweepRow is the first ten cells; the two constant cells are their
    # floats' repr, what csv writes for a float, made once.
    neg_a1, neg_a2 = repr(-consts.A1), repr(-consts.A2)
    table = [(*r, neg_a1, neg_a2) for r in result.rows]
    last = result.rows[-1]
    config = {"n_max": args.n_max, "step": args.step, "mode": args.mode}
    findings = {
        "final_n": last.n,
        "final_log_d_over_sqrt_n": last.log_d_over_sqrt_n,
        "final_log_u_over_sqrt_n": last.log_u_over_sqrt_n,
        "neg_a1": -consts.A1,
        "neg_a2": -consts.A2,
    }
    if args.mode == "exact":
        findings["oracle_cache"] = _oracle_cache_since(cache_before)
    csv_path = _emit(args, "fig3", ch, header, table, start, config, args.seed, findings, phase_s)
    print(
        f"swept {len(result.rows)} budgets up to n={last.n}: "
        f"ln(D_n)/sqrt(n)={last.log_d_over_sqrt_n:.4f}, "
        f"ln(U_n)/sqrt(n)={last.log_u_over_sqrt_n:.4f} "
        f"(-A1={-consts.A1:.4f}, -A2={-consts.A2:.4f})"
    )
    print(f"wrote {csv_path}")
    return 0


def _resolve_rule(rule: str, n: int, consts: InfoConstants) -> TransmissionPattern:
    if rule == "aurelian":
        return aurelian(n, consts)
    if rule == "greedy":
        return efficient_search(n, consts.C, mode="greedy")
    if rule.startswith("exhaustive:"):
        try:
            depth = int(rule.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad exhaustive depth in rule {rule!r}") from exc
        return efficient_search(n, consts.C, mode="exhaustive", max_depth=depth)
    raise ValidationError(f"unknown rule {rule!r} (aurelian | greedy | exhaustive:<depth>)")


def _pattern_summary(pat: TransmissionPattern) -> str:
    """The pattern for stdout: whole up to 4 ``_SHOWN_COUNTS`` counts, else
    its first and last ``_SHOWN_COUNTS`` around an ellipsis."""
    if pat.q <= 4 * _SHOWN_COUNTS:
        return str(pat)
    ends = (pat.t[:_SHOWN_COUNTS], ("...",), pat.t[-_SHOWN_COUNTS:])
    return ",".join(str(c) for part in ends for c in part)


def cmd_policy(args) -> int:
    start = time.perf_counter()
    cache_before = exact_bit_variance.cache_info()
    ch = load_channel(args.channel)
    consts = info_constants(ch)
    pat = _resolve_rule(args.rule, args.n, consts)
    u = upper_bound(pat, consts.C)
    l = lower_bound(pat, consts.B)
    try:
        log_v = log_bit_variances(pat.t, ch)
    except BudgetExceededError:
        log_v = None  # per-bit enumeration above budget; bounds still stand
    exact_d: float | str = "" if log_v is None else assemble_distortion(log_v)
    eff = check_efficient_properties(pat, consts.r_real)
    cor = depth_bounds(pat, consts.r)
    print(f"rule {args.rule}, n={args.n}: pattern ({_pattern_summary(pat)}) depth q={pat.q}")
    logs = {"ln_U": log_upper_bound(pat, consts.C), "ln_L": log_lower_bound(pat, consts.B)}
    exact_text = ""
    if log_v is not None:
        logs["ln_exact_d"] = assemble_log_distortion(log_v)
        exact_text = f"  exact_d={exact_d}  ln_exact_d={logs['ln_exact_d']}"
    print(f"  U={u}  L={l}{exact_text}")
    print(f"  no_gap={eff.no_gap} spacing={eff.spacing} (r_real={consts.r_real:.5f})")
    for v in eff.violations:
        print(f"    {v}")
    print(f"  t1_bound={cor.t1_bound} q_bound={cor.q_bound} (r={consts.r})")
    header = ["rule", "n", "pattern", "q", "U", "L", "exact_d",
              "no_gap", "spacing", "t1_bound", "q_bound"]
    cell = str(pat)
    row = [args.rule, args.n, cell, pat.q, u, l, exact_d,
           *map(int, (eff.no_gap, eff.spacing, cor.t1_bound, cor.q_bound))]
    config = {"n": args.n, "rule": args.rule}
    findings = {
        "pattern": _pattern_summary(pat),
        "q": pat.q,
        "pattern_sha256": hashlib.sha256(cell.encode()).hexdigest(),
        "oracle_cache": _oracle_cache_since(cache_before),
        # Values below the double range print as 0.0; the ln_* entries keep them.
        "underflow": [name for name, v in (("U", u), ("L", l), ("exact_d", exact_d)) if v == 0.0],
        **logs,
    }
    _emit(args, "policy", ch, header, [row], start, config, None, findings)
    return 0


def cmd_nonuniform(args) -> int:
    start = time.perf_counter()
    ch = load_channel(args.channel)
    prior = load_prior(args.prior)
    pat = parse_pattern(args.pattern)
    report = nonuniform_experiment(ch, prior, pat, trials=args.trials, seed=args.seed, jobs=args.jobs)
    header = [
        "uniform_mse", "uniform_stderr", "original_mse", "original_stderr",
        "lipschitz_sq", "margin_mean", "margin_stderr", "inequality_ok",
    ]
    row = [
        report.uniform_mse, report.uniform_se, report.original_mse, report.original_se,
        report.lipschitz_sq, report.margin_mean, report.margin_se, int(report.inequality_ok),
    ]
    config = {"prior": args.prior, "pattern": args.pattern, "trials": args.trials}
    findings = {"inequality_ok": report.inequality_ok}
    if prior.kind != "uniform" and pat.n > _NONUNIFORM_CHECKED_USES:
        findings["outside_checked_range"] = {"uses": pat.n, "checked_up_to": _NONUNIFORM_CHECKED_USES}
        print(f"warning: {pat.n} uses: this non-uniform estimate is checked against the exact "
              f"oracle only up to n = {_NONUNIFORM_CHECKED_USES}", file=sys.stderr)
    csv_path = _emit(args, "nonuniform", ch, header, [row], start, config, args.seed, findings)
    verdict = "holds" if report.inequality_ok else "VIOLATED"
    print(
        f"uniform-domain mse {report.uniform_mse:.6g} +- {report.uniform_se:.2g}, "
        f"original-domain mse {report.original_mse:.6g} +- {report.original_se:.2g}"
    )
    print(f"inequality uniform <= {report.lipschitz_sq:g} * original: {verdict}")
    print(f"wrote {csv_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process, so ``main`` called in-process pays the build
    once. Callers must not mutate the shared tree; ``parse_args`` returns a
    fresh namespace each call, and ``main`` finds the command's function by
    ``cmd``."""
    parser = argparse.ArgumentParser(
        prog="dyadicsearch",
        description="Non-adaptive dyadic transmission policies: bounds, search, validation.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument(
            "--channel", "--preset", dest="channel", required=True,
            help="channel preset (bac:p00,p11 | bsc:eps) or JSON config file",
        )
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if seed:
            p.add_argument(
                "--jobs", type=int, default=1,
                help="accepted for compatibility (>= 1); the simulator runs in one thread",
            )

    p_info = sub.add_parser("info", help="channel constants")
    add_common(p_info)

    p_fig2 = sub.add_parser("fig2", help="bounds and distortion for every pattern at small n")
    add_common(p_fig2, seed=True)
    p_fig2.add_argument("--n", type=int, default=10)
    p_fig2.add_argument("--depth", type=int, default=3)
    p_fig2.add_argument("--trials", type=int, default=100_000)
    p_fig2.add_argument("--seed", type=int, required=True)

    p_fig3 = sub.add_parser("fig3", help="staircase-policy distortion sweep")
    add_common(p_fig3, seed=True)
    p_fig3.add_argument("--n-max", type=int, default=1000)
    p_fig3.add_argument("--step", type=int, default=10)
    p_fig3.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p_fig3.add_argument("--trials", type=int, default=100_000)
    p_fig3.add_argument("--seed", type=int, default=None)

    p_pol = sub.add_parser("policy", help="construct one pattern and run the structural checks")
    add_common(p_pol)
    p_pol.add_argument("--n", type=int, required=True)
    p_pol.add_argument("--rule", required=True, help="aurelian | greedy | exhaustive:<depth>")

    p_non = sub.add_parser("nonuniform", help="CDF-transform experiment")
    add_common(p_non, seed=True)
    p_non.add_argument("--prior", required=True, help="uniform | power:<e> | JSON config file")
    p_non.add_argument("--pattern", required=True, help='comma-separated counts, e.g. "6,3,1"')
    p_non.add_argument("--trials", type=int, default=100_000)
    p_non.add_argument("--seed", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv_echo = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        # Looked up per call, so the shared parser holds no command and a
        # wrapper installed after it was built (a tracer, a test) still runs.
        return globals()[f"cmd_{args.cmd}"](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
