"""Benchmark of the dyadicsearch package: three workloads, one command.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1             # every workload
    python3 bench/run.py --workload mc-accuracy --trace 1    # per-layer metrics
    python3 bench/run.py --workload all --seed 3 --record runs.jsonl
    python3 bench/run.py --compare base.jsonl new.jsonl      # against the bounds

A run imports the package from ``src/`` next to this directory, makes the
workload's set-up calls, then executes whole rounds of operations, one at a
time (a closed loop with one caller), until at least ``--seconds`` of
operation time and the workload's minimum operation count are reached. Every
operation's output is checked against ``reference.py`` outside the timed
part. Each metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every check passed, 1 when one failed, 2 when the
package cannot be run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, before numpy is imported

import argparse
import contextlib
import importlib
import inspect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import program_setup
import workloads
from spans import LAYERS, Tracer, wrapper_cost_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 15
WALL_LIMIT_S = 120.0  # stop early rather than overrun the caller's time limit
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import dyadicsearch
    except ImportError as exc:
        print(f"error: cannot import dyadicsearch from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(dyadicsearch.__file__).resolve().is_relative_to(SRC):
        print(f"error: dyadicsearch was imported from {dyadicsearch.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return dyadicsearch


def self_test() -> None:
    """Run the reference's hand-derived cases before trusting it."""
    tests = importlib.import_module("test_reference")
    for name, fn in inspect.getmembers(tests, inspect.isfunction):
        if name.startswith("test_"):
            fn()


def probe_setup(workload: str) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def paused(tracer):
    """Calls the benchmark makes itself (checks, inputs) are not the program's spans."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def measure(wl, seconds: float, tracer, probes: int) -> dict:
    """Whole rounds of operations; set-up probes spread evenly over the run.

    The probes sample the machine at different moments, so a passing burst
    of load on a shared host moves their median less.
    """
    setups = [probe_setup(wl.name)] if probes else []
    latencies: list[float] = []
    problems: list[str] = []
    counts: Counter = Counter()
    attempted = failed = 0
    busy = 0.0
    wall0 = time.perf_counter()
    r = 0
    while busy < seconds or len(latencies) < wl.min_ops:
        for spec in wl.round(r):
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(spec)
            except Exception as exc:  # a failed operation is counted, not fatal
                busy += time.perf_counter() - t0
                failed += 1
                print(f"operation {spec!r} failed: {exc!r}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            with paused(tracer):
                found, c = wl.check(spec, out)
            problems += found
            counts.update(c)
            if 0 < len(setups) < probes and busy >= len(setups) * seconds / (probes - 1):
                setups.append(probe_setup(wl.name))
        r += 1
        if time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    while 0 < len(setups) < probes:
        setups.append(probe_setup(wl.name))
    return dict(latencies=latencies, problems=problems, counts=counts, setups=setups,
                attempted=attempted, failed=failed, busy=busy)


def end_to_end(wl, m: dict) -> dict:
    lat = m["latencies"]
    return {
        "ops_per_s": len(lat) / m["busy"],
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * percentile(lat, wl.tail_pct),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(m: dict, tracer: Tracer, wrapper_s: float) -> dict:
    """Per-operation layer metrics from the spans and the counts."""
    ops = max(1, len(m["latencies"]))
    counts = m["counts"]
    self_s = tracer.self_seconds()
    groups = tracer.group_seconds

    def ms(*fns):
        return 1e3 * groups(fns) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        f"{layer}.self_ms": (1e3 * sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / ops, "ms")
        for layer in LAYERS
    }
    search_s = groups(("policy.efficient_search",))
    oracle_s = groups(("decoder.exact_distortion",))
    sim_s = groups(("sim.estimate_distortion", "sim.nonuniform_experiment"))
    hits, misses = counts["decoder.cache_hits"], counts["decoder.cache_misses"]
    spans = len(tracer)
    metrics.update({
        "cli.csv_bytes": (counts["cli.csv_bytes"] / ops, "B"),
        "channel.info_constants_ms": (ms("channel.info_constants"), "ms"),
        "source.prior_ms": (ms("source.uniform_prior", "source.power_prior", "source.load_prior"), "ms"),
        "policy.aurelian_ms": (ms("policy.aurelian"), "ms"),
        "policy.efficient_search_ms": (1e3 * search_s / ops, "ms"),
        "policy.ns_per_unit": (1e9 * ratio(search_s, counts["policy.units"]), "ns"),
        "policy.checks_ms": (ms("policy.check_efficient_properties", "policy.depth_bounds"), "ms"),
        "policy.bounds_ms": (ms("policy.upper_bound", "policy.lower_bound"), "ms"),
        "decoder.exact_distortion_ms": (1e3 * oracle_s / ops, "ms"),
        "decoder.cache_hits": (hits / ops, "count"),
        "decoder.cache_misses": (misses / ops, "count"),
        "decoder.cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "decoder.histograms": (counts["decoder.histograms"] / ops, "count"),
        "decoder.ns_per_histogram": (1e9 * ratio(oracle_s, counts["decoder.histograms"]), "ns"),
        "sim.estimate_distortion_ms": (ms("sim.estimate_distortion"), "ms"),
        "sim.nonuniform_ms": (ms("sim.nonuniform_experiment"), "ms"),
        "sim.trials": (counts["sim.trials"] / ops, "count"),
        "sim.channel_uses": (counts["sim.channel_uses"] / ops, "count"),
        "sim.ns_per_channel_use": (1e9 * ratio(sim_s, counts["sim.channel_uses"]), "ns"),
        "sim.rel_sd_per_trial": (counts["sim.rel_sd_per_trial"] / ops, "ratio"),
        "trace.ops_per_s": (len(m["latencies"]) / m["busy"], "op/s"),
        "trace.spans": (spans / ops, "count"),
        "trace.overhead_ms": (1e3 * wrapper_s * spans / ops, "ms"),
    })
    return metrics


def run_one(args) -> int:
    ds = import_package()
    self_test()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ds.__name__)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        state = program_setup.setup(args.workload, BENCH)
        with paused(tracer):
            wl = workloads.WORKLOADS[args.workload](state, args.seed, out_dir, BENCH, bool(args.trace))
        try:
            m = measure(wl, args.seconds, tracer, 0 if args.trace else SETUP_PROBES)
        finally:
            wl.close()
    finally:
        if tracer is not None:
            tracer.uninstall()

    if not m["latencies"]:
        print(f"error: no {args.workload} operation succeeded ({m['failed']} failed)", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(wl, m).items()}
    else:
        metrics = per_layer(m, tracer, wrapper_cost_s())
        tracer.write(out_dir / f"spans-seed{args.seed}.npz")
    ops = len(m["latencies"])
    print(f"workload {args.workload}: seed {args.seed}, {ops} operations "
          f"({m['failed']} failed) in {m['busy']:.2f} s, tail percentile p{wl.tail_pct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for p in m["problems"][:20]:
        print(f"  CHECK FAILED: {p}")
    correct = not m["problems"]
    result = {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory stays per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            return done.returncode or 2
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def compare(files: list[str]) -> int:
    """Spread of each set of runs, and the second set's medians against the first's."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = []
    for path in files:
        runs = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
        sets.append([r for r in runs if not r.get("trace")])
    ok = True
    for name in sorted({r["workload"] for s in sets for r in s}):
        print(f"{name}:")
        per_set = [[r for r in s if r["workload"] == name] for s in sets]
        if not all(per_set):
            ok = False
            print("  missing from " + ", ".join(f for f, runs in zip(files, per_set) if not runs))
            continue
        shares = {sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                  for runs in per_set}
        if len(shares) > 1:
            ok = False
            print(f"  failed share differs between sets: {sorted(shares)}")
        for metric, (bound, better) in bounds.items():
            line = f"  {metric:12s}"
            medians = []
            for runs in per_set:
                vals = [r["metrics"][metric]["value"] for r in runs]
                med = statistics.median(vals)
                spread = 0.0
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    spread = (q3 - q1) / med
                medians.append(med)
                flag = "" if spread <= bound or metric == "setup_s" else " SPREAD>BOUND"
                ok = ok and not flag
                line += f"  median {med:.6g} spread {spread:6.2%} (n={len(vals)}){flag}"
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0] * (1 if better == "lower" else -1)
                flag = " REGRESSION" if worse > bound else ""
                ok = ok and not flag
                line += f"  worse by {worse:+.2%} (bound {bound:.0%}){flag}"
            print(line)
    return 0 if ok else 1



def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append each run's result as one JSON line to this file")
    p.add_argument("--compare", nargs="+", metavar="RUNS.jsonl",
                   help="report the spread of one or two recorded sets and compare them")
    args = p.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if not 0 <= args.seed < 2**31:
        p.error("--seed must lie in [0, 2^31)")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
