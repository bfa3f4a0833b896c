"""The program's own set-up for each workload, shared by the run and the probe.

This module imports nothing at load time, so ``probe.py`` can start its clock
before ``dyadicsearch`` (and with it numpy) is imported.
"""

BAC = {"preset": "bac", "p00": 0.9, "p11": 0.8}
MC_MAX_BUDGET = 60


def setup(workload: str, bench_dir) -> dict:
    """Import the package and make the calls a user makes before the first operation."""
    import dyadicsearch as ds

    if workload in ("exact-sweep", "policy-alloc"):
        import dyadicsearch.cli  # noqa: F401  (these workloads drive the CLI)
    bac = ds.load_channel(BAC)
    state = {"ds": ds, "bac": bac, "bac_consts": ds.info_constants(bac)}
    if workload == "exact-sweep":
        ch3 = ds.load_channel(bench_dir / "channel3.json")
        state["ch3"] = ch3
        state["ch3_consts"] = ds.info_constants(ch3)
    if workload == "mc-accuracy":
        consts = state["bac_consts"]
        state["uniform"] = ds.uniform_prior()
        state["power2"] = ds.load_prior({"prior": "power", "exponent": 2})
        state["patterns"] = ds.enumerate_patterns(10, 3) + [
            ds.aurelian(n, consts) for n in range(consts.r, MC_MAX_BUDGET + 1, 2)
        ]
    return state
