"""Time one set-up in a fresh interpreter and print it in seconds.

    python3 bench/probe.py <workload>

The clock starts before ``import dyadicsearch`` and stops after the
workload's set-up calls (channel and prior loading, ``info_constants``).
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import program_setup  # noqa: E402  (stdlib only; imports nothing of the package)

if __name__ == "__main__":
    start = time.perf_counter()
    program_setup.setup(sys.argv[1], BENCH)
    print(repr(time.perf_counter() - start))
