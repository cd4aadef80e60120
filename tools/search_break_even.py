"""Time simulate's window search against the exact walk on dense draws.

For each state dimension 16, 20, ..., 40 (structural-dense draws of
n = 8, 10, ..., 20: every column of such a draw has a positive entry, so
it carries n lags), the script builds three draws of perfbench's
``dense_problem`` and times ``dynamics.simulate`` on them with the floor
``dynamics._SEARCH_DIM`` set so that every run searches, and so that none
does (the exact walk throughout).  Each walk is timed untraced and traced
at decimation 0 (the automatic grid, about 4096 rows) and 8, in process
time, with the two walks interleaved round by round and the first of them
alternating.  It prints each walk's median time per simulate call and the
ratio exact / search: above 1 the search is ahead.

Usage:
    python tools/search_break_even.py

Run it from the root of a checkout; like perfbench, it imports the program
from ``src/``, draws its inputs with ``perfbench/workloads.py`` and pins the
BLAS pool to one thread before numpy loads.  It takes about a minute.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from ringsolve import dynamics  # noqa: E402
from ringsolve.dynamics import SolverConfig, build_system, simulate  # noqa: E402
from ringsolve.netlist import plan  # noqa: E402
from workloads import dense_problem  # noqa: E402

SIZES = range(8, 21, 2)
DRAWS = 3
TRACES = {"untraced": None, "decimation 0": 0, "decimation 8": 8}
ROUNDS = 21
REPEATS = 4  # simulate calls per draw in one timing
# the floor that lets every run search, and the one that lets none
FLOORS = {"search": 1, "exact": 10**9}


def timed(systems, cfg, dec, floor):
    """Process seconds per simulate call over the systems, at this floor."""
    saved = dynamics._SEARCH_DIM
    dynamics._SEARCH_DIM = floor
    try:
        start = time.process_time()
        for ss in systems:
            for _ in range(REPEATS):
                simulate(ss, cfg, dec)
        return (time.process_time() - start) / (len(systems) * REPEATS)
    finally:
        dynamics._SEARCH_DIM = saved


def main() -> int:
    cfg = SolverConfig()
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, BLAS on one thread")
    print(f"medians of {ROUNDS} interleaved rounds, {DRAWS} draws x {REPEATS} calls each")
    print(f"{'dim':>4} {'n':>3}  {'trace':<13} {'exact ms':>9} {'search ms':>10} {'exact/search':>13}")
    for n in SIZES:
        systems = [
            build_system(plan(dense_problem(np.random.default_rng([0, n, k]), n)), cfg)
            for k in range(DRAWS)
        ]
        dims = {ss.m.shape[0] for ss in systems}
        if len(dims) != 1:
            raise SystemExit(f"the n = {n} draws differ in state dimension: {sorted(dims)}")
        (dim,) = dims
        for label, dec in TRACES.items():
            for walk, floor in FLOORS.items():
                timed(systems, cfg, dec, floor)  # warm-up
            times = {walk: [] for walk in FLOORS}
            for r in range(ROUNDS):
                order = list(FLOORS) if r % 2 == 0 else list(FLOORS)[::-1]
                for walk in order:
                    times[walk].append(timed(systems, cfg, dec, FLOORS[walk]))
            exact = statistics.median(times["exact"])
            search = statistics.median(times["search"])
            print(
                f"{dim:>4} {n:>3}  {label:<13} {exact * 1e3:>9.3f} "
                f"{search * 1e3:>10.3f} {exact / search:>13.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
