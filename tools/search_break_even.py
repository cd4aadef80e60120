"""Time simulate's window search against the exact walk on dense draws.

For each state dimension 16, 20, ..., 40 (structural-dense draws of
n = 8, 10, ..., 20: every column of such a draw has a positive entry, so
it carries n lags), the script builds three draws of perfbench's
``dense_problem`` and times ``dynamics.simulate`` on them along three
walks: with the floor ``dynamics._SEARCH_DIM`` set so that none searches
(the exact walk throughout), so that every run searches in blocks of the
committed ``dynamics._SAMPLES`` samples, and so that every run searches in
blocks of 32 samples, the length the committed one is weighed against.
Each walk is timed untraced and traced at decimation 0 (the automatic
grid, about 4096 rows) and 8, in process time, with the walks interleaved
round by round and their order rotating.  It prints each walk's median time per simulate
call and the ratios exact / search for both block lengths: above 1 the
search is ahead.

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
# each walk's (_SEARCH_DIM, _SAMPLES): a floor that lets no run search, or
# every run, in blocks of the committed length or of 32 samples
WALKS = {
    "exact": (10**9, dynamics._SAMPLES),
    "search": (1, dynamics._SAMPLES),
    "search-32": (1, 32),
}


def timed(systems, cfg, dec, walk):
    """Process seconds per simulate call over the systems, along this walk."""
    saved = dynamics._SEARCH_DIM, dynamics._SAMPLES
    dynamics._SEARCH_DIM, dynamics._SAMPLES = WALKS[walk]
    try:
        start = time.process_time()
        for ss in systems:
            for _ in range(REPEATS):
                simulate(ss, cfg, dec)
        return (time.process_time() - start) / (len(systems) * REPEATS)
    finally:
        dynamics._SEARCH_DIM, dynamics._SAMPLES = saved


def main() -> int:
    cfg = SolverConfig()
    print(f"numpy {np.__version__}, {os.cpu_count()} CPUs, BLAS on one thread")
    print(f"medians of {ROUNDS} interleaved rounds, {DRAWS} draws x {REPEATS} calls each")
    print(f"search blocks of {dynamics._SAMPLES} samples (search) and of 32 (search-32)")
    print(
        f"{'dim':>4} {'n':>3}  {'trace':<13} {'exact ms':>9} {'search ms':>10} "
        f"{'search-32 ms':>13} {'exact/search':>13} {'exact/search-32':>16}"
    )
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
            for walk in WALKS:
                timed(systems, cfg, dec, walk)  # warm-up
            times = {walk: [] for walk in WALKS}
            walks = list(WALKS)
            for r in range(ROUNDS):
                for walk in walks[r % 3 :] + walks[: r % 3]:
                    times[walk].append(timed(systems, cfg, dec, walk))
            exact, search, search_32 = (statistics.median(times[w]) for w in WALKS)
            print(
                f"{dim:>4} {n:>3}  {label:<13} {exact * 1e3:>9.3f} "
                f"{search * 1e3:>10.3f} {search_32 * 1e3:>13.3f} "
                f"{exact / search:>13.2f} {exact / search_32:>16.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
