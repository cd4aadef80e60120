"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It imports the program from ``src/`` of
that checkout (no install step), pins the BLAS pool to one thread before
numpy loads, and hands over to ``bench``.  The last line of standard output
is the JSON result; see perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

WORKLOADS = ("structural-dense", "ideal-ladder", "sweep-reuse", "phase-spectral")

# One BLAS thread: the matrices are small (state dimension <= 256), the loop
# is single-caller, and a pinned pool keeps run-to-run spread low.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ringsolve" / "__init__.py").is_file():
        print(f"error: no program sources at {root / 'src' / 'ringsolve'}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import bench

    return bench.main(args, root, start, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
