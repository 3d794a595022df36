"""Benchmark of the ``solvaq`` command line: time to a checked energy.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/``. See ``harness.py`` for what a run measures and prints.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread. On a shared 2-CPU machine a second thread made op times
# depend on the neighbours' load: over five seeds of sqd-water-dz20-file the
# quartile spread of op_s_p50 was 19% of the median with two threads and 6%
# with one (one set of five runs each; the host's load also drifts). With one
# thread, CPU time above wall time shows any threading the program adds.
BLAS_THREADS = 1


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "solvaq" / "cli.py").is_file():
        print(f"error: no solvaq sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    args = _parse(argv)

    import harness

    return harness.run(args, root, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
