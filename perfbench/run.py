"""Benchmark entry point for margbayes.

Run from the repository root:

    python3 perfbench/run.py --workload direct-so --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Workloads are listed in BENCHMARK.json and defined in workloads.py.
BLAS and OpenMP thread counts are pinned to one before NumPy loads: on two
cores, default OpenBLAS threading made run-to-run times vary by a third.
The program is imported from `src/` of the same checkout; without it the
script exits with code 2 and prints no result.
"""
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "margbayes" / "cli.py").is_file():
        print(f"perfbench: no margbayes source under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
