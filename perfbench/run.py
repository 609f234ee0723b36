"""Entry point of the relembed benchmark.

    python3 perfbench/run.py --workload default --seed 0 --seconds 55 --trace 0

Run from the repository root. BLAS threads are pinned to 1 before numpy is
imported, and relembed is imported from ``src/`` next to this directory.
Without that source tree the benchmark exits 2 and prints no result.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "relembed", "cli.py")):
        print(f"error: no relembed source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import relembed

    if os.path.dirname(os.path.abspath(relembed.__file__)) != os.path.join(src, "relembed"):
        print(f"error: relembed imported from {relembed.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench_pipeline

    return bench_pipeline.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
