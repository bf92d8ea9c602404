"""Entry point of the apeuler benchmark.

    python3 perfbench/run.py --workload comp_mach --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  BLAS and OpenMP
are pinned to one thread per process before numpy loads, so the two sweep
workers of ``study_bundle`` stay within two cores.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "apeuler" / "__init__.py").is_file():
        print(f"apeuler sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]
    import bench
    return bench.main(sys.argv[1:], root=here.parent)


if __name__ == "__main__":
    sys.exit(main())
