#!/usr/bin/env python3
"""Path benchmark of l1linf.

    python3 perfbench/run.py --workload gauss-deep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --quick                     # tiny sizes, every check

Run from the repository root or anywhere else: the package is imported from
the ``src/`` directory next to this one.  See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "l1linf" / "__init__.py").is_file():
        print(f"perfbench: no l1linf sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the matrices are small, and a second thread on a
    # shared 2-vCPU host waits for its sibling and makes LAPACK times jump.
    # The setting has to be in place before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
