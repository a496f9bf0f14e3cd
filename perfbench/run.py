"""Performance benchmark entry point for ggdilrma.

Run from the repository root::

    python3 perfbench/run.py --workload paper_quartic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload clips_ip --seed 1 --seconds 30 --trace 1

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2.  BLAS is pinned to one thread here, before
numpy is loaded, because nothing inside the package can do it later.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "ggdilrma" / "__init__.py").is_file():
        print(f"error: no ggdilrma package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
