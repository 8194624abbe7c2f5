"""Entry point of the benchmark; see harness.py.

    python3 perfbench/run.py --workload degenerate-master --seed 7 --seconds 20 --trace 0

Pins the BLAS thread count before numpy loads and imports gapcg from the
checkout's ``src/``; exits with status 2 when there is none.
"""

import os
import sys
from pathlib import Path

# The BLAS thread count changes the order of reductions, and with it the
# iteration and pivot counts; one thread also keeps the second core idle.
THREAD_SETTING = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

if __name__ == "__main__":
    os.environ.update(THREAD_SETTING)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "gapcg" / "__init__.py").is_file():
        print(f"perfbench: no gapcg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import harness

    sys.exit(harness.main())
