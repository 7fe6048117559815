"""Run one stepgp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-step2d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full records, span dumps and self-time tables
go to ``perfbench/out/``.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    # one BLAS thread, pinned before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "stepgp" / "__init__.py").is_file():
        print(f"perfbench: no stepgp sources under {src}", file=sys.stderr)
        return 2
    # ahead of any installed copy
    sys.path.insert(0, str(src))
    import harness
    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
