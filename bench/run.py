"""Run one workload: ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

The same as ``python -m bench run``; the last line of standard output is
the JSON result (end-to-end metrics, or per-layer metrics with
``--trace 1``).  Run it from the repository root.
"""

import sys
from pathlib import Path

# Import the ``bench`` package from the repository root, not this directory.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
