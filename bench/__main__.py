"""``python -m bench {run,calibrate,compare}`` from the repository root.

Exit codes: 0 success, 1 failed output checks (``run``) or a regression
(``compare``), 2 the benchmark could not run (no result line printed).
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import List, Optional

from .common import ROOT, BenchError, require_program
from .compare import command_compare
from .runner import add_run_arguments, command_calibrate, command_run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    add_run_arguments(sub.add_parser("run", help="run the benchmark once"))
    calibrate = sub.add_parser("calibrate", help="rerun the benchmark and record the run-to-run spread")
    calibrate.add_argument("--runs", type=int, default=5)
    calibrate.add_argument("--out", default=str(ROOT / "bench" / "calibration.json"))
    compare = sub.add_parser("compare", help="compare two result files metric by metric")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running round's child (and its daemon) stop too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.command == "compare":
            return command_compare(args)
        require_program()
        return command_run(args) if args.command == "run" else command_calibrate(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
