#!/usr/bin/env python3
"""Run every exhaustive verification at full desk scale, print a summary,
and compare each report with its golden file.

The cells are ccmax.harness.SWEEP. Each report's to_json() plus a newline
must equal tests/golden/<cell>.json byte for byte; a differing or missing
golden prints the cell's name. Exit status is 0 only if every check passes
and every report matches its golden.

On a 2-core machine with Python 3.11 the 30 cells, checks included, took
32.8 s at 1 worker and 21.6-22.3 s at 2 (the host's speed swings by up to
2x). Two cells are most of it: T23 n=12 (12-15 s at 1 worker, mostly
enumeration) and T4 n=8 (9-10 s, exact clustering arithmetic). --workers
splits each large enumeration once across processes; it does not spread
T4's arithmetic.
"""

import argparse
import sys
import time
from pathlib import Path

from ccmax.harness import SWEEP

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    if args.workers < 1:
        ap.error(f"--workers must be at least 1, got {args.workers}")

    all_ok = True
    t0 = time.perf_counter()
    for name, run in SWEEP:
        report = run(args.workers)
        all_ok &= report.passed
        for line in report.summary_lines():
            print(line)
        golden = GOLDEN / f"{name}.json"
        if not golden.is_file():
            print(f"{name}: no golden file {golden}")
            all_ok = False
        elif (report.to_json() + "\n").encode() != golden.read_bytes():
            print(f"{name}: report differs from {golden}")
            all_ok = False
    print(f"total: {time.perf_counter() - t0:.1f}s, {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
