#!/usr/bin/env python3
"""Run every exhaustive verification at full desk scale, print a summary,
and compare each report with its golden file.

The cells are ccmax.harness.SWEEP. Each report's to_json() plus a newline
must equal tests/golden/<cell>.json byte for byte; a differing or missing
golden prints the cell's name. Exit status is 0 only if every check passes
and every report matches its golden. Standard error gets one
"<cell>: <seconds>s" line per cell, so standard output stays the same from
one run to the next but for its total line.

On a 2-core Intel Xeon host with Python 3.11 the 30 cells, checks
included, took 4.0-5.2 s at 1 worker and 3.2-3.3 s at 2 (3 runs each; the
host's speed swings by up to 2x). T23 n=12 is about half of it (2.1-2.9 s
at 1 worker and 1.4-1.6 s at 2, mostly enumeration); T4 n=8 takes
0.7-0.8 s, enumeration included, and T1 k=3 n=12 0.16-0.21 s.
--workers splits each large enumeration once across processes; it is
capped at the CPUs this process may use.
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
        t_cell = time.perf_counter()
        report = run(args.workers)
        print(f"{name}: {time.perf_counter() - t_cell:.2f}s", file=sys.stderr)
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
