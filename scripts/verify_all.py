#!/usr/bin/env python3
"""Run every exhaustive verification at full desk scale and print a summary.

Exit status is 0 only if all checks pass. On a 2-core machine with Python
3.11 the 30 cells take about 22-31 s at 1 worker and 17-24 s at 2 (the
host's speed swings). Two cells are most of it: T23 n=12 (9-11 s, mostly
enumeration) and T4 n=8 (8-9 s, exact clustering arithmetic). --workers
splits each large enumeration once across processes; it does not spread
T4's arithmetic.
"""

import argparse
import sys
import time

from ccmax import (
    verify_caveman_rewire,
    verify_theorem1,
    verify_theorem23,
    verify_theorem4,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    jobs = []
    for k, n in ((3, 6), (3, 8), (3, 10), (3, 12), (4, 10)):
        jobs.append(lambda k=k, n=n: verify_theorem1(k, n, workers=args.workers))
    for n in (6, 7, 8, 9, 10, 11, 12):
        jobs.append(lambda n=n: verify_theorem23(n, workers=args.workers))
    for n in (3, 4, 5, 6, 7, 8):
        jobs.append(lambda n=n: verify_theorem4(n, workers=args.workers))
    for k in (3, 4, 5, 6):
        for length in (2, 3, 4):
            jobs.append(
                lambda k=k, length=length: verify_caveman_rewire(k, length)
            )

    all_ok = True
    t0 = time.perf_counter()
    for job in jobs:
        report = job()
        all_ok &= report.passed
        for line in report.summary_lines():
            print(line)
    print(f"total: {time.perf_counter() - t0:.1f}s, {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
