"""Golden reports: TheoremReport.to_json() must not change by a single byte.

tests/golden/ holds the to_json() of the scripts/verify_all.py cells that
run in a few seconds on one worker (T1 up to n=12, T23 n=6-11, T4 n=3-7 and
every caveman cell). Any change to enumeration order, canonical labels,
exact values or the structure predicates shows up here as a byte diff.
If a change of output is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from ccmax import (
    verify_caveman_rewire,
    verify_theorem1,
    verify_theorem4,
    verify_theorem23,
)

GOLDEN = Path(__file__).parent / "golden"

CELLS = (
    [(f"T1_k{k}_n{n}", verify_theorem1, (k, n)) for k, n in
     ((3, 6), (3, 8), (3, 10), (3, 12), (4, 10))]
    + [(f"T23_n{n}", verify_theorem23, (n,)) for n in range(6, 12)]
    + [(f"T4_n{n}", verify_theorem4, (n,)) for n in range(3, 8)]
    + [(f"caveman_k{k}_l{length}", verify_caveman_rewire, (k, length))
       for k in (3, 4, 5, 6) for length in (2, 3, 4)]
)


@pytest.mark.parametrize(
    "name,verify,args", [pytest.param(*c, id=c[0]) for c in CELLS]
)
def test_report_bytes(name, verify, args):
    want = (GOLDEN / f"{name}.json").read_text()
    assert verify(*args).to_json() + "\n" == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, verify, args in CELLS:
        (GOLDEN / f"{name}.json").write_text(verify(*args).to_json() + "\n")
