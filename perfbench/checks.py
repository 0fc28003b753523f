"""Output checks. Each check is counted; a failing one is recorded, never
raised, so the run reports `failed` out of `attempted` and exits non-zero."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Class counts pinned by the sweep cells (graphs_examined).
# OEIS A000088: graphs on n nodes. OEIS A002851: connected cubic graphs.
# The subcubic counts are derived from this code, not from a published table.
PINNED_COUNTS = {
    "T4_n3": (4, "OEIS A000088"),
    "T4_n4": (11, "OEIS A000088"),
    "T4_n5": (34, "OEIS A000088"),
    "T4_n6": (156, "OEIS A000088"),
    "T4_n7": (1044, "OEIS A000088"),
    "T1_k3_n6": (2, "OEIS A002851"),
    "T1_k3_n8": (5, "OEIS A002851"),
    "T1_k3_n10": (19, "OEIS A002851"),
    "T1_k3_n12": (85, "OEIS A002851"),
    "T23_n6": (29, "derived from this code"),
    "T23_n7": (64, "derived from this code"),
    "T23_n8": (194, "derived from this code"),
    "T23_n9": (531, "derived from this code"),
    "T23_n10": (1733, "derived from this code"),
}


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """Report digests and hard-set results recorded at the seed commit."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checks:
    """Counts attempted checks and keeps the first failures for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def error(self, name: str, exc: BaseException) -> None:
        """An exception where a result was expected counts as one failure."""
        self.check(name, False, f"{type(exc).__name__}: {exc}")


def check_report(
    checks: Checks,
    key: str,
    report,
    text: str,
    expected: dict,
    pinned: dict = PINNED_COUNTS,
) -> None:
    """A verification report must pass, its to_json() text must hash to the
    digest recorded at the seed commit, and its class count must match any
    pinned count."""
    checks.check(f"{key} passed", report.passed is True)
    want = expected["reports"].get(key)
    checks.check(
        f"{key} to_json sha256",
        want is not None and sha256(text) == want,
        f"got {sha256(text)}, recorded {want}",
    )
    if key in pinned:
        count, source = pinned[key]
        checks.check(
            f"{key} class count ({source})",
            report.graphs_examined == count,
            f"got {report.graphs_examined}, pinned {count}",
        )
