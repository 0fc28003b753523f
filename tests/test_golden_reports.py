"""Golden reports: TheoremReport.to_json() must not change by a single byte.

tests/golden/ holds the to_json() of every cell of ccmax.harness.SWEEP, the
sweep of scripts/verify_all.py, which checks all of them, as does this
module. Any change to enumeration order, canonical labels, exact values or
the structure predicates shows up here as a byte diff. If a change of output is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and say so in CHANGES.md.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from ccmax.harness import SWEEP

GOLDEN = Path(__file__).parent / "golden"

# The slowest cell, T23 n=12, takes 6-8 s at 1 worker on a 2-core host
# (19,430 graphs), within the 30 s per-test limit.
@pytest.mark.parametrize("name,run", [pytest.param(name, run, id=name) for name, run in SWEEP])
def test_report_bytes(name, run):
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert (run(1).to_json() + "\n").encode() == want


def test_goldens_are_the_sweep():
    assert {p.stem for p in GOLDEN.glob("*.json")} == {name for name, _ in SWEEP}


def _load_verify_all():
    path = Path(__file__).parent.parent / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    return verify_all


def test_verify_all_compares_goldens(tmp_path, monkeypatch, capsys):
    verify_all = _load_verify_all()
    names = ("caveman_k3_l2", "caveman_k4_l3")
    monkeypatch.setattr(verify_all, "SWEEP", [(n, dict(SWEEP)[n]) for n in names])
    monkeypatch.setattr(verify_all, "GOLDEN", tmp_path)
    for name in names:
        (tmp_path / f"{name}.json").write_bytes((GOLDEN / f"{name}.json").read_bytes())
    assert verify_all.main([]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("PASS\n")
    # one line of seconds per cell, on stderr only
    seconds = re.compile(r"(\w+): \d+\.\d\ds")
    assert [seconds.fullmatch(line)[1] for line in captured.err.splitlines()] == list(names)
    assert not any(seconds.fullmatch(line) for line in captured.out.splitlines())

    tampered = tmp_path / "caveman_k4_l3.json"
    tampered.write_bytes(tampered.read_bytes().replace(b'"k": 4', b'"k": 5'))
    assert verify_all.main([]) == 1
    out = capsys.readouterr().out
    assert "caveman_k4_l3: report differs" in out and "caveman_k3_l2:" not in out
    assert out.endswith("FAIL\n")

    tampered.unlink()
    assert verify_all.main([]) == 1
    assert "caveman_k4_l3: no golden file" in capsys.readouterr().out


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_verify_all_rejects_workers_below_one(workers, monkeypatch, capsys):
    verify_all = _load_verify_all()
    ran = []
    monkeypatch.setattr(verify_all, "SWEEP", [("cell", ran.append)])
    with pytest.raises(SystemExit) as exit_info:
        verify_all.main(["--workers", workers])
    assert exit_info.value.code == 2
    assert ran == []
    assert "--workers must be at least 1" in capsys.readouterr().err


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, run in SWEEP:
        (GOLDEN / f"{name}.json").write_text(run(1).to_json() + "\n")
