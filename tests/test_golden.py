"""Pinned answers: two benchmark solves reproduce stored outputs.

The files in ``tests/golden/`` are the ``design.json`` (minus
``runtime_seconds``) and ``history.csv`` (minus the ``*_time`` columns)
that ``discrimopt solve`` wrote for ``mm.config`` and
``benchmarks/kinetics.config`` with the 2adapt solver.  A change that
moves an answer, a speed-up included, fails here.  Numbers are compared
within 1e-12 relative; on one machine they repeat exactly.
"""
import csv
import importlib.resources
import json
from pathlib import Path

import pytest

from discrimopt.cli import main

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
CONFIGS = {
    "mm-2adapt": str(importlib.resources.files("discrimopt") / "configs" / "mm.config"),
    "kinetics-2adapt": str(ROOT / "benchmarks" / "kinetics.config"),
}
REL = 1e-12


def same(expected, actual) -> bool:
    """Equal structure and strings; numbers within REL relative."""
    if isinstance(expected, dict):
        return expected.keys() == actual.keys() and all(same(expected[k], actual[k]) for k in expected)
    if isinstance(expected, list):
        return len(expected) == len(actual) and all(same(e, a) for e, a in zip(expected, actual))
    if isinstance(expected, str):
        try:
            expected, actual = float(expected), float(actual)
        except ValueError:
            return expected == actual
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return expected == actual
    return actual == pytest.approx(expected, rel=REL, abs=0)


def history_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: v for k, v in row.items() if not k.endswith("_time")} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("run", sorted(CONFIGS))
def test_solve_reproduces_pinned_answer(run, tmp_path):
    code = main(["solve", "--config", CONFIGS[run], "--algorithm", "2adapt", "--out", str(tmp_path)])
    assert code == 0
    design = json.loads((tmp_path / "design.json").read_text())
    design.pop("runtime_seconds")
    assert same(json.loads((GOLDEN / f"{run}.design.json").read_text()), design)
    assert same(history_rows(GOLDEN / f"{run}.history.csv"), history_rows(tmp_path / "history.csv"))
