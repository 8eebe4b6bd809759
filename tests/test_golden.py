"""Pinned answers: benchmark solves reproduce stored outputs.

The files in ``tests/golden/`` are the ``design.json`` (minus
``runtime_seconds``) and ``history.csv`` (minus the ``*_time`` columns)
that ``discrimopt solve`` wrote for ``mm.config`` under 2adapt, vdm and
disc, and for ``benchmarks/kinetics.config`` under 2adapt and disc.  Both
disc runs stop unconverged, with exit code 2.  A change that moves an
answer, a speed-up included, fails here.  Numbers are compared
within 1e-12 relative; on one machine they repeat exactly.

``mm-disc`` was written by commit a51d231, which makes DISC's cut fits
start from the warm start alone.  ``kinetics-2adapt`` and ``kinetics-disc``
were written again by the child of 9657464, which computes the irreversible
alternative's a in closed form and integrates b alone, with the step control
on b's error estimate: T moved 8.1e-9 relative on 2adapt
(2.23888983786492e-3 to 2.2388898559082054e-3) and 1.5e-9 on disc
(2.238608656249e-3 to 2.238608659658e-3), with the same iteration and
history-row counts.  The 2adapt support did not move.  The disc support
moved only between lattice points that differ in c0 alone, with the same
weights, to the published support: neither model's a and b depend on c0,
so such points differ in the distance only by rounding, and the
alternative's a and b are now bit-identical across c0.  Before that, the
child of 4790e81, which holds the parameters a least-squares start's
gradient pushes out of the box, moved T 2.3e-12 on 2adapt and 1.7e-9 on
disc.
``mm-2adapt`` was written again by the commit that starts the box search's
refinements only from grid points that are local maxima (fe2e3bb).
``mm-vdm`` was written again by its child, which fits each VDM iteration
from the last fit alone and runs the Sobol starts only on the fit the run
ends on: T moved 3.7e-9 relative (1.180445555e-3 to 1.180445559e-3), with
the same 160 iterations and 129 support points.  CHANGES.md gives how far
each answer moved.
"""
import csv
import importlib.resources
import json
from pathlib import Path

import pytest

from discrimopt.cli import main

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent
MM = str(importlib.resources.files("discrimopt") / "configs" / "mm.config")
KINETICS = str(ROOT / "benchmarks" / "kinetics.config")
# run name -> (config, algorithm, exit code)
RUNS = {
    "mm-2adapt": (MM, "2adapt", 0),
    "mm-vdm": (MM, "vdm", 0),
    "mm-disc": (MM, "disc", 2),
    "kinetics-2adapt": (KINETICS, "2adapt", 0),
    "kinetics-disc": (KINETICS, "disc", 2),
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


@pytest.mark.parametrize("run", sorted(RUNS))
def test_solve_reproduces_pinned_answer(run, tmp_path):
    config, algorithm, expected_code = RUNS[run]
    code = main(["solve", "--config", config, "--algorithm", algorithm, "--out", str(tmp_path)])
    assert code == expected_code
    design = json.loads((tmp_path / "design.json").read_text())
    design.pop("runtime_seconds")
    assert same(json.loads((GOLDEN / f"{run}.design.json").read_text()), design)
    assert same(history_rows(GOLDEN / f"{run}.history.csv"), history_rows(tmp_path / "history.csv"))
