"""The benchmark's answer checks accept the program's designs and reject perturbed ones.

    python3 -m pytest benchmarks/test_checks.py

The fixtures are ``design.json`` files written by ``discrimopt solve`` on
each workload. Every perturbation below must make ``check_design`` report
at least one error; the kinetics cases take a few seconds each, because
each check integrates the models afresh.
"""
import copy
import json
import unittest
from pathlib import Path

from checks import check_design

FIXTURES = Path(__file__).resolve().parent / "fixtures"
WORKLOADS = ("mm-2adapt", "kinetics-2adapt")


def load(workload: str) -> dict:
    return json.loads((FIXTURES / f"{workload}.json").read_text())


def heaviest(payload: dict) -> int:
    return max(range(len(payload["weights"])), key=payload["weights"].__getitem__)


def shift_t(delta):
    def perturb(workload, payload):
        payload["t_value"] += delta

    return perturb


def move_point(workload, payload):
    point = payload["support"][heaviest(payload)]
    if workload.startswith("mm"):
        point[0] += 0.1 if point[0] < 2.5 else -0.1
    else:
        point[3] = 4.0 if point[3] != 4.0 else 6.0  # another lattice time


def add_weight(workload, payload):
    payload["weights"][heaviest(payload)] += 0.05


def move_weight(workload, payload):
    i = heaviest(payload)
    j = max((k for k in range(len(payload["weights"])) if k != i), key=payload["weights"].__getitem__)
    payload["weights"][i] -= 0.05
    payload["weights"][j] += 0.05


PERTURBATIONS = {
    "T shifted by +3e-5": shift_t(3e-5),
    "T shifted by -3e-5": shift_t(-3e-5),
    "one support point moved": move_point,
    "a weight raised by 0.05": add_weight,
    "0.05 of weight moved to another point": move_weight,
}


class ChecksTest(unittest.TestCase):
    def test_program_designs_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                errors, _ = check_design(workload, load(workload))
                self.assertEqual(errors, [])

    def test_perturbed_designs_fail(self):
        for workload in WORKLOADS:
            original = load(workload)
            for label, perturb in PERTURBATIONS.items():
                with self.subTest(workload=workload, perturbation=label):
                    payload = copy.deepcopy(original)
                    perturb(workload, payload)
                    errors, _ = check_design(workload, payload)
                    self.assertNotEqual(errors, [], f"{label} passed the {workload} checks")


if __name__ == "__main__":
    unittest.main()
