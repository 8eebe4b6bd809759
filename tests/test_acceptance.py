"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The heavyweight benchmark solves run once per session via module-scoped
fixtures and are shared across criteria.
"""
import csv
import importlib.resources
import itertools
import json
import math
import time

import numpy as np
import pytest

from discrimopt import (
    AlgoParams,
    Box,
    Design,
    Lattice,
    ModelPair,
    ParameterSpace,
    check_optimality,
    make_mm_pair,
    pointwise,
    two_adapt_md,
)
from discrimopt.algorithms import Discretization, disc_md
from discrimopt.config import load_config
from discrimopt.core import squared_distance, t_value
from discrimopt.lsq import fit_parameters
from discrimopt.models import IntegratorTol, KineticsInput, KineticsParams, integrate_kinetics
from discrimopt.cli import main

from conftest import linear_vs_constant

CONFIG_DIR = importlib.resources.files("discrimopt") / "configs"
MM_CONFIG = str(CONFIG_DIR / "mm.config")
KINETICS_CONFIG = str(CONFIG_DIR / "kinetics.config")

KINETICS_LATTICE = list(
    itertools.product(
        [0.5, 0.7, 0.9], [0.1, 0.2, 0.3], [0.0, 0.15, 0.3], [2.0, 4.0, 6.0, 8.0, 10.0]
    )
)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def run_solve(tmp_path_factory, config, label, algorithm=None):
    out = tmp_path_factory.mktemp(label)
    argv = ["solve", "--config", config, "--out", str(out)]
    if algorithm:
        argv += ["--algorithm", algorithm]
    t0 = time.perf_counter()
    code = main(argv)
    runtime = time.perf_counter() - t0
    design = json.loads((out / "design.json").read_text())
    with (out / "history.csv").open() as fh:
        history = list(csv.DictReader(fh))
    return code, design, history, runtime, out


@pytest.fixture(scope="module")
def mm_run(tmp_path_factory):
    return run_solve(tmp_path_factory, MM_CONFIG, "accept_mm")


@pytest.fixture(scope="module")
def vdm_run(tmp_path_factory):
    return run_solve(tmp_path_factory, MM_CONFIG, "accept_vdm", algorithm="vdm")


@pytest.fixture(scope="module")
def kinetics_run(tmp_path_factory):
    return run_solve(tmp_path_factory, KINETICS_CONFIG, "accept_kin")


@pytest.fixture(scope="module")
def toy_run():
    pair = linear_vs_constant()
    initial = Design(np.array([[0.5]]), np.array([1.0]))
    params = AlgoParams(eps=1e-8, eps_sip=1e-12, max_iter_sip=60)
    return pair, two_adapt_md(pair, Box([0.0], [1.0]), initial, params=params)


def sorted_support(design_payload):
    pairs = sorted(zip(design_payload["support"], design_payload["weights"]))
    return [p for p, _ in pairs], [w for _, w in pairs]


def test_mm_benchmark_reproduction(mm_run):
    code, design, _, runtime, _ = mm_run
    pts, wts = sorted_support(design)
    errors = []
    if code != 0 or not design["converged"]:
        errors.append(f"not converged (exit {code})")
    if abs(design["t_value"] - 1.1854e-3) > 2e-5:
        errors.append(f"t_value {design['t_value']:.6e}")
    expected_pts = [0.386, 2.596, 5.0]
    expected_wts = [0.3906, 0.3896, 0.2198]
    if len(pts) != 3:
        errors.append(f"{len(pts)} support points")
    else:
        for (p,), e in zip(pts, expected_pts):
            if abs(p - e) > 0.02:
                errors.append(f"support {p} vs {e}")
        for w, e in zip(wts, expected_wts):
            if abs(w - e) > 0.01:
                errors.append(f"weight {w} vs {e}")
    if design["accuracy"] > 1e-5:
        errors.append(f"accuracy {design['accuracy']:.2e}")
    if runtime > 60:
        errors.append(f"runtime {runtime:.0f}s")
    report(
        "MM benchmark reproduction",
        not errors,
        "; ".join(errors)
        or f"T={design['t_value']:.6e}, accuracy={design['accuracy']:.2e}, {runtime:.1f}s",
    )


def test_vdm_reproduction(vdm_run):
    code, design, _, _, _ = vdm_run
    ok = (
        design["accuracy"] <= 1e-5
        and design["t_value"] >= 1.175e-3
        and design["iterations"] <= 1000
    )
    report(
        "VDM reproduction",
        ok,
        f"T={design['t_value']:.6e}, accuracy={design['accuracy']:.2e}, "
        f"iterations={design['iterations']}",
    )


# The published criterion value of the kinetics benchmark.  It belongs to a
# parameter box for the alternative model that this repository cannot
# establish: on the box in kinetics.config the published design itself has
# T = 2.2388e-3 (k1 sits on its upper bound 1.0 at the fit), and no design
# solver can return less than that.  See scripts/kinetics_published_design.py.
KINETICS_PUBLISHED_T = 1.9322e-3
KINETICS_PUBLISHED_DESIGN = {
    (0.5, 0.1, 0.0, 2.0): 0.5562,
    (0.9, 0.3, 0.3, 10.0): 0.4116,
    (0.5, 0.1, 0.0, 10.0): 0.0322,
}


def published_kinetics_t():
    """Criterion value of the published kinetics design on the shipped box.

    A cold Sobol multistart fit with the configured settings, independent of
    the design solver's LP, outer loop, global search and fitted parameters.
    """
    cfg = load_config(KINETICS_CONFIG)
    design = Design(
        np.array(list(KINETICS_PUBLISHED_DESIGN)),
        np.array(list(KINETICS_PUBLISHED_DESIGN.values())),
    )
    return fit_parameters(cfg.pair, design, n_starts=cfg.params.n_theta_starts, lam=cfg.params.lam).objective


def test_kinetics_benchmark_reproduction(kinetics_run):
    code, design, _, runtime, _ = kinetics_run
    errors = []
    if code != 0 or not design["converged"]:
        errors.append(f"not converged (exit {code})")
    t_published_design = published_kinetics_t()
    if abs(design["t_value"] - t_published_design) > 2e-5:
        errors.append(
            f"t_value {design['t_value']:.6e} (published design on the shipped box: "
            f"{t_published_design:.6e} +/- 2e-5; published value {KINETICS_PUBLISHED_T:.4e})"
        )
    expected = KINETICS_PUBLISHED_DESIGN
    support = {
        tuple(p): w for p, w in zip(design["support"], design["weights"]) if w >= 1e-3
    }
    if set(support) != set(expected):
        errors.append(f"support {sorted(support)}")
    else:
        for key, w_exp in expected.items():
            if abs(support[key] - w_exp) > 0.01:
                errors.append(f"weight at {key}: {support[key]:.4f} vs {w_exp}")
    if design["accuracy"] > 1e-5:
        errors.append(f"accuracy {design['accuracy']:.2e}")
    if runtime > 1800:
        errors.append(f"runtime {runtime:.0f}s")
    report(
        "Kinetics benchmark reproduction",
        not errors,
        "; ".join(errors)
        or f"T={design['t_value']:.6e} (published design {t_published_design:.6e}), "
        f"accuracy={design['accuracy']:.2e}, {runtime:.0f}s",
    )


def test_analytic_oracle(toy_run):
    _, result = toy_run
    support = {round(p[0], 9): w for p, w in zip(result.design.points, result.design.weights)}
    errors = []
    if set(support) != {0.0, 1.0}:
        errors.append(f"support {sorted(support)}")
    else:
        for x in (0.0, 1.0):
            if abs(support[x] - 0.5) > 1e-6:
                errors.append(f"weight at {x}: {support[x]!r}")
    if abs(result.t_value - 0.25) > 1e-8:
        errors.append(f"t_value {result.t_value!r}")
    if abs(result.theta_hat[0] - 0.5) > 1e-7:
        errors.append(f"theta_hat {result.theta_hat[0]!r}")
    report(
        "Analytic oracle (linear vs constant)",
        not errors,
        "; ".join(errors)
        or f"weights within {max(abs(w - 0.5) for w in support.values()):.1e} of 1/2",
    )


def test_equivalence_theorem_suite(toy_run, mm_run, kinetics_run):
    failures = []

    # Converged solves must certify.
    toy_pair, toy_result = toy_run
    toy_report = check_optimality(
        toy_pair, toy_result.design, toy_result.theta_hat, Box([0.0], [1.0])
    )
    if not (toy_report.max_psi <= 1e-5 and toy_report.min_support_gap <= 1e-5):
        failures.append(f"toy: max_psi={toy_report.max_psi:.2e}")

    for label, run, config in (("mm", mm_run, MM_CONFIG), ("kinetics", kinetics_run, KINETICS_CONFIG)):
        _, payload, _, _, _ = run
        cfg = load_config(config)
        design = Design(np.array(payload["support"]), np.array(payload["weights"]))
        theta = np.array(payload["theta_hat"])
        rep = check_optimality(cfg.pair, design, theta, cfg.space)
        if not (rep.max_psi <= 1e-5 and rep.min_support_gap <= 1e-5):
            failures.append(
                f"{label}: max_psi={rep.max_psi:.2e}, gap={rep.min_support_gap:.2e}"
            )

    # Deliberately perturbed designs must fail loudly.
    cfg = load_config(MM_CONFIG)
    _, payload, _, _, _ = mm_run
    w = np.array(payload["weights"]).copy()
    w[0] += 0.05
    w[1] -= 0.05
    perturbed = Design(np.array(payload["support"]), w)
    fit = fit_parameters(cfg.pair, perturbed, warm_start=payload["theta_hat"])
    rep = check_optimality(cfg.pair, perturbed, fit.theta_hat, cfg.space)
    if not rep.max_psi > 10 * 1e-5:
        failures.append(f"perturbed mm: max_psi={rep.max_psi:.2e} not > 1e-4")

    toy_perturbed = Design(np.array([[0.0], [1.0]]), np.array([0.55, 0.45]))
    fit = fit_parameters(toy_run[0], toy_perturbed, lam=0.0)
    rep = check_optimality(toy_run[0], toy_perturbed, fit.theta_hat, Box([0.0], [1.0]))
    if not rep.max_psi > 10 * 1e-5:
        failures.append(f"perturbed toy: max_psi={rep.max_psi:.2e} not > 1e-4")

    report("Equivalence-theorem property suite", not failures, "; ".join(failures))


def test_monotonicity_suite(mm_run, kinetics_run, toy_run):
    failures = []
    for label, history in (("mm", mm_run[2]), ("kinetics", kinetics_run[2])):
        # Inner LP relaxation values nonincreasing within each outer iteration.
        for outer, rows in itertools.groupby(
            (r for r in history if r["phase"] == "disc"),
            key=lambda r: r["outer_iteration"],
        ):
            t_lps = [float(r["t_lp"]) for r in rows]
            if any(b > a + 1e-10 for a, b in zip(t_lps, t_lps[1:])):
                failures.append(f"{label}: t_LP increased in outer iter {outer}")
        outer_t = [float(r["t_value"]) for r in history if r["phase"] == "outer"]
        eps_sip = 1e-5
        if any(b < a - eps_sip for a, b in zip(outer_t, outer_t[1:])):
            failures.append(f"{label}: outer T dropped by more than eps_sip")
    _, toy_result = toy_run
    if not toy_result.accuracy >= -1e-12:
        failures.append("toy: negative reported accuracy")
    report("Monotonicity suite", not failures, "; ".join(failures))


def test_small_lattice_brute_force_equivalence():
    pair = make_mm_pair()
    levels = [0.2, 0.8, 1.6, 2.8, 5.0]
    candidates = [np.array([x]) for x in levels]
    d = Discretization(pair, candidates, [np.array([1.0, 1.0])])
    _, _, fit, converged = disc_md(pair, d, AlgoParams(eps_sip=1e-6, max_iter_sip=40))

    # Independent maximin oracle: exhaustive inner minimum over a 200x200
    # parameter grid, hierarchical weight-simplex grid refined to 1e-3.
    def mm(x, V, K):
        return V * x / (K + x)

    vv, kk = np.meshgrid(
        np.linspace(1e-3, 5, 200), np.linspace(1e-3, 5, 200), indexing="ij"
    )
    phi = np.array(
        [(mm(x, 1.0, 1.0) + 0.1 * x - mm(x, vv, kk).ravel()) ** 2 for x in levels]
    )

    def value(w):
        return np.min(w @ phi)

    steps = 20
    best_v, best_w = -np.inf, None
    for combo in itertools.combinations_with_replacement(range(5), steps):
        w = np.bincount(combo, minlength=5) / steps
        v = value(w)
        if v > best_v:
            best_v, best_w = v, w

    def refine(w0, step, halfrange):
        top_v, top_w = value(w0), w0
        n = int(round(halfrange / step))
        for delta in itertools.product(range(-n, n + 1), repeat=4):
            last = -sum(delta)
            if abs(last) > n:
                continue
            w = w0 + step * np.array(list(delta) + [last])
            if np.any(w < -1e-12):
                continue
            w = np.clip(w, 0.0, None)
            w = w / w.sum()
            v = value(w)
            if v > top_v:
                top_v, top_w = v, w
        return top_v, top_w

    best_v, best_w = refine(best_w, 0.01, 0.05)
    best_v, best_w = refine(best_w, 0.001, 0.01)

    rel = abs(fit.objective - best_v) / best_v
    report(
        "Small-lattice brute-force equivalence",
        converged and rel <= 2e-3,
        f"solver T={fit.objective:.6e}, oracle T={best_v:.6e}, rel diff {rel:.2e}",
    )


def test_multi_response_consistency():
    # The same scalar model exposed as a float return and as a length-1
    # vector return must produce bit-identical criterion values.
    space = ParameterSpace([0.0], [1.0])
    scalar_pair = ModelPair(
        reference=pointwise(lambda x: math.sin(3.0 * x[0])),
        alternative=pointwise(lambda x, th: th[0] * x[0]),
        parameter_space=space,
        d_y=1,
    )
    vector_pair = ModelPair(
        reference=pointwise(lambda x: np.array([math.sin(3.0 * x[0])])),
        alternative=pointwise(lambda x, th: np.array([th[0] * x[0]])),
        parameter_space=space,
        d_y=1,
    )
    design = Design(np.array([[0.2], [0.6], [0.9]]), np.array([0.3, 0.3, 0.4]))
    theta = [0.7]
    mismatches = []
    if t_value(scalar_pair, design, theta) != t_value(vector_pair, design, theta):
        mismatches.append("t_value")
    for x in ([0.1], [0.5], [0.9]):
        a = squared_distance(scalar_pair, x, theta) - t_value(scalar_pair, design, theta)
        b = squared_distance(vector_pair, x, theta) - t_value(vector_pair, design, theta)
        if a != b:
            mismatches.append(f"psi at {x}")
    report("Multi-response reduction consistency", not mismatches, "; ".join(mismatches))


def test_integrator_checks():
    failures = []

    # Linear chain (first-order, irreversible) against the closed form.
    k1, k2 = 0.7, 0.2
    params = KineticsParams(k1, k2, 0.0, 1.0, 1.0, 1.0)
    for a0, b0, c0, t in [(0.5, 0.1, 0.0, 2.0), (0.7, 0.2, 0.15, 6.0), (0.9, 0.3, 0.3, 10.0)]:
        out = integrate_kinetics(params, KineticsInput(a0, b0, c0, t))
        a = a0 * math.exp(-k1 * t)
        b = b0 * math.exp(-k2 * t) + a0 * k1 / (k2 - k1) * (
            math.exp(-k1 * t) - math.exp(-k2 * t)
        )
        c = a0 + b0 + c0 - a - b
        err = np.max(np.abs(out - np.array([a, b, c])))
        if err > 1e-7:
            failures.append(f"linear chain error {err:.1e} at t={t}")

    # Mass conservation across the full benchmark lattice.
    ref = KineticsParams(0.7, 0.2, 0.1, 2.0, 2.0, 1.0)
    worst = 0.0
    for x in KINETICS_LATTICE:
        out = integrate_kinetics(ref, KineticsInput(*x))
        worst = max(worst, abs(out.sum() - sum(x[:3])))
    if worst > 1e-8:
        failures.append(f"mass conservation violated by {worst:.1e}")

    report(
        "Integrator checks",
        not failures,
        "; ".join(failures) or f"worst conservation error {worst:.1e}",
    )
