"""Criterion value of the published kinetics design, on the shipped box and wider ones.

The kinetics benchmark's published optimal design has support
(0.5, 0.1, 0.0, 2.0), (0.9, 0.3, 0.3, 10.0), (0.5, 0.1, 0.0, 10.0) with
weights 0.5562, 0.4116, 0.0322 and a published criterion value of
1.9322e-3.  For a fixed design the criterion value is the global minimum of
the lower-level fit T(xi, theta) over the alternative's parameter box, so it
can be computed without running the design solver at all.  This script does
that for the box in ``kinetics.config`` and for boxes with a wider k1 bound:

1. Sobol multistart fits with 9, 64 and 256 starts on the shipped box.
2. A 10^4-point grid over the shipped box (10 levels per parameter), with a
   local fit from each of the five best grid points.
3. Fits with the k1 upper bound raised to 1.2, 1.5 and 2.0.
4. Optionally (``--solve-k1 K``) a full 2adapt solve with the k1 upper bound
   raised to K, to see which design is optimal on that box.

It prints T and theta_hat = (k1, k2, n1, n2) for each case, and marks the
components of theta_hat that sit on a bound.  Run from the repository root:

    PYTHONPATH=src python scripts/kinetics_published_design.py
    PYTHONPATH=src python scripts/kinetics_published_design.py --solve-k1 1.5

Parts 1-3 take under a minute on one core (about 25 s on a 2-core machine
with Python 3.11); the optional solve takes longer.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import itertools
import time

import numpy as np

from discrimopt import Box, Design, two_adapt_md
from discrimopt.config import load_config
from discrimopt.lsq import fit_parameters

PUBLISHED_SUPPORT = [
    [0.5, 0.1, 0.0, 2.0],
    [0.9, 0.3, 0.3, 10.0],
    [0.5, 0.1, 0.0, 10.0],
]
PUBLISHED_WEIGHTS = [0.5562, 0.4116, 0.0322]
PUBLISHED_T = 1.9322e-3

SOBOL_STARTS = (9, 64, 256)
GRID_LEVELS = 10
GRID_REFINE = 5
WIDE_K1_BOUNDS = (1.2, 1.5, 2.0)


def on_bounds(theta, space: Box) -> str:
    names = ("k1", "k2", "n1", "n2")
    marks = [
        f"{name}={'lower' if np.isclose(v, lo) else 'upper'}"
        for name, v, lo, hi in zip(names, theta, space.lower, space.upper)
        if np.isclose(v, lo) or np.isclose(v, hi)
    ]
    return ", ".join(marks) or "none"


def show(label, t, theta, space, seconds):
    theta_txt = ", ".join(f"{v:.4f}" for v in theta)
    print(
        f"{label:<34} T = {t:.6e}  theta_hat = ({theta_txt})  "
        f"on bound: {on_bounds(theta, space)}  [{seconds:.0f}s]",
        flush=True,
    )


def with_k1_upper(pair, k1_upper):
    box = pair.parameter_space
    upper = box.upper.copy()
    upper[0] = k1_upper
    return dataclasses.replace(pair, parameter_space=Box(box.lower, upper))


def grid_search(pair, design, lam):
    """Exhaustive grid over the parameter box, then local fits from the best points."""
    box = pair.parameter_space
    refs = pair.eval_reference(design.points)

    def criterion(theta):
        residuals = refs - pair.eval_alternative(design.points, theta)
        return float(design.weights @ np.sum(residuals**2, axis=1))

    axes = [np.linspace(lo, hi, GRID_LEVELS) for lo, hi in zip(box.lower, box.upper)]
    scored = sorted(
        (criterion(np.array(theta)), theta) for theta in itertools.product(*axes)
    )
    fits = [
        fit_parameters(pair, design, warm_start=np.array(theta), n_starts=0, lam=lam)
        for _, theta in scored[:GRID_REFINE]
    ]
    return scored[0], min(fits, key=lambda f: f.objective)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--solve-k1",
        type=float,
        metavar="K",
        help="also run a full 2adapt solve with the k1 upper bound raised to K",
    )
    args = parser.parse_args(argv)

    config = importlib.resources.files("discrimopt") / "configs" / "kinetics.config"
    cfg = load_config(str(config))
    pair = cfg.pair
    n_starts, lam = cfg.params.n_theta_starts, cfg.params.lam
    design = Design(np.array(PUBLISHED_SUPPORT), np.array(PUBLISHED_WEIGHTS))
    box = pair.parameter_space
    print(f"published T = {PUBLISHED_T:.4e}")
    print(f"shipped box: lower {box.lower.tolist()}, upper {box.upper.tolist()}")

    print("\n1. Sobol multistart on the shipped box")
    for n in SOBOL_STARTS:
        t0 = time.perf_counter()
        fit = fit_parameters(pair, design, n_starts=n, lam=lam)
        show(f"{n} starts", fit.objective, fit.theta_hat, box, time.perf_counter() - t0)

    print(f"\n2. {GRID_LEVELS ** box.dimension}-point grid on the shipped box")
    t0 = time.perf_counter()
    (grid_t, grid_theta), refined = grid_search(pair, design, lam)
    seconds = time.perf_counter() - t0
    show("best grid point", grid_t, grid_theta, box, seconds)
    show(f"best of {GRID_REFINE} local refinements", refined.objective, refined.theta_hat, box, seconds)

    print("\n3. Wider k1 upper bound, configured Sobol starts")
    for k1_upper in WIDE_K1_BOUNDS:
        wide = with_k1_upper(pair, k1_upper)
        t0 = time.perf_counter()
        fit = fit_parameters(wide, design, n_starts=n_starts, lam=lam)
        show(
            f"k1 <= {k1_upper}",
            fit.objective,
            fit.theta_hat,
            wide.parameter_space,
            time.perf_counter() - t0,
        )

    if args.solve_k1 is not None:
        print(f"\n4. Full 2adapt solve with k1 <= {args.solve_k1}")
        wide = with_k1_upper(pair, args.solve_k1)
        result = two_adapt_md(wide, cfg.space, cfg.initial, cfg.params)
        status = "converged" if result.converged else "stalled" if result.stalled else "not converged"
        show(
            f"{status}, accuracy {result.accuracy:.1e}",
            result.t_value,
            result.theta_hat,
            wide.parameter_space,
            result.runtime_seconds,
        )
        for point, weight in sorted(zip(result.design.points.tolist(), result.design.weights)):
            print(f"    support {tuple(point)}  weight {weight:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
