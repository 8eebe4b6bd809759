"""Lower-level parameter estimation.

Bound-constrained, optionally regularized, weighted nonlinear least squares
with deterministic Sobol multistart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .core import Box, Design, DesignError, ModelEvaluationError, ModelPair, squared_distance, t_value

__all__ = ["FitResult", "FitError", "sobol_points", "fit_parameters"]

# Each least-squares start stops at xtol = ftol = gtol = _LOCAL_TOL, or after
# _MAX_LOCAL_ITERS * (p + 1) residual evaluations for p parameters.
_LOCAL_TOL = 1e-10
_MAX_LOCAL_ITERS = 200


class FitError(RuntimeError):
    """Every multistart attempt failed; ``skipped`` holds (start index, error) pairs."""

    def __init__(self, message, skipped=()):
        super().__init__(message)
        self.skipped = tuple(skipped)


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    objective: float
    regularized_objective: float
    start_index: int
    phi: np.ndarray  # squared distances at theta_hat on the design's points


# Primitive polynomials and initial direction numbers of Sobol dimensions
# 2-32 (Joe & Kuo, SIAM J. Sci. Comput. 30, 2008), as scipy.stats.qmc ships
# them; dimension 1 has all direction numbers 1.
_SOBOL_POLY = (3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115, 131, 137,
               143, 145, 157, 167, 171, 185, 191, 193, 203, 211, 213)
_SOBOL_VINIT = (
    (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5),
    (1, 1, 7, 11, 19), (1, 1, 5, 1, 1), (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5), (1, 3, 1, 15, 13, 25),
    (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103), (1, 3, 7, 13, 13, 15, 69),
    (1, 1, 3, 13, 7, 35, 63), (1, 3, 5, 9, 1, 25, 53), (1, 3, 1, 13, 9, 35, 107),
    (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61), (1, 3, 5, 3, 3, 13, 69),
    (1, 1, 7, 13, 1, 19, 1), (1, 3, 7, 5, 13, 19, 59), (1, 1, 3, 9, 25, 29, 41),
    (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17),
)
_SOBOL_BITS = 30


def _sobol_unit(dim: int, n: int) -> np.ndarray:
    """Points 1..n of the unscrambled Sobol sequence in [0, 1)^dim, dim <= 32.

    Gray-code order with scipy's 30-bit direction numbers, so the points
    equal ``qmc.Sobol(dim, scramble=False).random(n + 1)[1:]`` exactly.
    """
    bits = _SOBOL_BITS
    v = [[1] * bits]
    for p, vinit in zip(_SOBOL_POLY[: dim - 1], _SOBOL_VINIT):
        m = p.bit_length() - 1
        row = list(vinit)
        for j in range(m, bits):
            new = row[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v.append(row)
    v = [[vj << (bits - 1 - j) for j, vj in enumerate(row)] for row in v]
    quasi = [0] * dim
    unit = np.empty((n, dim))
    for i in range(n):
        lowest_zero = (~i & (i + 1)).bit_length() - 1
        quasi = [q ^ row[lowest_zero] for q, row in zip(quasi, v)]
        unit[i] = quasi
    return unit * 2.0**-bits


def sobol_points(n: int, box: Box) -> list[np.ndarray]:
    """First n post-origin points of the unscrambled Sobol sequence in the box.

    The all-zeros initial point is skipped: it maps to a box corner, which is
    a poor start for kinetic models.  Deterministic across runs.  The points
    come from the embedded direction numbers, which keeps ``scipy.stats`` off
    the import path, so the box may have 1 to 32 dimensions; another raises
    DesignError.
    """
    if not 1 <= box.dimension <= len(_SOBOL_POLY) + 1:
        raise DesignError(f"Sobol starts need a box of 1 to 32 dimensions, got {box.dimension}")
    return [box.lower + u * (box.upper - box.lower) for u in _sobol_unit(box.dimension, n)]


def _stacked_residuals(pair: ModelPair, design: Design, refs: np.ndarray, lam: float):
    """Residual function sqrt(w_i + lam) * (refs - f2) stacked over support, and its Jacobian.

    The regularizer enters as a uniform extra weight per point, which gives
    the same objective as a separate penalty block with half the residuals.
    The Jacobian is ``"2-point"`` (finite differences) unless the pair has
    ``alternative_jac``.  Then one call over the support gives both residual
    and Jacobian rows, and the Jacobian callable returns the rows stored for
    the last theta, evaluating afresh only for a theta it has not seen last.
    """
    points = design.points
    sqrt_w = np.sqrt(design.weights + lam)[:, None]

    if pair.alternative_jac is None:

        def residuals(theta):
            return (sqrt_w * (refs - pair.eval_alternative(points, theta))).ravel()

        return residuals, "2-point"

    last_theta, last = None, None

    def evaluate(theta):
        nonlocal last_theta, last
        if last_theta is None or not np.array_equal(last_theta, theta):
            y, jac = pair.eval_alternative_jac(points, theta)
            r = (sqrt_w * (refs - y)).ravel()
            last_theta, last = theta.copy(), (r, (-sqrt_w[:, :, None] * jac).reshape(r.size, -1))
        return last

    def residuals(theta):
        return evaluate(theta)[0]

    def jacobian(theta):
        return evaluate(theta)[1]

    return residuals, jacobian


def fit_parameters(
    pair: ModelPair,
    design: Design,
    warm_start=None,
    n_starts: int = 9,
    lam: float = 1e-8,
    refs=None,
    *,
    incumbent: FitResult | None = None,
) -> FitResult:
    """Fit the alternative model's parameters to the reference on a design.

    Minimizes sum_i (w_i + lam) * ||f1(x_i) - f2(x_i, theta)||^2 over the
    parameter box with a bound-constrained trust-region least-squares solver,
    started from the warm start plus ``n_starts`` Sobol points; a negative
    ``n_starts`` or ``lam`` raises ValueError.  The
    Jacobian is exact when the pair has ``alternative_jac`` and a forward
    difference (relative step 1e-7) otherwise.  ``objective`` is the
    unregularized value, the weighted sum of ``phi``.  ``refs`` is the
    reference rows at the design's points when the caller holds them;
    only without it is the reference evaluated, once.

    ``incumbent`` is a fit of this design, with these ``lam`` and ``refs``,
    from its warm start alone; it stands in for that start, which is not run
    again, and may not come with ``warm_start``.  A Sobol start replaces it
    only with a strictly lower cost, so the result equals the multistart from
    that warm start bit for bit; the incumbent itself is returned, and no phi
    evaluated, when none does.
    """
    if n_starts < 0:
        raise ValueError("n_starts must be >= 0")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if incumbent is not None and warm_start is not None:
        raise ValueError("incumbent stands in for the warm start; pass one of them")
    space = pair.parameter_space
    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(space.clip(warm_start))
    starts.extend(sobol_points(n_starts, space))
    if not starts and incumbent is None:
        raise FitError("no starting points: supply a warm start or n_starts > 0")

    refs = pair.eval_reference(design.points) if refs is None else refs
    residuals, jac = _stacked_residuals(pair, design, refs, lam)
    best = None
    best_index = -1
    # The incumbent is start 0; its regularized objective is twice its cost, exactly.
    best_cost = None if incumbent is None else incumbent.regularized_objective / 2.0
    skipped = []
    for i, x0 in enumerate(starts, start=0 if incumbent is None else 1):
        try:
            res = least_squares(
                residuals,
                x0,
                jac=jac,
                bounds=(space.lower, space.upper),
                method="dogbox",
                xtol=_LOCAL_TOL,
                ftol=_LOCAL_TOL,
                gtol=_LOCAL_TOL,
                diff_step=1e-7,
                max_nfev=_MAX_LOCAL_ITERS * (space.dimension + 1),
            )
        except ModelEvaluationError as exc:
            skipped.append((i, exc))
            continue
        if best_cost is None or res.cost < best_cost:
            best, best_cost, best_index = res, res.cost, i
    if best is None:
        if incumbent is not None:
            return incumbent
        raise FitError(
            f"all {len(starts)} least-squares starts failed", skipped=skipped
        )

    theta = space.clip(best.x)
    phi = squared_distance(pair, design.points, theta, refs)
    return FitResult(
        theta_hat=theta,
        objective=t_value(pair, design, theta, phi),
        regularized_objective=float(2.0 * best.cost),
        start_index=best_index,
        phi=phi,
    )
