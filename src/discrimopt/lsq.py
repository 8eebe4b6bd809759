"""Lower-level parameter estimation.

Bound-constrained, optionally regularized, weighted nonlinear least squares
with deterministic Sobol multistart.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares
from scipy.stats import qmc

from .core import Design, ModelEvaluationError, ModelPair, ParameterSpace, t_value

__all__ = ["FitConfig", "FitResult", "FitError", "sobol_points", "fit_parameters"]


class FitError(RuntimeError):
    """Every multistart attempt failed; carries the best partial iterate."""

    def __init__(self, message, best_theta=None, skipped=()):
        super().__init__(message)
        self.best_theta = best_theta
        self.skipped = tuple(skipped)


@dataclass(frozen=True)
class FitConfig:
    """Multistart and regularization settings for the weighted LS fit."""

    n_starts: int = 9
    lam: float = 1e-8
    local_tol: float = 1e-10
    max_local_iters: int = 200

    def __post_init__(self):
        if self.n_starts < 0:
            raise ValueError("n_starts must be >= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.local_tol <= 0:
            raise ValueError("local_tol must be positive")


@dataclass(frozen=True)
class FitResult:
    theta_hat: np.ndarray
    objective: float
    regularized_objective: float
    start_index: int


def sobol_points(dim: int, n: int, box: ParameterSpace) -> list[np.ndarray]:
    """First n post-origin points of the unscrambled Sobol sequence in the box.

    The all-zeros initial point is skipped: it maps to a box corner, which is
    a poor start for kinetic models.  Deterministic across runs.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim != box.dimension:
        raise ValueError(f"dim {dim} does not match box dimension {box.dimension}")
    if n == 0:
        return []
    with warnings.catch_warnings():
        # n + 1 is generally not a power of two; balance is irrelevant here.
        warnings.simplefilter("ignore", UserWarning)
        unit = qmc.Sobol(d=dim, scramble=False).random(n + 1)[1:]
    return [box.lower + u * (box.upper - box.lower) for u in unit]


def _stacked_residuals(pair: ModelPair, design: Design, lam: float):
    """Residual function sqrt(w_i + lam) * (f1 - f2) stacked over support, and its Jacobian.

    The regularizer enters as a uniform extra weight per point, which gives
    the same objective as a separate penalty block with half the residuals.
    The Jacobian is ``"2-point"`` (finite differences) unless the pair has
    ``alternative_jac``.  Then one call per point gives both residual and
    Jacobian rows, and the Jacobian callable returns the rows stored for the
    last theta, evaluating afresh only for a theta it has not seen last.
    """
    sqrt_w = np.sqrt(design.weights + lam)
    refs = [pair.eval_reference(x) for x in design.points]

    if pair.alternative_jac is None:

        def residuals(theta):
            return np.concatenate(
                [
                    s * (ref - pair.eval_alternative(x, theta))
                    for s, ref, x in zip(sqrt_w, refs, design.points)
                ]
            )

        return residuals, "2-point"

    d_y = pair.d_y
    last_theta, last = None, None

    def evaluate(theta):
        nonlocal last_theta, last
        if last_theta is None or not np.array_equal(last_theta, theta):
            r = np.empty(d_y * len(refs))
            jac = np.empty((d_y * len(refs), theta.shape[0]))
            for i, (s, ref, x) in enumerate(zip(sqrt_w, refs, design.points)):
                y, jac_i = pair.eval_alternative_jac(x, theta)
                r[i * d_y:(i + 1) * d_y] = s * (ref - y)
                jac[i * d_y:(i + 1) * d_y] = -s * jac_i
            last_theta, last = theta.copy(), (r, jac)
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
    cfg: FitConfig = FitConfig(),
) -> FitResult:
    """Fit the alternative model's parameters to the reference on a design.

    Minimizes sum_i (w_i + lam) * ||f1(x_i) - f2(x_i, theta)||^2 over the
    parameter box with a bound-constrained trust-region least-squares solver,
    started from the warm start plus ``cfg.n_starts`` Sobol points.  The
    Jacobian is exact when the pair has ``alternative_jac`` and a forward
    difference (relative step 1e-7) otherwise.  ``objective`` is the
    unregularized value.
    """
    space = pair.parameter_space
    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(space.clip(warm_start))
    starts.extend(sobol_points(space.dimension, cfg.n_starts, space))
    if not starts:
        raise FitError("no starting points: supply a warm start or n_starts > 0")

    residuals, jac = _stacked_residuals(pair, design, cfg.lam)
    tol = cfg.local_tol
    best = None
    best_index = -1
    skipped = []
    for i, x0 in enumerate(starts):
        try:
            res = least_squares(
                residuals,
                x0,
                jac=jac,
                bounds=(space.lower, space.upper),
                method="dogbox",
                xtol=tol,
                ftol=tol,
                gtol=tol,
                diff_step=1e-7,
                max_nfev=cfg.max_local_iters * (space.dimension + 1),
            )
        except ModelEvaluationError as exc:
            skipped.append((i, exc))
            continue
        if best is None or res.cost < best.cost:
            best = res
            best_index = i
    if best is None:
        raise FitError(
            f"all {len(starts)} least-squares starts failed", skipped=skipped
        )

    theta = space.clip(best.x)
    objective = t_value(pair, design, theta)
    regularized = float(2.0 * best.cost)
    return FitResult(
        theta_hat=theta,
        objective=objective,
        regularized_objective=regularized,
        start_index=best_index,
    )
