"""Lower-level parameter estimation.

Bound-constrained, optionally regularized, weighted nonlinear least squares
with deterministic Sobol multistart.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.linalg import lstsq

from .core import Box, Design, DesignError, ModelEvaluationError, ModelPair, forward_steps, row_distances, t_value

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
    # The design's points, and the alternative's responses and Jacobian rows (None without alternative_jac)
    # at theta_hat on them: a fit of this pair started at theta_hat on these points takes its first rows here.
    points: np.ndarray
    responses: np.ndarray
    jacobian: np.ndarray | None


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


def _stacked_residuals(pair: ModelPair, design: Design, refs: np.ndarray, lam: float, seed=None):
    """Residual function sqrt(w_i + lam) * (refs - f2) stacked over support, its Jacobian, both at once, and f2.

    The regularizer enters as a uniform extra weight per point, which gives
    the same objective as a separate penalty block with half the residuals.
    The model's responses and Jacobian rows, and the residual rows made from
    them, of the last residual call and of the last Jacobian call are kept,
    each with its theta's bytes: a theta equal to either bit for bit is not
    evaluated again, and ``evaluated(theta)`` returns its responses and
    Jacobian rows (None for any other theta), from which a fit's phi at its
    result needs no model call.  ``seed``, a theta with the responses and
    Jacobian rows at the design's points there, is kept as the last
    Jacobian call's.  With ``alternative_jac``, one call over the support
    gives both residual and Jacobian rows and ``rows(theta)`` returns the
    two.  Without it, ``rows`` is None, the Jacobian rows are None, and the
    Jacobian is scipy's ``approx_derivative(method="2-point",
    rel_step=1e-7)`` in the box, from the kept residuals at theta.
    """
    points = design.points
    sqrt_w = np.sqrt(design.weights + lam)[:, None]
    exact = pair.alternative_jac is not None

    def weighed(y, jac):
        r = (sqrt_w * (refs - y)).ravel()
        return r, None if jac is None else (-sqrt_w[:, :, None] * jac).reshape(r.size, -1)

    # "r" and "jac": (theta's bytes, (responses, Jacobian rows), residual rows) of the last residual and Jacobian call
    kept = {}
    if seed is not None:
        theta, y, jac = seed
        kept["jac"] = (theta.tobytes(), (y, jac), weighed(y, jac))

    def rows(theta, call="r"):
        key = theta.tobytes()
        for seen, model_rows, value in kept.values():
            if seen == key:
                break
        else:
            if exact:
                model_rows = pair.eval_alternative_jac(points, theta)
            else:
                model_rows = pair.eval_alternative(points, theta), None
            value = weighed(*model_rows)
        kept[call] = (key, model_rows, value)
        return value

    def evaluated(theta):
        key = theta.tobytes()
        return next((model_rows for seen, model_rows, _ in kept.values() if seen == key), None)

    def residuals(theta):
        return rows(theta)[0]

    if exact:
        return residuals, (lambda theta: rows(theta, "jac")[1]), rows, evaluated

    lower, upper = pair.parameter_space.lower, pair.parameter_space.upper

    def jac(theta):  # the columns of zero-width coordinates, held at their one value, stay 0
        r0 = rows(theta, "jac")[0]
        h = forward_steps(theta, 1e-7 * theta, lower, upper)
        columns = np.zeros((theta.size, r0.size))
        for i in np.flatnonzero(lower < upper):
            step = theta + np.diag(h)[i]
            columns[i] = (weighed(pair.eval_alternative(points, step), None)[0] - r0) / (step[i] - theta[i])
        return columns.T

    return residuals, jac, None, evaluated


def _step_to_bound(x, s, lower, upper):
    """The least t >= 0 that puts x + t s on the box's boundary, and -1/+1 where it meets a lower/upper bound."""
    moves, steps = np.nonzero(s), np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[moves] = np.maximum((lower - x)[moves] / s[moves], (upper - x)[moves] / s[moves])
    return steps.min(), np.equal(steps, steps.min()) * np.sign(s).astype(int)


def _dogleg_step(newton, g, a, b, radius, lower, upper):
    """The dogleg step in the box [lower, upper] around 0 cut by |step|_inf <= radius, -1/+1 where it reaches
    a lower/upper bound of the box, and whether it stopped on the region's boundary: the Gauss-Newton step
    when it fits, else the Cauchy step (least a t^2 + b t along -g) continued towards it up to the boundary."""
    low, high = np.maximum(lower, -radius), np.minimum(upper, radius)
    if ((newton >= low) & (newton <= high)).all():
        return newton, np.zeros_like(g, dtype=int), False
    t = [0, _step_to_bound(np.zeros_like(g), -g, low, high)[0]]
    if a != 0 and t[0] < -0.5 * b / a < t[1]:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    cauchy = -t[np.argmin(t * (a * t + b))] * g
    size, hits = _step_to_bound(cauchy, newton - cauchy, low, high)
    hits_bound = ((hits > 0) & np.equal(high, upper)).astype(int) - ((hits < 0) & np.equal(low, lower))
    on_region = ((hits < 0) & np.equal(low, -radius) | (hits > 0) & np.equal(high, radius)).any()
    return cauchy + size * (newton - cauchy), hits_bound, on_region


def least_squares(fun, x0, jac, lower, upper, max_nfev):
    """Minimize 0.5 |fun(x)|^2 over lower < upper from x0 by dogbox (Voglis & Lagaris 2004).

    The floating-point operations of scipy's ``least_squares(method="dogbox")`` with a dense callable
    ``jac`` and xtol = ftol = gtol = _LOCAL_TOL: ``x``, ``cost``, ``nfev``, ``njev``, ``status`` and
    ``active_mask`` equal scipy's bit for bit.  ``fun`` raises on a non-finite residual.
    """
    f, J = fun(x0), jac(x0)
    cost, g = 0.5 * np.dot(f, f), J.T.dot(f)
    radius = np.abs(x0).max() or 1.0
    on_bound = np.equal(x0, upper).astype(int) - np.equal(x0, lower)
    x, status, nfev, njev = x0, None, 1, 1
    while True:
        # A coordinate on a bound that the gradient pushes out of the box stays there this iteration.
        free = ~(on_bound * g < 0)
        g_free = g[free]
        g[~free] = 0
        status = 1 if np.abs(g).max() < _LOCAL_TOL else status
        if status is not None or nfev == max_nfev:
            return SimpleNamespace(x=x, cost=cost, nfev=nfev, njev=njev, status=status or 0, active_mask=on_bound)
        J_free, lower_free, upper_free = J[:, free], lower[free] - x[free], upper[free] - x[free]
        newton = lstsq(J_free, -f, rcond=-1)[0]
        v = J_free.dot(-g_free)
        a, b = 0.5 * np.dot(v, v), np.dot(g_free, -g_free)
        reduction = -1.0
        while status is None and reduction <= 0 and nfev < max_nfev:
            step_free, on_bound_free, region_hit = _dogleg_step(newton, g_free, a, b, radius, lower_free, upper_free)
            step = np.zeros_like(x)
            step[free] = step_free
            Js = J_free.dot(step_free)
            predicted = -(0.5 * np.dot(Js, Js) + np.dot(step_free, g_free))
            x_new = np.clip(x + step, lower, upper)
            f_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            ratio = reduction / predicted if predicted > 0 else float(predicted == reduction == 0)
            if ratio < 0.25:
                radius = 0.25 * np.abs(step).max()
            elif ratio > 0.75 and region_hit:
                radius *= 2.0
            ftol_met = reduction < _LOCAL_TOL * cost and ratio > 0.25
            xtol_met = np.sqrt(step.dot(step)) < _LOCAL_TOL * (_LOCAL_TOL + np.sqrt(x.dot(x)))
            status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3 if xtol_met else None
        if reduction > 0:  # accepted: the coordinates that reached a bound are set on it
            on_bound[free] = on_bound_free
            x = np.where(on_bound == -1, lower, np.where(on_bound == 1, upper, x_new))
            f, cost, J = f_new, cost_new, jac(x)
            njev += 1
            g = J.T.dot(f)


def _local_fit(residuals, jac, rows, x0: np.ndarray, space: Box):
    """One dogbox start from x0 that holds the zero-width coordinates (lower == upper) and, with ``rows``
    (an exact Jacobian), each coordinate on a bound where g = J^T r points out of the box (lower bound with
    g > 0, upper with g < 0).  When such a held g points into the box at the result (KKT), the fit goes on
    from it over every coordinate of nonzero width.  Every g comes from rows already evaluated, and a start
    with every coordinate held is its own result."""
    lower, upper = space.lower, space.upper
    fixed = lower == upper
    max_nfev = _MAX_LOCAL_ITERS * (space.dimension + 1)

    def run(x, free):
        if free.all():
            return least_squares(residuals, x, jac, lower, upper, max_nfev)

        def full(z):
            theta = x.copy()
            theta[free] = z
            return theta

        res = least_squares(lambda z: residuals(full(z)), x[free], lambda z: jac(full(z))[:, free], lower[free],
                            upper[free], max_nfev)
        res.x = full(res.x)
        return res

    def on_bound_pushed(x, out=1):
        r, J = rows(x)
        g = out * (J.T @ r)
        return ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))

    held = fixed if rows is None else fixed | on_bound_pushed(x0)
    if held.all():
        r = residuals(x0)
        return SimpleNamespace(x=x0, cost=0.5 * np.dot(r, r))
    res = run(x0, ~held)
    pushed = held & ~fixed
    return run(res.x, ~fixed) if pushed.any() and on_bound_pushed(res.x, -1)[pushed].any() else res


def _seed(fit: FitResult, points: np.ndarray):
    """``fit``'s theta_hat with its responses and Jacobian rows at ``points``, or None unless every point is one
    of the fit's bit for bit."""
    index = {p.tobytes(): i for i, p in enumerate(fit.points)}
    at = [index.get(p.tobytes()) for p in points]
    if None in at:
        return None
    return fit.theta_hat, fit.responses[at], None if fit.jacobian is None else fit.jacobian[at]


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
    parameter box by the dogbox loop ``least_squares`` (scipy's dogbox bit
    for bit), started from the warm start plus ``n_starts`` Sobol points; a
    negative ``n_starts`` or ``lam`` raises ValueError.  The Jacobian is exact
    when the pair has ``alternative_jac`` and a forward difference (relative
    step 1e-7) otherwise.  Every start holds the parameters of zero width
    (lower == upper).  With the exact Jacobian, a start also holds each
    parameter on a bound with the cost's gradient pointing out of the box;
    when a held gradient points into the box at that result, the fit goes on
    from it over every parameter of nonzero width.  ``objective`` is the
    unregularized value, the weighted sum of ``phi``.  ``phi``, and the
    result's ``responses`` and ``jacobian``, are the rows the winning start
    evaluated at theta_hat, kept when it became the best, so the result
    costs no model call of its own.  ``refs`` is the reference rows at the
    design's points when the caller holds them; only without it is the
    reference evaluated, once.

    ``warm_start`` may be a :class:`FitResult` of this pair: the fit starts at
    its ``theta_hat``, and when the design's points are among the fit's, bit
    for bit, takes its rows there instead of evaluating the model.  The rows
    of a point depend on nothing else (the ``ModelPair`` contract), so the
    result is the one from ``theta_hat`` alone, bit for bit.

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
    seed = None
    if isinstance(warm_start, FitResult):
        seed, warm_start = _seed(warm_start, design.points), warm_start.theta_hat
    starts: list[np.ndarray] = []
    if warm_start is not None:
        starts.append(space.clip(warm_start))
    starts.extend(sobol_points(n_starts, space))
    if not starts and incumbent is None:
        raise FitError("no starting points: supply a warm start or n_starts > 0")

    refs = pair.eval_reference(design.points) if refs is None else refs
    residuals, jac, rows, evaluated = _stacked_residuals(pair, design, refs, lam, seed)
    best, best_index = None, -1
    # The incumbent is start 0; its regularized objective is twice its cost, exactly.
    best_cost = None if incumbent is None else incumbent.regularized_objective / 2.0
    skipped = []
    for i, x0 in enumerate(starts, start=0 if incumbent is None else 1):
        try:
            res = _local_fit(residuals, jac, rows, x0, space)
        except ModelEvaluationError as exc:
            skipped.append((i, exc))
            continue
        if best_cost is None or res.cost < best_cost:
            # The rows at the start's result are the last ones it evaluated there; a later start replaces them.
            best, best_cost, best_index, best_rows = res, res.cost, i, evaluated(space.clip(res.x))
    if best is None:
        if incumbent is not None:
            return incumbent
        raise FitError(f"all {len(starts)} least-squares starts failed", skipped=skipped)

    theta = space.clip(best.x)
    y, jacobian = best_rows
    phi = row_distances(refs, y)
    return FitResult(
        theta_hat=theta,
        objective=t_value(pair, design, theta, phi),
        regularized_objective=float(2.0 * best.cost),
        start_index=best_index,
        phi=phi,
        points=design.points,
        responses=y,
        jacobian=jacobian,
    )

