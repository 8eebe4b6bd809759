"""Inner global maximization of the squared model distance.

Finds the design point maximizing phi(x, theta_hat) for fixed fitted
parameters: exact enumeration on lattices; on boxes, a dense grid scan and
local refinement from the grid's best local maxima, so that each peak is
refined once.  The refinement is L-BFGS-B through discrimopt's own driver
around scipy's compiled ``setulb`` (``scipy.optimize._lbfgsb``, loaded
without importing ``scipy.optimize``), with ``minimize``'s iterates.
"""
from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np

from .core import (
    Box,
    DesignSpace,
    Lattice,
    ModelEvaluationError,
    ModelPair,
    canonical_key,
    forward_steps,
    scipy_extension,
    squared_distance,
)

__all__ = ["maximize_distance", "scan_grid"]

# The box search scans _GRID_PER_DIM levels per axis of nonzero width (one
# level on an axis of width 0) and refines with L-BFGS-B from at most
# _REFINE_TOP grid points, the best of the grid's local maxima.
_GRID_PER_DIM = 64
_REFINE_TOP = 5
# The absolute finite-difference step of the box refinement's gradient.
_FD_STEP = 1e-7
# L-BFGS-B's ftol and gtol in the box refinement, and its iteration and
# function-evaluation limits (scipy's defaults).
_LOCAL_TOL = 1e-10
_MAXITER = _MAXFUN = 15000
# Relative slack below the maximum within which lattice values count as
# tied; absorbs integrator round-off between analytically equal points
# (relative error in the squared distance is ~10x the integration
# tolerance through the squaring).
_TIE_REL = 1e-6

_lbfgsb = scipy_extension("optimize._lbfgsb")


def _first_or_none(fn, *args):
    """The first row of ``fn(*args)``, or None when a model evaluation fails."""
    try:
        return fn(*args)[0]
    except ModelEvaluationError:
        return None


def _neg_phi_and_gradient(pair: ModelPair, theta_hat, space: Box, free: np.ndarray, best=None):
    """-phi(x, theta_hat) and its gradient in the coordinates ``free`` of x (the rest at their lower bounds).

    One model call evaluates x and its steps; the largest phi among them and its point replace
    ``best``, a list [phi, point], when they exceed it.  The gradient is L-BFGS-B's default, scipy's
    ``approx_derivative(method="2-point", abs_step=_FD_STEP)`` in the box: its steps
    (``forward_steps``) and its quotient by (z + h) - z.
    """
    lower, upper = space.lower[free], space.upper[free]

    def neg_phi_and_gradient(z):
        h = forward_steps(z, _FD_STEP, lower, upper)
        X = np.tile(space.lower, (free.size + 1, 1))
        X[:, free] = z
        X[np.arange(1, free.size + 1), free] += h
        f = -squared_distance(pair, X, theta_hat)
        i = f.argmin()
        if best is not None and -f[i] > best[0]:
            best[:] = -f[i], X[i]
        return f[0], (f[1:] - f[0]) / ((z + h) - z)

    return neg_phi_and_gradient


def lbfgsb(fun, x0, lower, upper, tol):
    """Minimize ``fun`` (x -> f, gradient) over the finite box [lower, upper] from x0 by L-BFGS-B (Byrd et al. 1995).

    The calls of scipy's ``minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=..., options={"ftol": tol,
    "gtol": tol, "maxiter": _MAXITER, "maxfun": _MAXFUN})`` to its ``setulb``: x0 clipped into the box, 10
    corrections, 20 line-search steps, ``fun`` called again only at a point unequal to the last one, and the
    same stops, so ``x``, ``fun``, ``jac``, ``nfev`` and ``nit`` equal scipy's bit for bit.
    """
    x0, lower, upper = np.ravel(x0), np.array(lower, dtype=float), np.array(upper, dtype=float)
    if not x0.shape == lower.shape == upper.shape:
        raise ValueError(f"x0, lower and upper must have one length, got {x0.shape}, {lower.shape}, {upper.shape}")
    x = np.clip(x0, lower, upper).astype(float)
    n, m = x.size, 10
    # The last point evaluated and f, g there; setulb's first call (task START) reads no f or g.
    seen, (f_seen, g_seen), nfev, nit = x.copy(), fun(x.copy()), 1, 0
    f, g = np.array(0.0), np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # both bounds finite
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    while True:
        g = g.astype(np.float64)
        _lbfgsb.setulb(m, x, lower, upper, nbd, f, g, tol / np.finfo(float).eps, tol, wa, iwa, task, lsave, isave,
                       dsave, 20, ln_task)
        if task[0] == 3:  # f and g wanted at x
            if not np.array_equal(x, seen):
                seen, (f_seen, g_seen) = x.copy(), fun(x.copy())
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= _MAXITER or nfev > _MAXFUN:
                task[:] = 5, 504 if nit >= _MAXITER else 502
        else:
            return SimpleNamespace(x=x, fun=f, jac=g, nfev=nfev, nit=nit)


def _axes(space: DesignSpace) -> list:
    """The levels of each axis of the scan: the lattice's, or the box grid's (one level where the width is 0)."""
    if isinstance(space, Lattice):
        return space.levels
    return [np.linspace(lo, hi, _GRID_PER_DIM if lo < hi else 1) for lo, hi in zip(space.lower, space.upper)]


def _local_maxima(space: Box, X: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The rows of ``X``, box grid points, whose value is >= both neighbours' along every axis, best first.

    A grid point missing from ``X`` or with value -inf is no maximum and counts as -inf for its
    neighbours; among equal values the order of ``X`` stands.
    """
    axes = _axes(space)
    V = np.full([len(a) for a in axes], -np.inf)
    row = np.full(V.shape, -1)
    at = tuple(np.searchsorted(a, X[:, j]) for j, a in enumerate(axes))
    V[at], row[at] = values, np.arange(len(X))
    peak = V > -np.inf
    for axis in range(V.ndim):
        v, p = np.moveaxis(V, axis, 0), np.moveaxis(peak, axis, 0)
        p[1:] &= v[1:] >= v[:-1]
        p[:-1] &= v[:-1] >= v[1:]
    rows = row[peak]  # in the order of X, which is the grid's
    return rows[np.argsort(-values[rows], kind="stable")]


def scan_grid(pair: ModelPair, space: DesignSpace):
    """The points that :func:`maximize_distance` scans, the lattice or the box's grid, and their reference rows.

    A point where the reference fails is left out, so every scan skips it; failing everywhere raises.
    """
    X = np.array(list(itertools.product(*_axes(space))), dtype=float)
    try:
        return X, pair.eval_reference(X)
    except ModelEvaluationError as exc:
        # Row by row, so that a failing point is left out alone.
        rows = [_first_or_none(pair.eval_reference, x) for x in X]
        if all(r is None for r in rows):
            raise ModelEvaluationError(f"all {len(X)} reference evaluations failed: {exc}") from exc
        return X[[r is not None for r in rows]], np.array([r for r in rows if r is not None])


def maximize_distance(
    pair: ModelPair,
    theta_hat,
    space: DesignSpace,
    *,
    prefer=None,
    grid=None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Return (argmax, max) of phi(., theta_hat) over the design space, and phi at the scan points.

    Lattice spaces are enumerated exactly; ties break to a point from
    `prefer` (an iterable of points, e.g. candidates a caller already
    tracks) when one ties, else to the lexicographically smallest point, so
    equivalent lattice points never displace known ones.  Box spaces use a
    dense coordinate grid followed by bound-constrained local refinement
    from the best grid points that are local maxima (at most
    ``_REFINE_TOP``), one model call per L-BFGS-B step.  ``grid`` is
    :func:`scan_grid`'s points and reference rows when the caller holds
    them.  Model evaluation failures at individual candidates are skipped
    (their phi is NaN), and one during a local refinement ends it at the
    best point it evaluated.  The scan's phi is :func:`squared_distance`'s
    at the scan points.
    """
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    X, refs = scan_grid(pair, space) if grid is None else grid
    error = None
    try:
        scan_phi = squared_distance(pair, X, theta_hat, refs)
    except ModelEvaluationError as exc:
        # Row by row, so that a failing candidate is skipped alone.
        error = exc
        values = (_first_or_none(squared_distance, pair, x, theta_hat, r[None]) for x, r in zip(X, refs))
        scan_phi = np.array([np.nan if v is None else v for v in values])

    # The maximum; among equal values the lexicographically smallest point.
    evaluated = ~np.isnan(scan_phi)
    scored = list(zip(scan_phi[evaluated], X[evaluated]))
    best_val, best_x = -np.inf, None
    for v, x in scored:
        if v > best_val or (v == best_val and tuple(x) < tuple(best_x)):
            best_val, best_x = v, x
    if best_x is None:
        raise ModelEvaluationError(
            f"all {len(X) - len(scored)} candidate evaluations failed: {error}", theta=theta_hat
        ) from error

    if isinstance(space, Lattice):
        # Near-ties resolve to a preferred (already-known) point when one
        # ties, otherwise to the lexicographically smallest point.
        tied = [x for v, x in scored if not v < best_val - _TIE_REL * abs(best_val)]
        prefer_keys = {canonical_key(p) for p in prefer} if prefer is not None else set()
        preferred = [x for x in tied if canonical_key(x) in prefer_keys]
        return min(preferred or tied, key=tuple).copy(), best_val, scan_phi

    # Box: refine the best local maxima of the grid with a local bound-constrained
    # maximizer in the coordinates of nonzero width, as scipy's minimize does without a gradient.
    starts = _local_maxima(space, X, np.where(np.isnan(scan_phi), -np.inf, scan_phi))
    free = np.flatnonzero(space.lower < space.upper)
    best = [-np.inf, None]  # a refinement's largest evaluated phi and its point
    neg_phi_and_gradient = _neg_phi_and_gradient(pair, theta_hat, space, free, best)
    for x0 in X[starts[:_REFINE_TOP]] if free.size else ():
        best[:] = -np.inf, None
        try:
            res = lbfgsb(neg_phi_and_gradient, x0[free], space.lower[free], space.upper[free], _LOCAL_TOL)
            x = space.lower.copy()
            x[free] = res.x
            x, v = np.clip(x, space.lower, space.upper), -float(res.fun)
        except ModelEvaluationError:
            # A failed evaluation ends this refinement; the best point it evaluated stands.
            v, x = best
            if x is None:
                continue
        if v > best_val or (v == best_val and tuple(x) < tuple(best_x)):
            best_val, best_x = v, x
    return best_x.copy(), best_val, scan_phi
