"""Inner global maximization of the squared model distance.

Finds the design point maximizing phi(x, theta_hat) for fixed fitted
parameters: exact enumeration on lattices, dense-grid multistart with local
refinement on boxes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import (
    DesignSpace,
    Lattice,
    ModelEvaluationError,
    ModelPair,
    canonical_key,
    squared_distance,
)

__all__ = ["GlobalSearchConfig", "maximize_distance"]


@dataclass(frozen=True)
class GlobalSearchConfig:
    grid_per_dim: int = 64
    refine_top: int = 5
    local_tol: float = 1e-10
    # Relative slack below the maximum within which lattice values count as
    # tied; absorbs integrator round-off between analytically equal points
    # (relative error in the squared distance is ~10x the integration
    # tolerance through the squaring).
    tie_rel: float = 1e-6

    def __post_init__(self):
        if self.grid_per_dim < 2:
            raise ValueError("grid_per_dim must be >= 2")
        if self.refine_top < 1:
            raise ValueError("refine_top must be >= 1")
        if self.local_tol <= 0:
            raise ValueError("local_tol must be positive")
        if self.tie_rel < 0:
            raise ValueError("tie_rel must be nonnegative")


def _lexicographic_better(a: np.ndarray, b: np.ndarray) -> bool:
    """True if a precedes b lexicographically."""
    for ai, bi in zip(a, b):
        if ai != bi:
            return ai < bi
    return False


def _phi_or_none(pair: ModelPair, x, theta_hat):
    try:
        return squared_distance(pair, x, theta_hat)[0]
    except ModelEvaluationError:
        return None


def maximize_distance(
    pair: ModelPair,
    theta_hat,
    space: DesignSpace,
    cfg: GlobalSearchConfig = GlobalSearchConfig(),
    prefer=None,
) -> tuple[np.ndarray, float]:
    """Return (argmax, max) of phi(., theta_hat) over the design space.

    Lattice spaces are enumerated exactly; ties break to a point from
    `prefer` (an iterable of points, e.g. candidates a caller already
    tracks) when one ties, else to the lexicographically smallest point, so
    equivalent lattice points never displace known ones.  Box spaces use a
    dense coordinate grid followed by bound-constrained local refinement
    from the best grid cells.  Model evaluation failures at individual
    candidates are skipped, and one during a local refinement abandons that
    refinement.
    """
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    if isinstance(space, Lattice):
        axes = space.levels
    else:
        axes = [
            np.linspace(lo, hi, cfg.grid_per_dim)
            for lo, hi in zip(space.lower, space.upper)
        ]
    X = np.array(list(itertools.product(*axes)), dtype=float)
    error = None
    try:
        values = squared_distance(pair, X, theta_hat)
    except ModelEvaluationError as exc:
        # Row by row, so that a failing candidate is skipped alone.
        error, values = exc, [_phi_or_none(pair, x, theta_hat) for x in X]

    scored: list[tuple[float, np.ndarray]] = []
    n_failed = 0
    best_val = -np.inf
    best_x = None
    for v, x in zip(values, X):
        if v is None:
            n_failed += 1
            continue
        scored.append((v, x))
        if v > best_val or (v == best_val and _lexicographic_better(x, best_x)):
            best_val = v
            best_x = x
    if best_x is None:
        raise ModelEvaluationError(
            f"all {n_failed} candidate evaluations failed: {error}", theta=theta_hat
        ) from error

    if isinstance(space, Lattice):
        # Near-ties resolve to a preferred (already-known) point when one
        # ties, otherwise to the lexicographically smallest point.
        cutoff = best_val - cfg.tie_rel * abs(best_val)
        prefer_keys = {canonical_key(p) for p in prefer} if prefer is not None else set()
        tied_preferred = None
        for v, x in scored:
            if v < cutoff:
                continue
            if canonical_key(x) in prefer_keys and (
                tied_preferred is None or _lexicographic_better(x, tied_preferred)
            ):
                tied_preferred = x
            if _lexicographic_better(x, best_x):
                best_x = x
        if tied_preferred is not None:
            best_x = tied_preferred
        return best_x.copy(), best_val

    # Box: refine the top grid cells with a local bound-constrained maximizer.
    scored.sort(key=lambda sv: -sv[0])
    bounds = list(zip(space.lower, space.upper))

    def neg_phi(x):
        return -squared_distance(pair, x, theta_hat)[0]

    for v0, x0 in scored[: cfg.refine_top]:
        try:
            res = minimize(
                neg_phi,
                x0,
                method="L-BFGS-B",
                bounds=bounds,
                options={"ftol": cfg.local_tol, "gtol": cfg.local_tol, "eps": 1e-7},
            )
        except ModelEvaluationError:
            # A failed evaluation ends this refinement; the grid value stands.
            continue
        x = np.clip(res.x, space.lower, space.upper)
        v = -float(res.fun)
        if v > best_val or (v == best_val and _lexicographic_better(x, best_x)):
            best_val = v
            best_x = x
    return best_x.copy(), best_val
