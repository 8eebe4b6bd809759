"""Domain types for designs, design spaces, and model pairs.

A design is a discrete probability measure over design points.  The
fundamental quantities everything else consumes live here as well: the
squared model distance phi and the weighted criterion value T.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DesignError",
    "ModelEvaluationError",
    "Design",
    "Box",
    "Lattice",
    "ModelPair",
    "pointwise",
    "canonical_key",
    "squared_distance",
    "t_value",
    "mix_designs",
    "prune_design",
]

# Canonical rounding used to decide whether two design points coincide.
_CANONICAL_DIGITS = 12

# Weight sums are validated at 1e-9 (solver round-off) and then rescaled so
# the stored sum is exact to machine precision, satisfying the 1e-12 invariant.
_WEIGHT_SUM_TOL = 1e-9


class DesignError(ValueError):
    """Invalid design, space, or configuration data."""


class ModelEvaluationError(RuntimeError):
    """A model evaluator failed; carries the offending inputs."""

    def __init__(self, message: str, x=None, theta=None):
        super().__init__(message)
        self.x = x
        self.theta = theta


def canonical_key(coords) -> tuple:
    """Round coordinates to 12 significant digits for duplicate detection."""
    return tuple(float(f"{float(c):.{_CANONICAL_DIGITS}g}") for c in np.atleast_1d(coords))


@dataclass(frozen=True)
class Design:
    """Discrete design: support points (n, d) with weights (n,) on the simplex.

    Duplicate points (after canonical rounding) are merged by summing their
    weights; weights must be nonnegative and sum to one.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise DesignError(
                f"designs need one weight per point, got {pts.shape[0]} points "
                f"and {w.shape[0]} weights"
            )
        if pts.shape[0] == 0:
            raise DesignError("designs must have at least one point")
        if not np.all(np.isfinite(pts)):
            raise DesignError("design point coordinates must be finite")
        if not np.all(np.isfinite(w)):
            raise DesignError("weights must be finite")
        if np.any(w < 0):
            raise DesignError(f"weights must be nonnegative, got {w}")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise DesignError(f"weights must sum to 1, got {total!r}")

        merged: dict[tuple, int] = {}
        out_pts: list[np.ndarray] = []
        out_w: list[float] = []
        for p, wi in zip(pts, w):
            key = canonical_key(p)
            if key in merged:
                out_w[merged[key]] += wi
            else:
                merged[key] = len(out_pts)
                out_pts.append(p)
                out_w.append(float(wi))
        pts = np.array(out_pts, dtype=float)
        w = np.array(out_w, dtype=float)
        w = w / w.sum()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Box:
    """Bounded box [lower, upper] componentwise: a continuous design space, or
    the admissible parameters of the alternative model."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise DesignError("box bounds must have equal dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DesignError("box must be bounded (finite bounds)")
        if np.any(lo > hi):
            raise DesignError("box requires lower <= upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lower, self.upper)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(
            x.shape == self.lower.shape
            and np.all(x >= self.lower - tol)
            and np.all(x <= self.upper + tol)
        )


@dataclass(frozen=True)
class Lattice:
    """Finite design space: cross product of per-dimension level lists."""

    levels: tuple

    def __post_init__(self):
        clean = []
        for lv in self.levels:
            arr = np.atleast_1d(np.asarray(lv, dtype=float))
            if arr.size == 0:
                raise DesignError("lattice level lists must be nonempty")
            if np.any(np.diff(arr) <= 0):
                raise DesignError("lattice levels must be strictly increasing")
            arr.setflags(write=False)
            clean.append(arr)
        object.__setattr__(self, "levels", tuple(clean))

    @property
    def dimension(self) -> int:
        return len(self.levels)

    def enumerate(self):
        """All lattice points in lexicographic order."""
        for combo in itertools.product(*self.levels):
            yield np.array(combo, dtype=float)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != self.dimension:
            return False
        return all(np.any(np.abs(lv - xi) <= tol) for lv, xi in zip(self.levels, x))


DesignSpace = Box | Lattice


def pointwise(fn):
    """Batch a per-point model callable ``fn(x, *theta)``: one call per row of X, stacked."""
    return lambda X, *theta: np.array([np.atleast_1d(np.asarray(fn(x, *theta), dtype=float)) for x in X])


@dataclass(frozen=True)
class ModelPair:
    """Fixed reference model f1(X) and parameterized alternative f2(X, theta).

    Both evaluators take the design points as the rows of X, shape (n, d),
    and return the responses as the rows of an (n, d_y) array; they must be
    deterministic, and a non-finite output is a :class:`ModelEvaluationError`.
    A row may depend only on its own point (and theta): rows from one call
    are reused one by one, as the candidates' and the scan grid's reference
    rows are for a whole solve.  ``pointwise`` adapts per-point callables.
    ``alternative_jac``, when given, returns ``(f2(X, theta), d f2 / d theta)``
    with shapes (n, d_y) and (n, d_y, p) from one call; its responses must
    equal ``alternative``'s.  Without it, fits use finite differences.  The
    ``eval_*`` methods take a 1-D X as one point.
    """

    reference: Callable[[np.ndarray], np.ndarray]
    alternative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    parameter_space: Box
    d_y: int = 1
    alternative_jac: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    def eval_reference(self, X) -> np.ndarray:
        """Reference responses (n, d_y) at the rows of X."""
        return self._evaluate("reference", X)[0]

    def eval_alternative(self, X, theta) -> np.ndarray:
        """Alternative responses (n, d_y) at the rows of X."""
        return self._evaluate("alternative", X, theta)[0]

    def eval_alternative_jac(self, X, theta) -> tuple[np.ndarray, np.ndarray]:
        """Alternative responses (n, d_y) and Jacobians (n, d_y, p) from one call."""
        return tuple(self._evaluate("alternative_jac", X, theta))

    def _evaluate(self, name: str, X, theta=None) -> list[np.ndarray]:
        """Call one model callable on the rows of X, with one error wrap and one shape and finiteness check."""
        x = np.asarray(X, dtype=float)
        X = np.atleast_2d(x)
        theta = None if theta is None else np.atleast_1d(np.asarray(theta, dtype=float))
        args = () if theta is None else (theta,)
        jac = name == "alternative_jac"
        try:
            out = getattr(self, name)(X, *args)
            out = [np.asarray(a, dtype=float) for a in (out if jac else (out,))]
        except ModelEvaluationError:
            raise
        except Exception as exc:
            raise ModelEvaluationError(
                f"{name} model failed at x={x}, theta={theta}: {exc}", x=x, theta=theta
            ) from exc
        shapes = [a.shape for a in out]
        expected = [(len(X), self.d_y)]
        if jac:
            expected.append((len(X), self.d_y, len(theta)))
        if shapes != expected:
            raise ModelEvaluationError(
                f"{name} model returned shapes {shapes}, expected {expected}", x=x, theta=theta
            )
        if not all(np.isfinite(a).all() for a in out):
            raise ModelEvaluationError(f"{name} model returned non-finite values at x={x}, theta={theta}",
                                       x=x, theta=theta)
        return out


def squared_distance(pair: ModelPair, X, theta2, refs=None) -> np.ndarray:
    """Squared distances (n,) between reference (or the given ``refs``) and alternative at the rows of X."""
    refs = pair.eval_reference(X) if refs is None else refs
    return np.array([r @ r for r in refs - pair.eval_alternative(X, theta2)])


def t_value(pair: ModelPair, design: Design, theta2, phi=None) -> float:
    """T = sum_i w_i * phi(x_i, theta2) in design order; the one place this sum is computed.

    Given ``phi``, the squared distances at the design's points (a fit's
    ``FitResult.phi``), it evaluates nothing.
    """
    if phi is None:
        phi = squared_distance(pair, design.points, theta2)
    elif len(phi) != design.n_points:
        raise ValueError(f"phi has {len(phi)} values for {design.n_points} design points")
    return float(sum(wi * p for p, wi in zip(phi, design.weights)))


def mix_designs(a: Design, b: Design, alpha: float) -> Design:
    """Convex combination (1 - alpha) * a + alpha * b with duplicate merging."""
    if not 0.0 <= alpha <= 1.0:
        raise DesignError(f"alpha must be in [0, 1], got {alpha}")
    if a.dimension != b.dimension:
        raise DesignError("cannot mix designs over different spaces")
    pts = np.vstack([a.points, b.points])
    w = np.concatenate([(1.0 - alpha) * a.weights, alpha * b.weights])
    return Design(pts, w)


def prune_design(design: Design, threshold: float = 1e-6) -> Design:
    """Drop points below the weight threshold and renormalize.

    Falls back to the single heaviest point if everything is below threshold.
    """
    if not 0.0 <= threshold < 1.0:
        raise DesignError(f"prune threshold must be in [0, 1), got {threshold}")
    mask = design.weights >= threshold
    if not np.any(mask):
        i = int(np.argmax(design.weights))
        return Design(design.points[i : i + 1], np.array([1.0]))
    pts = design.points[mask]
    w = design.weights[mask]
    return Design(pts, w / w.sum())
