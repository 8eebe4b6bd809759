"""Domain types for designs, design spaces, and model pairs.

A design is a discrete probability measure over design points.  The
fundamental quantities everything else consumes live here as well: the
squared model distance phi, the weighted criterion value T, and the
directional derivative psi.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DesignError",
    "ModelEvaluationError",
    "Design",
    "Box",
    "Lattice",
    "ParameterSpace",
    "ModelPair",
    "canonical_key",
    "squared_distance",
    "t_value",
    "directional_derivative",
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

    def support(self, threshold: float = 0.0):
        """Points carrying weight > threshold."""
        mask = self.weights > threshold
        return self.points[mask], self.weights[mask]


@dataclass(frozen=True)
class Box:
    """Continuous box design space [lower, upper] componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise DesignError("box bounds must have equal dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DesignError("box bounds must be finite")
        if np.any(lo > hi):
            raise DesignError("box requires lower <= upper componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

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
        if isinstance(self.levels, (np.ndarray, list)):
            levels = tuple(self.levels)
        else:
            levels = self.levels
        clean = []
        for lv in levels:
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

    @property
    def size(self) -> int:
        return int(np.prod([len(lv) for lv in self.levels]))

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


@dataclass(frozen=True)
class ParameterSpace:
    """Bounded box of admissible parameters for the alternative model."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise DesignError("parameter bounds must have equal dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DesignError("parameter space must be bounded (finite bounds)")
        if np.any(lo > hi):
            raise DesignError("parameter space requires lower <= upper")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def clip(self, theta) -> np.ndarray:
        return np.clip(np.asarray(theta, dtype=float), self.lower, self.upper)

    def contains(self, theta, tol: float = 1e-9) -> bool:
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        return bool(
            th.shape == self.lower.shape
            and np.all(th >= self.lower - tol)
            and np.all(th <= self.upper + tol)
        )


@dataclass(frozen=True)
class ModelPair:
    """Fixed reference model f1(x) and parameterized alternative f2(x, theta).

    Both evaluators must return length ``d_y`` responses (scalars are
    accepted for ``d_y == 1``) and be deterministic.  ``alternative_jac``,
    when given, returns ``(f2(x, theta), d f2 / d theta)`` with shapes
    ``(d_y,)`` and ``(d_y, p)`` from one call; its response must equal
    ``alternative``'s.  Without it, fits use finite differences.
    """

    reference: Callable[[np.ndarray], np.ndarray]
    alternative: Callable[[np.ndarray, np.ndarray], np.ndarray]
    parameter_space: ParameterSpace
    d_y: int = 1
    alternative_jac: Callable[[np.ndarray, np.ndarray], tuple] | None = None

    def eval_reference(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        try:
            y = np.atleast_1d(np.asarray(self.reference(x), dtype=float))
        except ModelEvaluationError:
            raise
        except Exception as exc:
            raise ModelEvaluationError(
                f"reference model failed at x={x}: {exc}", x=x
            ) from exc
        if y.shape != (self.d_y,):
            raise ModelEvaluationError(
                f"reference model returned shape {y.shape}, expected ({self.d_y},)", x=x
            )
        return y

    def eval_alternative(self, x, theta) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        try:
            y = np.atleast_1d(np.asarray(self.alternative(x, theta), dtype=float))
        except ModelEvaluationError:
            raise
        except Exception as exc:
            raise ModelEvaluationError(
                f"alternative model failed at x={x}, theta={theta}: {exc}",
                x=x,
                theta=theta,
            ) from exc
        if y.shape != (self.d_y,):
            raise ModelEvaluationError(
                f"alternative model returned shape {y.shape}, expected ({self.d_y},)",
                x=x,
                theta=theta,
            )
        return y

    def eval_alternative_jac(self, x, theta) -> tuple[np.ndarray, np.ndarray]:
        """Response and parameter Jacobian from one ``alternative_jac`` call."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        try:
            y, jac = self.alternative_jac(x, theta)
            y = np.atleast_1d(np.asarray(y, dtype=float))
            jac = np.asarray(jac, dtype=float)
        except ModelEvaluationError:
            raise
        except Exception as exc:
            raise ModelEvaluationError(
                f"alternative model Jacobian failed at x={x}, theta={theta}: {exc}",
                x=x,
                theta=theta,
            ) from exc
        expected = ((self.d_y,), (self.d_y, theta.shape[0]))
        if (y.shape, jac.shape) != expected:
            raise ModelEvaluationError(
                f"alternative model Jacobian returned shapes {y.shape} and {jac.shape}, "
                f"expected {expected[0]} and {expected[1]}",
                x=x,
                theta=theta,
            )
        return y, jac


def squared_distance(pair: ModelPair, x, theta2) -> float:
    """Squared (Euclidean) distance between reference and alternative at x."""
    r = pair.eval_reference(x) - pair.eval_alternative(x, theta2)
    return float(r @ r)


def t_value(pair: ModelPair, design: Design, theta2) -> float:
    """Weighted squared distance sum_i w_i * phi(x_i, theta2)."""
    return float(
        sum(
            wi * squared_distance(pair, xi, theta2)
            for xi, wi in zip(design.points, design.weights)
        )
    )


def directional_derivative(pair: ModelPair, design: Design, theta_hat, x) -> float:
    """psi(x, xi) = phi(x, theta_hat) - T(xi, theta_hat).

    ``theta_hat`` must be the fitted parameter for ``design``; the pairing is
    the caller's responsibility so one fit can back many psi evaluations.
    """
    return squared_distance(pair, x, theta_hat) - t_value(pair, design, theta_hat)


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
