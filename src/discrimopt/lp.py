"""Upper-level weight optimization.

Maximize t subject to w . phi[:, j] >= t for every discretized parameter j,
with w on the probability simplex: a small dense linear program.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

__all__ = ["WeightLpInstance", "WeightLpSolution", "solve_weight_lp"]


@dataclass(frozen=True)
class WeightLpInstance:
    """phi[i, j] = squared distance at candidate i under discretized theta j.

    The instance holds a read-only copy; the caller's array stays as it was.
    """

    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float, ndmin=2)
        if phi.size == 0:
            raise ValueError("phi matrix must be nonempty")
        if not np.all(np.isfinite(phi)):
            raise ValueError("phi matrix entries must be finite")
        if np.any(phi < 0):
            raise ValueError("phi matrix entries must be nonnegative")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    @property
    def n_points(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class WeightLpSolution:
    weights: np.ndarray
    t: float


def solve_weight_lp(instance: WeightLpInstance) -> WeightLpSolution | None:
    """Solve the maximin weight LP with the HiGHS dual simplex.

    When the simplex reports failure, the LP is solved again with the HiGHS
    interior point method, and when that fails too, with the dual simplex at
    HiGHS's default tolerances.  Duplicate constraint columns are removed before
    solving.  Weights are clamped to [0, inf) and renormalized so downstream
    design invariants hold.  None when every attempt fails.
    """
    phi = instance.phi
    n = instance.n_points
    # Drop duplicate columns (repeated discretization parameters).
    phi = np.unique(phi, axis=1)
    m = phi.shape[1]

    # The solver's feasibility tolerances are absolute (floor 1e-10); typical
    # squared-distance magnitudes are far smaller, so rescale the matrix to a
    # large common magnitude and map t back afterwards.  The optimal weights
    # are scale-invariant.
    # Peaks below round-off scale mean the models are numerically identical;
    # rescaling would only amplify noise, so leave those matrices alone.
    peak = float(phi.max())
    scale = 2.0**20 / peak if peak > 1e-16 else 1.0
    phi = scale * phi

    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize t
    a_ub = np.hstack([-phi.T, np.ones((m, 1))])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)]
    tight = {
        # Defaults (1e-7) are looser than the cutting-plane gaps the caller
        # drives toward; tighten so fresh cuts actually bind.
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    # At these tolerances the dual simplex fails on some ill-conditioned
    # instances (135 x 4 on the kinetics lattice) that the interior point
    # method solves.  On a matrix scaled to 2^20 they are ~1e-16 relative,
    # below double precision, and both fail on some degenerate instances
    # (3 x 26 on the toy pair) that the defaults solve; those come last.
    for method, options in (("highs", tight), ("highs-ipm", tight), ("highs", {})):
        res = linprog(
            c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0], bounds=bounds,
            method=method, options=options,
        )
        if res.success and res.x is not None:
            w = np.clip(res.x[:n], 0.0, None)
            return WeightLpSolution(weights=w / w.sum(), t=float(res.x[-1]) / scale)
    return None
