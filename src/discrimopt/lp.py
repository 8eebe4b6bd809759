"""Upper-level weight optimization.

Maximize t subject to w . phi[:, j] >= t for every discretized parameter j,
with w on the probability simplex: a small dense linear program, solved by
the HiGHS bindings that scipy ships (``scipy.optimize._highspy._core``),
loaded from their file alone, without importing ``scipy.optimize``.  HiGHS
gets the model and options that ``scipy.optimize.linprog`` would give it,
and a solution is accepted by ``linprog``'s own test, so the answers are
``linprog``'s bit for bit without its per-call set-up.
"""
from __future__ import annotations

import logging
import threading
from dataclasses import dataclass

import numpy as np

from .core import scipy_extension

__all__ = ["WeightLpInstance", "WeightLpSolution", "solve_weight_lp"]

log = logging.getLogger("discrimopt")

_highs = scipy_extension("optimize._highspy._core")

# Defaults (1e-7) are looser than the cutting-plane gaps the caller drives
# toward; tighten so fresh cuts actually bind.
_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# The options linprog(method="highs") passes to HiGHS for every attempt.
_OPTIONS = {
    "presolve": "on",
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": _highs.HighsDebugLevel.kHighsDebugLevelNone,
    "simplex_strategy": _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
}
# At these tolerances the dual simplex fails on some ill-conditioned instances
# (135 x 4 on the kinetics lattice) that the interior point method solves.  On
# a matrix scaled to 2^20 they are ~1e-16 relative, below double precision,
# and both fail on some degenerate instances (3 x 26 on the toy pair) that the
# defaults solve; those come last.  (name, options beyond _OPTIONS), in the
# order tried; the interior point method is linprog(method="highs-ipm").
_ATTEMPTS = (
    ("dual simplex", _TIGHT),
    ("interior point method", {**_TIGHT, "solver": "ipm"}),
    ("dual simplex at default tolerances", {}),
)
# linprog's acceptance tolerance: sqrt(tol) * 10 at its default tol 1e-9.
_ACCEPT_TOL = np.sqrt(1e-9) * 10
_INF = _highs.kHighsInf
_OPTIMAL = _highs.HighsModelStatus.kOptimal
_ERROR = _highs.HighsStatus.kError
_per_thread = threading.local()


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


def _solvers() -> list:
    """This thread's HiGHS objects, one per attempt, with options set once."""
    solvers = getattr(_per_thread, "solvers", None)
    if solvers is None:
        solvers = []
        for _, extra in _ATTEMPTS:
            options = _highs.HighsOptions()
            for key, value in {**_OPTIONS, **extra}.items():
                setattr(options, key, value)
            highs = _highs._Highs()
            highs.passOptions(options)
            solvers.append(highs)
        _per_thread.solvers = solvers
    return solvers


def _model(phi: np.ndarray) -> _highs.HighsLp:
    """min -t s.t. t - w . phi[:, j] <= 0 for each j, sum(w) = 1, w >= 0.

    The matrix [-phi.T 1; 1...1 0] goes column-wise with its zeros dropped,
    the columns w then t, the rows the cuts then the simplex row: the model
    ``linprog`` builds from the same arrays.
    """
    n, m = phi.shape
    a = np.zeros((n + 1, m + 1))  # row k of a is column k of the matrix
    a[:n, :m] = -phi
    a[:n, m] = 1.0
    a[n, :m] = 1.0
    col, row = np.nonzero(a)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = m + 1
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n + 1))])
    lp.a_matrix_.index_ = row
    lp.a_matrix_.value_ = a[col, row]
    lp.col_cost_ = np.concatenate([np.zeros(n), [-1.0]])
    lp.col_lower_ = np.concatenate([np.zeros(n), [-_INF]])
    lp.col_upper_ = np.full(n + 1, _INF)
    lp.row_lower_ = np.concatenate([np.full(m, -_INF), [1.0]])
    lp.row_upper_ = np.concatenate([np.zeros(m), [1.0]])
    return lp


def _distinct_columns(phi: np.ndarray) -> np.ndarray:
    """The distinct columns of phi, sorted by the first row, then the second, ...: ``np.unique(phi, axis=1)``
    without the structured sort that imports ``numpy.ma``.  Of columns equal up to the sign of a zero, one
    is kept; the LP's matrix drops its zeros, so either gives the same model."""
    phi = phi[:, np.lexsort(phi[::-1])]
    return phi[:, np.concatenate([[True], (phi[:, 1:] != phi[:, :-1]).any(axis=0)])]


def _accepted(highs) -> np.ndarray | None:
    """The solution when ``linprog`` would call it a success, else None.

    HiGHS must report optimal, and the solution must pass ``linprog``'s check
    on the LP it solved: no NaN, and the weights' bounds, the cut slacks and
    the simplex row's residual within ``_ACCEPT_TOL``.
    """
    if highs.getModelStatus() != _OPTIMAL:
        return None
    solution = highs.getSolution()
    x, row = np.array(solution.col_value), np.array(solution.row_value)
    fun = highs.getInfo().objective_function_value
    # -w, minus each cut's slack and |1 - sum(w)|; a NaN fails the comparison.
    excess = np.concatenate([-x[:-1], row[:-1], [abs(1.0 - row[-1])]])
    if np.isnan(x[-1]) or np.isnan(fun) or not np.all(excess <= _ACCEPT_TOL):
        return None
    return x


def solve_weight_lp(instance: WeightLpInstance) -> WeightLpSolution | None:
    """Solve the maximin weight LP with the HiGHS dual simplex.

    When the simplex fails, the LP is solved again with the HiGHS interior
    point method, and when that fails too, with the dual simplex at HiGHS's
    default tolerances.  An attempt succeeds when ``linprog`` would report
    success on the same LP and options.  Success after a failed attempt is
    logged at INFO with the HiGHS model status of each failed one
    (``kOptimal`` there means the solution failed ``linprog``'s check).
    Duplicate constraint columns are removed before solving.  Weights are
    clamped to [0, inf) and renormalized so downstream design invariants
    hold.  None when every attempt fails.

    HiGHS objects are kept per thread, so threads may solve at once.
    """
    phi = instance.phi
    n = instance.n_points
    # Drop duplicate columns (repeated discretization parameters).
    phi = _distinct_columns(phi)

    # The solver's feasibility tolerances are absolute (floor 1e-10); typical
    # squared-distance magnitudes are far smaller, so rescale the matrix to a
    # large common magnitude and map t back afterwards.  The optimal weights
    # are scale-invariant.
    # Peaks below round-off scale mean the models are numerically identical;
    # rescaling would only amplify noise, so leave those matrices alone.
    peak = float(phi.max())
    scale = 2.0**20 / peak if peak > 1e-16 else 1.0
    model = _model(scale * phi)

    failed = []
    for attempt, ((name, _), highs) in enumerate(zip(_ATTEMPTS, _solvers()), 1):
        x = None
        if highs.passModel(model) != _ERROR and highs.run() != _ERROR:
            x = _accepted(highs)
        if x is None:
            failed.append(f"{name} ({highs.getModelStatus().name})")
            continue
        if failed:
            log.info("weight LP (%d x %d) solved by attempt %d (%s) after %s",
                     *instance.phi.shape, attempt, name, ", ".join(failed))
        w = np.clip(x[:n], 0.0, None)
        return WeightLpSolution(weights=w / w.sum(), t=float(x[-1]) / scale)
    return None
