"""Design optimization algorithms.

DISC, the inner loop: Blankenship & Falk cutting planes for T-optimal
weights on a fixed candidate set.  2ADAPT, the outer loop that adaptively
grows both the candidate set and the parameter discretization.  A Vector
Direction Method baseline, and equivalence-theorem verification.  The three
solvers share one signature and :func:`solve` runs any of them by name.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Design,
    DesignError,
    DesignSpace,
    Lattice,
    ModelPair,
    canonical_key,
    mix_designs,
    prune_design,
    squared_distance,
    t_value,
)
from .lp import WeightLpInstance, solve_weight_lp
from .lsq import FitConfig, FitResult, fit_parameters
from .search import GlobalSearchConfig, maximize_distance

__all__ = [
    "ALGORITHMS",
    "AlgoParams",
    "SolveResult",
    "IterationRecord",
    "OptimalityReport",
    "SolverError",
    "disc_md",
    "two_adapt_md",
    "disc",
    "vdm",
    "solve",
    "check_optimality",
]

log = logging.getLogger("discrimopt")

# Solver names accepted by :func:`solve`, in the order of its solvers.
ALGORITHMS = ("2adapt", "disc", "vdm")

# Consecutive non-growing, non-improving outer iterations tolerated before a
# run is declared stalled.  Accuracy is not monotone across outer iterations
# (the refit can temporarily worsen the certificate while the parameter
# discretization still tightens), so several non-improving iterations in a
# row are normal on the way to convergence.
_STALL_LIMIT = 6


class SolverError(RuntimeError):
    """A sub-solver failed."""


@dataclass(frozen=True)
class AlgoParams:
    """Algorithm parameters; defaults follow the benchmark configuration.

    For the Vector Direction Method the customary overrides are ``lam = 0``
    (all support points keep positive weight, no regularization needed) and
    ``max_iter = 1000``.
    """

    eps: float = 1e-5
    max_iter: int = 100
    n_theta_starts: int = 9
    lam: float = 1e-8
    eps_sip: float = 1e-5
    max_iter_sip: int = 20
    vdm_step_rule: str = "harmonic"  # "harmonic" | "line_search"
    prune_threshold: float = 1e-6

    def __post_init__(self):
        if self.eps <= 0 or self.eps_sip <= 0:
            raise ValueError("eps and eps_sip must be positive")
        if self.max_iter < 1 or self.max_iter_sip < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.n_theta_starts < 0 or self.lam < 0:
            raise ValueError("n_theta_starts and lam must be nonnegative")
        if self.vdm_step_rule not in ("harmonic", "line_search"):
            raise ValueError(f"unknown vdm_step_rule {self.vdm_step_rule!r}")

    def fit_config(self) -> FitConfig:
        return FitConfig(n_starts=self.n_theta_starts, lam=self.lam)


@dataclass(frozen=True, kw_only=True)
class IterationRecord:
    phase: str  # "outer" | "disc" | "vdm"
    outer_iteration: int
    inner_iteration: int | None = None
    t_lp: float | None = None
    t_value: float
    accuracy: float | None = None
    n_theta: int = 0
    n_candidates: int
    lp_time: float = 0.0
    ls_time: float
    global_time: float = 0.0
    wall_time: float


@dataclass(frozen=True)
class SolveResult:
    design: Design
    theta_hat: np.ndarray
    t_value: float
    accuracy: float
    iterations: int
    converged: bool
    history: tuple[IterationRecord, ...]
    runtime_seconds: float
    stalled: bool = False


@dataclass(frozen=True)
class OptimalityReport:
    max_psi: float
    min_support_gap: float
    worst_point: np.ndarray

    def is_eps_optimal(self, eps: float) -> bool:
        # The support criterion alone can fire early when the fitted
        # parameters are inexact; the scan maximum must also be below eps.
        return self.min_support_gap <= eps and self.max_psi <= eps


def _fill_phi(pair, candidates, thetas, phi, rows=None):
    """Evaluate the missing entries of a phi matrix in place.

    ``phi`` is a list of columns, one per parameter in ``thetas``, over the
    candidates; NaN marks an entry not evaluated yet.  Columns are added for
    new parameters and lengthened for new candidates.  A parameter bitwise
    equal to an earlier one copies that column instead of evaluating it.
    ``rows`` limits the evaluation to those candidates.
    """
    n = len(candidates)
    wanted = range(n) if rows is None else rows
    for j, theta in enumerate(thetas):
        if j == len(phi):
            phi.append(np.full(n, np.nan))
        elif len(phi[j]) < n:
            phi[j] = np.append(phi[j], np.full(n - len(phi[j]), np.nan))
        col = phi[j]
        missing = [i for i in wanted if np.isnan(col[i])]
        if not missing:
            continue
        twin = next((k for k in range(j) if np.array_equal(thetas[k], theta)), None)
        for i in missing:
            col[i] = squared_distance(pair, candidates[i], theta) if twin is None else phi[twin][i]


def disc_md(
    pair: ModelPair,
    candidates: Sequence[np.ndarray],
    theta_disc: list[np.ndarray],
    params: AlgoParams = AlgoParams(),
    *,
    phi: list[np.ndarray] | None = None,
    history: list[IterationRecord] | None = None,
    outer_iteration: int = 0,
    clock_start: float | None = None,
) -> tuple[Design, list[np.ndarray], FitResult, bool]:
    """T-optimal weights on a fixed finite candidate set (DISC).

    Blankenship & Falk cutting planes on the weight-linear semi-infinite
    program: solve the weight LP over the current parameter discretization,
    fit the parameters to the LP weights, and append the fit as a new cut,
    until the cut binds: w . phi[:, new] - t_LP >= -eps_sip.  Returns the
    pruned design, the grown discretization, the last fit, and whether the
    cut bound within ``max_iter_sip`` iterations.

    ``phi`` is the phi matrix of an earlier call over a prefix of these
    candidates and discretization, as a list of columns; it is extended in
    place to the returned discretization, so callers can carry it over.
    """
    candidates = [np.atleast_1d(np.asarray(c, dtype=float)) for c in candidates]
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    keys = {canonical_key(c) for c in candidates}
    if len(keys) != len(candidates):
        raise ValueError("candidate points must be pairwise distinct")
    if not theta_disc:
        raise ValueError("initial parameter discretization must be nonempty")

    theta_disc = [np.atleast_1d(np.asarray(t, dtype=float)) for t in theta_disc]
    phi = [] if phi is None else phi
    n_theta0 = len(theta_disc)
    points = np.array(candidates)
    fit_cfg = params.fit_config()
    clock_start = clock_start if clock_start is not None else time.perf_counter()
    _fill_phi(pair, candidates, theta_disc, phi)
    warm = theta_disc[-1]

    for inner in range(1, params.max_iter_sip + 1):
        t0 = time.perf_counter()
        sol = solve_weight_lp(WeightLpInstance(np.column_stack(phi)))
        lp_time = time.perf_counter() - t0
        if sol.status != "optimal":
            raise SolverError(f"weight LP failed (status {sol.status}) at inner iteration {inner}")
        t0 = time.perf_counter()
        fit = fit_parameters(pair, Design(points, sol.weights), warm_start=warm, cfg=fit_cfg)
        ls_time = time.perf_counter() - t0
        warm = fit.theta_hat
        if history is not None:
            history.append(
                IterationRecord(
                    phase="disc",
                    outer_iteration=outer_iteration,
                    inner_iteration=inner,
                    t_lp=sol.t,
                    t_value=fit.objective,
                    n_theta=n_theta0 + inner,
                    n_candidates=len(candidates),
                    lp_time=lp_time,
                    ls_time=ls_time,
                    wall_time=time.perf_counter() - clock_start,
                )
            )
        theta_disc.append(fit.theta_hat)
        _fill_phi(pair, candidates, theta_disc, phi)
        converged = bool(sol.weights @ phi[-1] - sol.t >= -params.eps_sip)
        if converged:
            break

    design = prune_design(Design(points, sol.weights), params.prune_threshold)
    return design, theta_disc, fit, converged


def _validate_initial(space: DesignSpace, initial: Design):
    for p in initial.points:
        if not space.contains(p):
            raise DesignError(f"initial design point {p} lies outside the design space")


def two_adapt_md(
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    gcfg: GlobalSearchConfig = GlobalSearchConfig(),
    *,
    theta_disc0: Sequence[np.ndarray] | None = None,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """Nested adaptive discretization of parameters and design points.

    Each outer iteration computes weights on the current candidate set via
    :func:`disc_md`, refits the parameters on the resulting design, and adds
    the design point maximizing the squared model distance.  Terminates once
    the equivalence-theorem criterion holds at tolerance ``params.eps``:
    the support attains the criterion value and the global scan maximum
    exceeds it by at most eps.  The phi matrix over the candidates and the
    parameter discretization carries over from one outer iteration to the
    next.  Records are appended to ``history`` when one is given, so they
    survive a sub-solver's exception.
    """
    _validate_initial(space, initial)
    t0 = time.perf_counter()
    history = [] if history is None else history
    fit_cfg = params.fit_config()
    if not theta_disc0:
        theta_disc0 = [fit_parameters(pair, initial, cfg=fit_cfg).theta_hat]
    theta_disc = list(theta_disc0)

    candidates = [p.copy() for p in initial.points]
    rows = {canonical_key(p): i for i, p in enumerate(candidates)}
    phi: list[np.ndarray] = []
    best_accuracy = np.inf
    stall = 0
    stalled = False
    converged = False
    n = 0

    for n in range(1, params.max_iter + 1):
        design, theta_disc, fit, _ = disc_md(
            pair, candidates, theta_disc, params,
            phi=phi, history=history, outer_iteration=n, clock_start=t0,
        )
        ls0 = time.perf_counter()
        fit = fit_parameters(pair, design, warm_start=fit.theta_hat, cfg=fit_cfg)
        ls_time = time.perf_counter() - ls0
        theta_disc.append(fit.theta_hat)
        tval = fit.objective

        g0 = time.perf_counter()
        x_new, max_phi = maximize_distance(
            pair, fit.theta_hat, space, gcfg, prefer=candidates
        )
        global_time = time.perf_counter() - g0
        accuracy = max_phi - tval
        # min over the support of phi(x_i, theta_hat) - T; <= 0 up to fit error.
        support = [rows[canonical_key(p)] for p in design.points]
        _fill_phi(pair, candidates, theta_disc, phi, rows=support)
        support_gap = phi[-1][support].min() - tval

        history.append(
            IterationRecord(
                phase="outer",
                outer_iteration=n,
                t_value=tval,
                accuracy=accuracy,
                n_theta=len(theta_disc),
                n_candidates=len(candidates),
                ls_time=ls_time,
                global_time=global_time,
                wall_time=time.perf_counter() - t0,
            )
        )
        log.info(
            "outer %d: T=%.6e accuracy=%.2e candidates=%d thetas=%d",
            n,
            tval,
            accuracy,
            len(candidates),
            len(theta_disc),
        )

        if support_gap <= params.eps and accuracy <= params.eps:
            converged = True
            break

        key = canonical_key(x_new)
        grew = key not in rows
        if grew:
            rows[key] = len(candidates)
            candidates.append(np.atleast_1d(np.asarray(x_new, dtype=float)))
        improved = accuracy < best_accuracy
        best_accuracy = min(best_accuracy, accuracy)
        if not grew and not improved:
            # The candidate set cannot grow and the criterion is not
            # improving: the discretization resolution is exhausted.
            stall += 1
            if stall >= _STALL_LIMIT:
                stalled = True
                log.warning(
                    "stalled after %d outer iterations: new point %s duplicates "
                    "an existing candidate and accuracy %.3e stopped improving",
                    n,
                    x_new,
                    accuracy,
                )
                break
        else:
            stall = 0

    return SolveResult(
        design=design,
        theta_hat=fit.theta_hat,
        t_value=fit.objective,
        accuracy=float(accuracy),
        iterations=n,
        converged=converged,
        history=tuple(history),
        runtime_seconds=time.perf_counter() - t0,
        stalled=stalled,
    )


def disc(
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    gcfg: GlobalSearchConfig = GlobalSearchConfig(),
    *,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """DISC on its own: :func:`disc_md` on a fixed candidate set, then the certificate.

    The candidates are the whole lattice when the design space is finite,
    otherwise the points of the initial design.  Converged means the inner
    loop converged and the global scan maximum of psi is at most eps.
    """
    _validate_initial(space, initial)
    t0 = time.perf_counter()
    history = [] if history is None else history
    candidates = list(space.enumerate()) if isinstance(space, Lattice) else list(initial.points)
    fit0 = fit_parameters(pair, initial, cfg=params.fit_config())
    design, grown, fit, converged = disc_md(
        pair, candidates, [fit0.theta_hat], params, history=history, clock_start=t0
    )
    report = check_optimality(pair, design, fit.theta_hat, space, gcfg)
    return SolveResult(
        design=design,
        theta_hat=fit.theta_hat,
        t_value=fit.objective,
        accuracy=report.max_psi,
        iterations=len(grown) - 1,
        converged=converged and report.max_psi <= params.eps,
        history=tuple(history),
        runtime_seconds=time.perf_counter() - t0,
    )


def vdm(
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    gcfg: GlobalSearchConfig = GlobalSearchConfig(),
    *,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """Vector Direction Method baseline.

    Mixes the current design with a point mass at the steepest-ascent point.
    The default step size is the harmonic rule 1/(k+2); "line_search" golden-
    sections the step, refitting the parameters at every trial step.
    """
    _validate_initial(space, initial)
    t0 = time.perf_counter()
    history = [] if history is None else history
    fit_cfg = params.fit_config()
    design = initial
    fit = None
    converged = False
    k = 0

    for k in range(params.max_iter):
        warm = fit.theta_hat if fit is not None else None
        ls0 = time.perf_counter()
        fit = fit_parameters(pair, design, warm_start=warm, cfg=fit_cfg)
        ls_time = time.perf_counter() - ls0
        tval = fit.objective

        g0 = time.perf_counter()
        x_star, max_phi = maximize_distance(pair, fit.theta_hat, space, gcfg)
        global_time = time.perf_counter() - g0
        accuracy = max_phi - tval

        history.append(
            IterationRecord(
                phase="vdm",
                outer_iteration=k,
                t_value=tval,
                accuracy=accuracy,
                n_candidates=design.n_points,
                ls_time=ls_time,
                global_time=global_time,
                wall_time=time.perf_counter() - t0,
            )
        )

        if accuracy <= params.eps:
            converged = True
            break

        spike = Design(np.array([x_star]), np.array([1.0]))
        if params.vdm_step_rule == "harmonic":
            alpha = 1.0 / (k + 2)
        else:
            alpha = _golden_section_step(pair, design, spike, fit.theta_hat, fit_cfg)
        design = mix_designs(design, spike, alpha)

    return SolveResult(
        design=design,
        theta_hat=fit.theta_hat,
        t_value=fit.objective,
        accuracy=float(accuracy),
        iterations=k + 1,
        converged=converged,
        history=tuple(history),
        runtime_seconds=time.perf_counter() - t0,
    )


def solve(
    name: str,
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    gcfg: GlobalSearchConfig = GlobalSearchConfig(),
    *,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """Run the solver named ``name``, one of :data:`ALGORITHMS`.

    Records are appended to ``history`` as they are made, so a caller that
    passes a list keeps them when a sub-solver raises.
    """
    # Looked up at call time, so that a rebinding of a solver's module name
    # (a wrapper, a patch) is the one called.
    solvers = dict(zip(ALGORITHMS, (two_adapt_md, disc, vdm)))
    if name not in solvers:
        raise ValueError(f"unknown algorithm {name!r}; known: {list(ALGORITHMS)}")
    return solvers[name](pair, space, initial, params, gcfg, history=history)


def _golden_section_step(pair, design, spike, warm, fit_cfg, iters=20):
    """Maximize T((1 - a) xi + a spike) over a in [0, 1], refitting per trial."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def objective(alpha):
        mixed = mix_designs(design, spike, alpha)
        return fit_parameters(pair, mixed, warm_start=warm, cfg=fit_cfg).objective

    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


def check_optimality(
    pair: ModelPair,
    design: Design,
    theta_hat,
    space: DesignSpace,
    gcfg: GlobalSearchConfig = GlobalSearchConfig(),
) -> OptimalityReport:
    """Equivalence-theorem verification for a fitted design.

    ``max_psi`` is the directional derivative at the global scan maximum;
    ``min_support_gap`` is the smallest phi(x_i) - T over the support.  A
    design certifies as eps-optimal via :meth:`OptimalityReport.is_eps_optimal`.
    """
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    tval = t_value(pair, design, theta_hat)
    worst, max_phi = maximize_distance(pair, theta_hat, space, gcfg)
    gaps = [squared_distance(pair, x, theta_hat) - tval for x in design.points]
    return OptimalityReport(
        max_psi=float(max_phi - tval),
        min_support_gap=float(min(gaps)),
        worst_point=worst,
    )
