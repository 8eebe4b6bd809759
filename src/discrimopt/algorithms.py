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
from .search import GlobalSearchConfig, maximize_distance, scan_grid

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
    ``max_iter = 1000``.  ``eps_sip``, the inner cutting-plane gap, is
    ``eps`` when not given, and may not exceed it: an inner solve looser
    than the certificate it feeds can stall the outer loop.
    """

    eps: float = 1e-5
    max_iter: int = 100
    n_theta_starts: int = 9
    lam: float = 1e-8
    eps_sip: float | None = None
    max_iter_sip: int = 20

    def __post_init__(self):
        if self.eps_sip is None:
            object.__setattr__(self, "eps_sip", self.eps)
        # Each message opens with the field it is about; the config loader names that field.
        for name in ("eps", "eps_sip"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eps_sip > self.eps:
            raise ValueError(f"eps_sip {self.eps_sip:g} exceeds eps {self.eps:g}")
        if self.max_iter < 1 or self.max_iter_sip < 1:
            raise ValueError("iteration limits must be >= 1")
        for name in ("n_theta_starts", "lam"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

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


def _fill_phi(pair, candidates, refs, thetas, phi):
    """Evaluate the missing entries of a phi matrix in place.

    ``phi`` is a list of columns, one per parameter in ``thetas``, over the
    candidates, whose reference rows are ``refs``; NaN marks an entry not
    evaluated yet.  Columns are added for new parameters and lengthened for new candidates.
    """
    for j, theta in enumerate(thetas):
        if j == len(phi):
            phi.append(np.empty(0))
        col = phi[j] = np.append(phi[j], np.full(len(candidates) - len(phi[j]), np.nan))
        missing = np.flatnonzero(np.isnan(col))
        if missing.size:
            col[missing] = squared_distance(pair, np.array(candidates)[missing], theta, refs[missing])


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the seconds it took."""
    t0 = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - t0


def _reindex(targets, points, values):
    """``values``, one value or row per point, laid over ``targets``: NaN at a target not among the points.

    A point matches a target bit for bit, so each value is the one an
    evaluation at that target gives.
    """
    index = {p.tobytes(): i for i, p in enumerate(points)}
    values = np.concatenate([values, np.full((1, *np.shape(values)[1:]), np.nan)])
    return values[[index.get(t.tobytes(), -1) for t in targets]]


def disc_md(
    pair: ModelPair,
    candidates: Sequence[np.ndarray],
    theta_disc: list[np.ndarray],
    params: AlgoParams = AlgoParams(),
    *,
    phi: list[np.ndarray] | None = None,
    refs: np.ndarray | None = None,
    history: list[IterationRecord] | None = None,
    outer_iteration: int = 0,
    clock_start: float | None = None,
) -> tuple[Design, list[np.ndarray], FitResult, bool]:
    """T-optimal weights on a fixed finite candidate set (DISC).

    Blankenship & Falk cutting planes on the weight-linear semi-infinite
    program: solve the weight LP over the current parameter discretization,
    fit the parameters to the LP weights, and append the fit as a new cut,
    until the cut binds: w . phi[:, new] - t_LP >= -eps_sip.  Each fit starts
    from the last parameter of the discretization alone, without the Sobol
    multistart.  Returns the pruned design, the grown discretization, the
    last fit, and whether the cut bound within ``max_iter_sip`` iterations.

    ``phi`` is the phi matrix of an earlier call over a prefix of these
    candidates and discretization, as a list of columns; it is extended in
    place to the returned discretization, so callers can carry it over.  So
    can ``refs``, the candidates' reference rows, evaluated once when not given.
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
    refs = pair.eval_reference(points) if refs is None else refs
    # A violated cut makes progress whether or not its fit is the global
    # minimum, so each cut fits from the warm start alone; the fits a
    # certificate rests on are the callers' and keep the multistart.
    fit_cfg = FitConfig(n_starts=0, lam=params.lam)
    clock_start = clock_start if clock_start is not None else time.perf_counter()
    _fill_phi(pair, candidates, refs, theta_disc, phi)
    warm = theta_disc[-1]

    for inner in range(1, params.max_iter_sip + 1):
        sol, lp_time = _timed(solve_weight_lp, WeightLpInstance(np.column_stack(phi)))
        if sol.status != "optimal":
            raise SolverError(f"weight LP failed (status {sol.status}) at inner iteration {inner}")
        fit, ls_time = _timed(fit_parameters, pair, Design(points, sol.weights), warm, fit_cfg, refs)
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
        phi.append(fit.phi)  # the fit's design points are the candidates, in order
        converged = bool(sol.weights @ phi[-1] - sol.t >= -params.eps_sip)
        if converged:
            break

    design = prune_design(Design(points, sol.weights))
    return design, theta_disc, fit, converged


def _validate_design(space: DesignSpace, design: Design):
    for p in design.points:
        if not space.contains(p):
            raise DesignError(f"design point {p} lies outside the design space")


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
    :func:`disc_md`, refits the parameters on the resulting design and
    certifies the refit with :func:`check_optimality`, from the refit's
    ``phi``.  It stops once :meth:`OptimalityReport.is_eps_optimal` holds at
    ``params.eps``, else adds the report's ``worst_point`` to the candidates.
    The phi matrix over the candidates and the parameter discretization, and
    the candidates' reference rows, carry over between outer iterations; the
    scan points' reference rows are evaluated once per solve.  Records are appended to
    ``history`` when one is given, so they survive a sub-solver's exception.
    """
    _validate_design(space, initial)
    t0 = time.perf_counter()
    history = [] if history is None else history
    fit_cfg = params.fit_config()
    phi: list[np.ndarray] = []
    refs = pair.eval_reference(initial.points)
    if not theta_disc0:
        fit = fit_parameters(pair, initial, cfg=fit_cfg, refs=refs)
        theta_disc0, phi = [fit.theta_hat], [fit.phi]  # its design points are the candidates
    theta_disc = list(theta_disc0)
    grid = scan_grid(pair, space, gcfg)

    candidates = [p.copy() for p in initial.points]
    keys = {canonical_key(p) for p in candidates}
    best_accuracy = np.inf
    stall = 0
    stalled = False
    converged = False

    for n in range(1, params.max_iter + 1):
        design, theta_disc, fit, _ = disc_md(
            pair, candidates, theta_disc, params,
            phi=phi, refs=refs, history=history, outer_iteration=n, clock_start=t0,
        )
        fit, ls_time = _timed(fit_parameters, pair, design, fit.theta_hat, fit_cfg,
                              _reindex(design.points, candidates, refs))
        theta_disc.append(fit.theta_hat)
        phi.append(_reindex(candidates, design.points, fit.phi))

        report, global_time = _timed(
            check_optimality, pair, design, fit.theta_hat, space, gcfg,
            phi=fit.phi, prefer=candidates, grid=grid,
        )
        accuracy = report.max_psi

        history.append(
            IterationRecord(
                phase="outer",
                outer_iteration=n,
                t_value=fit.objective,
                accuracy=accuracy,
                n_theta=len(theta_disc),
                n_candidates=len(candidates),
                ls_time=ls_time,
                global_time=global_time,
                wall_time=time.perf_counter() - t0,
            )
        )
        log.info("outer %d: T=%.6e accuracy=%.2e candidates=%d thetas=%d",
                 n, fit.objective, accuracy, len(candidates), len(theta_disc))

        if report.is_eps_optimal(params.eps):
            converged = True
            break

        key = canonical_key(report.worst_point)
        grew = key not in keys
        if grew:
            keys.add(key)
            candidates.append(report.worst_point)
            refs = np.concatenate([refs, pair.eval_reference(report.worst_point)])
        improved = accuracy < best_accuracy
        best_accuracy = min(best_accuracy, accuracy)
        if not grew and not improved:
            # The candidate set cannot grow and the criterion is not
            # improving: the discretization resolution is exhausted.
            stall += 1
            if stall >= _STALL_LIMIT:
                stalled = True
                log.warning("stalled after %d outer iterations: new point %s duplicates an existing "
                            "candidate and accuracy %.3e stopped improving", n, report.worst_point, accuracy)
                break
        else:
            stall = 0

    return SolveResult(
        design=design,
        theta_hat=fit.theta_hat,
        t_value=fit.objective,
        accuracy=accuracy,
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
    otherwise the points of the initial design.  The fit of the initial
    design fills the first phi column on its points.  The pruned design is
    refitted with the multistart, warm started at the last cut, and
    certified from that refit, as 2ADAPT's outer loop does.  Converged
    means the inner loop converged and the report's ``max_psi`` is at most eps.
    """
    _validate_design(space, initial)
    t0 = time.perf_counter()
    history = [] if history is None else history
    candidates = list(space.enumerate()) if isinstance(space, Lattice) else list(initial.points)
    fit_cfg = params.fit_config()
    fit0 = fit_parameters(pair, initial, cfg=fit_cfg)
    refs = pair.eval_reference(np.array(candidates))
    design, grown, fit, converged = disc_md(
        pair, candidates, [fit0.theta_hat], params,
        phi=[_reindex(candidates, initial.points, fit0.phi)], refs=refs, history=history, clock_start=t0,
    )
    fit = fit_parameters(pair, design, fit.theta_hat, fit_cfg, _reindex(design.points, candidates, refs))
    report = check_optimality(pair, design, fit.theta_hat, space, gcfg, phi=fit.phi)
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

    Mixes the current design with a point mass at the certificate's
    ``worst_point`` with the harmonic step 1/(k+1) at iteration k (Atkinson &
    Fedorov, 1975), and stops once its ``max_psi`` is at most eps (the
    support gap is not checked).  A run that reaches ``max_iter`` returns
    its last fitted and certified design, unmixed.
    """
    _validate_design(space, initial)
    t0 = time.perf_counter()
    history = [] if history is None else history
    fit_cfg = params.fit_config()
    design = initial
    refs = pair.eval_reference(design.points)
    grid = scan_grid(pair, space, gcfg)
    fit = None
    converged = False

    for k in range(params.max_iter):
        if fit is not None:
            spike = Design(np.array([report.worst_point]), np.array([1.0]))
            if canonical_key(report.worst_point) not in {canonical_key(p) for p in design.points}:
                refs = np.concatenate([refs, pair.eval_reference(spike.points)])  # mixing appends the spike
            design = mix_designs(design, spike, 1.0 / (k + 1))
        warm = fit.theta_hat if fit is not None else None
        fit, ls_time = _timed(fit_parameters, pair, design, warm_start=warm, cfg=fit_cfg, refs=refs)
        report, global_time = _timed(
            check_optimality, pair, design, fit.theta_hat, space, gcfg, phi=fit.phi, grid=grid
        )

        history.append(
            IterationRecord(
                phase="vdm",
                outer_iteration=k,
                t_value=fit.objective,
                accuracy=report.max_psi,
                n_candidates=design.n_points,
                ls_time=ls_time,
                global_time=global_time,
                wall_time=time.perf_counter() - t0,
            )
        )

        if report.max_psi <= params.eps:
            converged = True
            break

    return SolveResult(
        design=design,
        theta_hat=fit.theta_hat,
        t_value=fit.objective,
        accuracy=report.max_psi,
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


def check_optimality(
    pair: ModelPair,
    design: Design,
    theta_hat,
    space: DesignSpace,
    gcfg: GlobalSearchConfig = GlobalSearchConfig(),
    *,
    phi=None,
    prefer=None,
    grid=None,
) -> OptimalityReport:
    """Equivalence-theorem certificate of a design at its fitted parameters.

    With psi(x) = phi(x, theta_hat) - T(design, theta_hat), ``max_psi`` is
    psi at the global search's maximizer ``worst_point`` and
    ``min_support_gap`` is the smallest psi over the support; a design
    certifies as eps-optimal via :meth:`OptimalityReport.is_eps_optimal`.
    ``phi`` is the squared distances at the design's points when the caller
    holds them (a fit's ``FitResult.phi``); only without it is the support
    evaluated, once.  ``prefer`` and ``grid`` go to :func:`maximize_distance`.
    Every solver's ``accuracy`` is this ``max_psi``.
    """
    phi = squared_distance(pair, design.points, theta_hat) if phi is None else np.asarray(phi, dtype=float)
    tval = t_value(pair, design, theta_hat, phi)
    worst, max_phi = maximize_distance(pair, theta_hat, space, gcfg, prefer=prefer, grid=grid)
    return OptimalityReport(
        max_psi=float(max_phi - tval),
        min_support_gap=float(min(phi - tval)),
        worst_point=worst,
    )
