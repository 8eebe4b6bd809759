"""Design optimization algorithms.

DISC, the inner loop: Blankenship & Falk cutting planes for T-optimal
weights on a fixed candidate set.  2ADAPT, the outer loop that adaptively
grows both the candidate set and the parameter discretization.  A Vector
Direction Method baseline, and equivalence-theorem verification.  The three
solvers share one signature and :func:`solve` runs any of them by name.
"""
from __future__ import annotations

import logging
import math
import numbers
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
from .lsq import FitError, FitResult, fit_parameters
from .search import maximize_distance, scan_grid

__all__ = [
    "ALGORITHMS",
    "AlgoParams",
    "SolveResult",
    "IterationRecord",
    "OptimalityReport",
    "SolverError",
    "Discretization",
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
        for name in ("eps", "eps_sip", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("max_iter", "n_theta_starts", "max_iter_sip"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("eps", "eps_sip"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.eps_sip > self.eps:
            raise ValueError(f"eps_sip {self.eps_sip:g} exceeds eps {self.eps:g}")
        if self.max_iter < 1 or self.max_iter_sip < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.n_theta_starts < 1:
            raise ValueError("n_theta_starts must be >= 1: the fit a run stops on needs a Sobol start")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")


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


class Discretization:
    """A solve's candidate points and parameter cuts, and phi over their product.

    Candidates are distinct under :func:`canonical_key` (``index`` maps a key to its row), and each
    one's reference row is evaluated once, as it joins.  ``phi[i, j]`` is the squared distance at
    candidate i under ``thetas[j]``; NaN marks an entry not evaluated yet, which :meth:`matrix` fills.
    """

    def __init__(self, pair: ModelPair, points, thetas=()):
        points = np.array([np.atleast_1d(np.asarray(p, dtype=float)) for p in points])
        if not len(points):
            raise ValueError("candidate set must be nonempty")
        self.index = {canonical_key(p): i for i, p in enumerate(points)}
        if len(self.index) != len(points):
            raise ValueError("candidate points must be pairwise distinct")
        self.pair, self.points, self.refs = pair, points, pair.eval_reference(points)
        self.thetas: list[np.ndarray] = []
        self.phi = np.empty((len(points), 0))
        for theta in thetas:
            self.add_cut(theta)

    def add(self, point) -> bool:
        """Add a candidate; False, evaluating nothing, when one equal under :func:`canonical_key` is there."""
        key = canonical_key(point)
        if key in self.index:
            return False
        point = np.atleast_1d(np.asarray(point, dtype=float))[None]
        self.refs = np.concatenate([self.refs, self.pair.eval_reference(point)])
        self.index[key] = len(self.points)
        self.points = np.concatenate([self.points, point])
        self.phi = np.concatenate([self.phi, np.full((1, len(self.thetas)), np.nan)])
        return True

    def rows(self, points) -> np.ndarray:
        """The row of the candidate equal to each point bit for bit, else -1: a value carried over is the one an
        evaluation at that candidate gives."""
        rows = [self.index.get(canonical_key(p), -1) for p in points]
        return np.array([i if self.points[i].tobytes() == p.tobytes() else -1 for i, p in zip(rows, points)])

    def add_cut(self, theta, phi=np.nan, rows=None):
        """Append the cut ``theta``, its ``phi`` known at candidate ``rows`` (all by default); -1 is skipped."""
        col = np.full(len(self.points) + 1, np.nan)  # the last entry takes the writes to row -1
        col[slice(-1) if rows is None else rows] = phi
        self.thetas.append(np.atleast_1d(np.asarray(theta, dtype=float)))
        self.phi = np.column_stack([self.phi, col[:-1]])

    def matrix(self) -> np.ndarray:
        """phi with every entry evaluated, the missing ones of a cut in one model call."""
        for j, theta in enumerate(self.thetas):
            missing = np.flatnonzero(np.isnan(self.phi[:, j]))
            if missing.size:
                self.phi[missing, j] = squared_distance(self.pair, self.points[missing], theta, self.refs[missing])
        return self.phi


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the seconds it took."""
    t0 = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - t0


def _record(history: list, clock_start: float, **fields):
    """Append an :class:`IterationRecord` of ``fields``, its ``wall_time`` the seconds since ``clock_start``."""
    history.append(IterationRecord(**fields, wall_time=time.perf_counter() - clock_start))


class _Run:
    """One solve: its pair, space, settings, records and clock, and the refit-and-certify step every solver shares.

    The constructor checks that the initial design lies in the space and
    starts the clock.  ``history`` is the caller's list when one is given, so
    the records survive a sub-solver's exception.
    """

    def __init__(self, pair: ModelPair, space: DesignSpace, initial: Design, params: AlgoParams,
                 history: list[IterationRecord] | None = None):
        for p in initial.points:
            if not space.contains(p):
                raise DesignError(f"design point {p} lies outside the design space")
        self.pair, self.space, self.params = pair, space, params
        self.history = [] if history is None else history
        self.t0 = time.perf_counter()

    def refit(self, design: Design, warm, refs=None, run_ends=lambda report: True, **certify):
        """Fit ``design`` from ``warm`` alone and certify the fit; run the Sobol check where the run ends.

        A violated cut makes progress from any local fit, and only the fit a
        run ends on needs the global one (Blankenship & Falk, 1976).  When
        ``run_ends(report)`` holds for the warm fit's certificate (by default
        it does), the ``n_theta_starts`` Sobol starts run against that fit,
        which makes it the full multistart's result; a start that beats it is
        logged and certified in turn.  Without a warm start, or when the warm
        fit fails (:class:`FitError`), the one fit is that multistart, which
        raises when it fails too.  Returns the fits made (the warm fit, then a
        winner), the certificate of the last, and the ``ls_time`` and
        ``global_time`` spent fitting and certifying.  ``refs`` is the
        reference rows at the design's points, evaluated here once when not
        given; ``certify`` goes to :func:`check_optimality`.
        """
        pair, params = self.pair, self.params
        fit_args = {"lam": params.lam, "refs": pair.eval_reference(design.points) if refs is None else refs}
        n_starts = params.n_theta_starts if warm is None else 0
        try:
            fit, ls_time = _timed(fit_parameters, pair, design, warm, n_starts=n_starts, **fit_args)
        except FitError as exc:
            if warm is None:
                raise
            log.info("the warm fit failed (%s); fitting from the %d Sobol starts", exc, params.n_theta_starts)
            warm = None
            fit, ls_time = _timed(fit_parameters, pair, design, n_starts=params.n_theta_starts, **fit_args)
        report, global_time = _timed(check_optimality, pair, design, fit.theta_hat, self.space, phi=fit.phi, **certify)
        fits = [fit]
        if warm is not None and run_ends(report):
            best, seconds = _timed(fit_parameters, pair, design, n_starts=params.n_theta_starts, incumbent=fit,
                                   **fit_args)
            ls_time += seconds
            if best is not fit:
                log.info("Sobol start %d beat the warm fit the run would end on by %.3e (regularized objective %.9e)",
                         best.start_index, fit.regularized_objective - best.regularized_objective,
                         best.regularized_objective)
                fits.append(best)
                report, seconds = _timed(check_optimality, pair, design, best.theta_hat, self.space, phi=best.phi,
                                         **certify)
                global_time += seconds
        return fits, report, {"ls_time": ls_time, "global_time": global_time}

    def record(self, **fields):
        _record(self.history, self.t0, **fields)

    def result(self, design: Design, fit: FitResult, report: OptimalityReport, iterations: int, converged: bool,
               stalled: bool = False) -> SolveResult:
        """The run's result: ``design`` with ``fit``, the ``max_psi`` of ``report`` as its accuracy, and the records."""
        return SolveResult(design, fit.theta_hat, fit.objective, report.max_psi, iterations, converged,
                           tuple(self.history), time.perf_counter() - self.t0, stalled)


def disc_md(
    discretization: Discretization,
    params: AlgoParams = AlgoParams(),
    *,
    history: list[IterationRecord] | None = None,
    outer_iteration: int = 0,
    clock_start: float | None = None,
) -> tuple[Design, np.ndarray, FitResult, bool]:
    """T-optimal weights on a fixed finite candidate set (DISC).

    Blankenship & Falk cutting planes on the weight-linear semi-infinite
    program: solve the weight LP over the current parameter discretization,
    fit the parameters to the LP weights, and append the fit as a new cut,
    until the cut binds: w . phi[:, new] - t_LP >= -eps_sip.  Each fit starts
    from the last cut alone, without the Sobol multistart.  The cuts are
    appended to ``discretization``, which holds the problem's pair and
    candidates.  Returns the pruned design, its points' rows among the
    candidates, the last fit, and whether the cut bound within
    ``max_iter_sip`` iterations.
    """
    d = discretization
    if not d.thetas:
        raise ValueError("initial parameter discretization must be nonempty")
    # A violated cut makes progress whether or not its fit is the global
    # minimum, so each cut fits from the warm start alone; the fit a run
    # ends on is the callers' and gets the Sobol check.
    clock_start = clock_start if clock_start is not None else time.perf_counter()

    for inner in range(1, params.max_iter_sip + 1):
        sol, lp_time = _timed(solve_weight_lp, WeightLpInstance(d.matrix()))
        if sol is None:
            raise SolverError(f"weight LP failed at inner iteration {inner}")
        fit, ls_time = _timed(fit_parameters, d.pair, Design(d.points, sol.weights), d.thetas[-1],
                              n_starts=0, lam=params.lam, refs=d.refs)
        d.add_cut(fit.theta_hat, fit.phi)  # the fit's design points are the candidates, in order
        if history is not None:
            _record(history, clock_start, phase="disc", outer_iteration=outer_iteration, inner_iteration=inner,
                    t_lp=sol.t, t_value=fit.objective, n_theta=len(d.thetas), n_candidates=len(d.points),
                    lp_time=lp_time, ls_time=ls_time)
        converged = bool(sol.weights @ fit.phi - sol.t >= -params.eps_sip)
        if converged:
            break

    design = prune_design(Design(d.points, sol.weights))
    return design, d.rows(design.points), fit, converged


def two_adapt_md(
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    *,
    theta_disc0: Sequence[np.ndarray] | None = None,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """Nested adaptive discretization of parameters and design points.

    Each outer iteration computes weights on the current candidate set via
    :func:`disc_md`, refits the parameters on the resulting design from the
    last cut alone and certifies the refit with :func:`check_optimality`,
    from the refit's ``phi``.  It stops once
    :meth:`OptimalityReport.is_eps_optimal` holds at ``params.eps``, else
    adds the report's ``worst_point`` to the candidates.  Where the run
    would end (certified, about to stall, or at ``max_iter``), the refit
    first meets the ``n_theta_starts`` Sobol starts; one that beats it adds
    its cut, is certified in turn and resets the stall count, and the run
    goes on unless that certificate ends it.  The initial fit, without
    ``theta_disc0``, is the Sobol multistart.
    One :class:`Discretization` carries the candidates, their reference
    rows, the cuts and phi over all outer iterations; the scan points'
    reference rows are evaluated once per solve.  Records are appended to
    ``history`` when one is given, so they survive a sub-solver's exception.
    """
    run = _Run(pair, space, initial, params, history)
    d = Discretization(pair, initial.points, theta_disc0 or ())
    if not theta_disc0:
        fit = fit_parameters(pair, initial, n_starts=params.n_theta_starts, lam=params.lam, refs=d.refs)
        d.add_cut(fit.theta_hat, fit.phi)  # its design points are the candidates
    grid = scan_grid(pair, space)

    best_accuracy, stall, stalled = np.inf, 0, False

    def stuck(report):
        # The worst point is a candidate already and the accuracy did not improve: the discretization
        # resolution is exhausted.
        return canonical_key(report.worst_point) in d.index and not report.max_psi < best_accuracy

    def run_ends(report):
        # Certified, at the last iteration, or a stall about to fire.
        return (report.is_eps_optimal(params.eps) or n == params.max_iter
                or (stall + 1 >= _STALL_LIMIT and stuck(report)))

    for n in range(1, params.max_iter + 1):
        design, rows, fit, _ = disc_md(d, params, history=run.history, outer_iteration=n, clock_start=run.t0)
        fits, report, times = run.refit(design, fit.theta_hat, d.refs[rows], run_ends, prefer=d.points, grid=grid)
        for fit in fits:
            d.add_cut(fit.theta_hat, fit.phi, rows)
        if len(fits) > 1:
            stall = 0
        accuracy = report.max_psi
        run.record(phase="outer", outer_iteration=n, t_value=fit.objective, accuracy=accuracy,
                   n_theta=len(d.thetas), n_candidates=len(d.points), **times)
        log.info("outer %d: T=%.6e accuracy=%.2e candidates=%d thetas=%d",
                 n, fit.objective, accuracy, len(d.points), len(d.thetas))

        if report.is_eps_optimal(params.eps):
            break

        if stuck(report):
            stall += 1
            if stall >= _STALL_LIMIT:
                stalled = True
                log.warning("stalled after %d outer iterations: new point %s duplicates an existing "
                            "candidate and accuracy %.3e stopped improving", n, report.worst_point, accuracy)
                break
        else:
            stall = 0
        d.add(report.worst_point)
        best_accuracy = min(best_accuracy, accuracy)

    return run.result(design, fit, report, n, report.is_eps_optimal(params.eps), stalled)


def disc(
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    *,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """DISC on its own: :func:`disc_md` on a fixed candidate set, then the certificate.

    The candidates are the whole lattice when the design space is finite,
    otherwise the points of the initial design.  The fit of the initial
    design reuses the candidates' reference rows and fills the first phi
    column where its points equal candidates bit for bit.  The pruned design
    is refitted from the last cut alone and certified from that refit, and
    the refit then meets the ``n_theta_starts`` Sobol starts, as the fit a
    2ADAPT run ends on does: the result is the full multistart's, and a start
    that beats the refit is certified in turn.  On a lattice the certificate
    scans the candidates.  Converged means the inner loop converged and the
    report's ``max_psi`` is at most eps.
    """
    run = _Run(pair, space, initial, params, history)
    lattice = isinstance(space, Lattice)
    d = Discretization(pair, space.enumerate() if lattice else initial.points)
    rows = d.rows(initial.points)
    fit0 = fit_parameters(pair, initial, n_starts=params.n_theta_starts, lam=params.lam,
                          refs=d.refs[rows] if min(rows) >= 0 else None)
    d.add_cut(fit0.theta_hat, fit0.phi, rows)
    design, rows, fit, converged = disc_md(d, params, history=run.history, clock_start=run.t0)
    # Lattice.enumerate and scan_grid share the itertools.product order.
    fits, report, _ = run.refit(design, fit.theta_hat, d.refs[rows], grid=(d.points, d.refs) if lattice else None)
    return run.result(design, fits[-1], report, len(d.thetas) - 1, converged and report.max_psi <= params.eps)


def vdm(
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
    *,
    history: list[IterationRecord] | None = None,
) -> SolveResult:
    """Vector Direction Method baseline.

    Mixes the current design with a point mass at the certificate's
    ``worst_point`` with the harmonic step 1/(k+1) at iteration k (Atkinson &
    Fedorov, 1975), and stops once its ``max_psi`` is at most eps (the
    support gap is not checked).  The first fit is the Sobol multistart;
    each later one starts from the fit before it alone, and where the run
    would end (``max_psi`` at most eps, or ``max_iter``) it first meets the
    ``n_theta_starts`` Sobol starts.  A start that beats it is certified in
    turn, and the run goes on unless that certificate ends it.  A run that
    reaches ``max_iter`` returns its last fitted and certified design,
    unmixed.
    """
    run = _Run(pair, space, initial, params, history)
    design = initial
    d = Discretization(pair, design.points)  # the support points, in design order
    grid = scan_grid(pair, space)
    fit = None

    def run_ends(report):
        return report.max_psi <= params.eps or k == params.max_iter - 1

    for k in range(params.max_iter):
        if fit is not None:
            d.add(report.worst_point)  # a new point, as mixing appends it
            design = mix_designs(design, Design(np.array([report.worst_point]), np.array([1.0])), 1.0 / (k + 1))
        warm = fit.theta_hat if fit is not None else None
        fits, report, times = run.refit(design, warm, d.refs, run_ends, grid=grid)
        fit = fits[-1]
        run.record(phase="vdm", outer_iteration=k, t_value=fit.objective, accuracy=report.max_psi,
                   n_candidates=design.n_points, **times)

        if report.max_psi <= params.eps:
            break

    return run.result(design, fit, report, k + 1, report.max_psi <= params.eps)


def solve(
    name: str,
    pair: ModelPair,
    space: DesignSpace,
    initial: Design,
    params: AlgoParams = AlgoParams(),
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
    return solvers[name](pair, space, initial, params, history=history)


def check_optimality(
    pair: ModelPair,
    design: Design,
    theta_hat,
    space: DesignSpace,
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
    worst, max_phi = maximize_distance(pair, theta_hat, space, prefer=prefer, grid=grid)
    return OptimalityReport(
        max_psi=float(max_phi - tval),
        min_support_gap=float(min(phi - tval)),
        worst_point=worst,
    )
