import dataclasses
import importlib.resources
import json
import logging
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import discrimopt.algorithms as algorithms
import discrimopt.lsq as lsq
from discrimopt import (
    ALGORITHMS,
    AlgoParams,
    Box,
    Design,
    Lattice,
    ModelPair,
    check_optimality,
    disc,
    make_mm_pair,
    pointwise,
    solve,
    two_adapt_md,
    vdm,
)
from discrimopt.algorithms import Discretization, SolverError, disc_md
from discrimopt.cli import main
from discrimopt.config import load_config
from discrimopt.core import squared_distance, t_value
from discrimopt.lsq import fit_parameters

from conftest import linear_vs_constant, two_basins

TOY_BOX = Box([0.0], [1.0])
MM_CONFIG = importlib.resources.files("discrimopt") / "configs" / "mm.config"
KINETICS_BENCH = Path(__file__).parent.parent / "benchmarks" / "kinetics.config"
GOLDEN = Path(__file__).parent / "golden"
TIGHT = AlgoParams(eps=1e-8, eps_sip=1e-12, max_iter_sip=60)


def counting_pairs(pair, monkeypatch, jac=False):
    """``pair`` with an alternative (and with ``jac`` its ``alternative_jac``) that counts its (row, theta) pairs,
    and the counter.

    The global search keeps the uncounted pair.
    """
    seen = Counter()

    def counted(fn):
        def call(X, theta):
            for x in X:
                seen[x.tobytes(), theta.tobytes()] += 1
            return fn(X, theta)

        return call

    search = algorithms.maximize_distance
    monkeypatch.setattr(algorithms, "maximize_distance", lambda _, *a, **k: search(pair, *a, **k))
    jacobian = {"alternative_jac": counted(pair.alternative_jac)} if jac else {}
    return dataclasses.replace(pair, alternative=counted(pair.alternative), **jacobian), seen


class TestDiscMd:
    def test_single_candidate_gets_all_weight(self, toy_pair):
        d = Discretization(toy_pair, [np.array([0.3])], [np.array([0.0])])
        design, rows, fit, converged = disc_md(d, AlgoParams())
        assert converged
        assert design.n_points == 1 and design.weights[0] == 1.0
        assert fit.theta_hat[0] == pytest.approx(0.3, abs=1e-6)

    def test_toy_two_candidates(self, toy_pair):
        d = Discretization(toy_pair, [np.array([0.0]), np.array([1.0])], [np.array([0.0])])
        design, rows, fit, converged = disc_md(d, TIGHT)
        assert converged
        assert np.array_equal(d.points[rows], design.points)
        assert design.weights == pytest.approx([0.5, 0.5], abs=1e-5)
        assert fit.objective == pytest.approx(0.25, abs=1e-8)

    def test_mm_on_published_support(self):
        pair = make_mm_pair()
        candidates = [np.array([0.386]), np.array([2.596]), np.array([5.0])]
        d = Discretization(pair, candidates, [np.array([1.0, 1.0])])
        design, _, fit, converged = disc_md(d, AlgoParams(eps_sip=1e-8, max_iter_sip=40))
        assert converged
        weights = {round(p[0], 3): w for p, w in zip(design.points, design.weights)}
        assert weights[0.386] == pytest.approx(0.3906, abs=0.01)
        assert weights[2.596] == pytest.approx(0.3896, abs=0.01)
        assert weights[5.0] == pytest.approx(0.2198, abs=0.01)

    def test_lp_relaxation_values_nonincreasing(self, toy_pair):
        history = []
        d = Discretization(toy_pair, [np.array([0.0]), np.array([0.5]), np.array([1.0])], [np.array([0.1])])
        disc_md(d, TIGHT, history=history)
        t_lps = [r.t_lp for r in history if r.phase == "disc"]
        assert len(t_lps) >= 2
        assert all(b <= a + 1e-10 for a, b in zip(t_lps, t_lps[1:]))

    def test_rejects_duplicate_candidates(self, toy_pair):
        with pytest.raises(ValueError, match="distinct"):
            disc_md(Discretization(toy_pair, [np.array([0.0]), np.array([0.0])], [np.array([0.0])]))

    def test_rejects_empty_discretization(self, toy_pair):
        with pytest.raises(ValueError, match="discretization"):
            disc_md(Discretization(toy_pair, [np.array([0.0])], []))

    def test_validates_sip_settings(self):
        with pytest.raises(ValueError):
            AlgoParams(eps_sip=0.0)
        with pytest.raises(ValueError):
            AlgoParams(max_iter_sip=0)

    def test_n_theta_starts_at_least_one(self):
        # With no Sobol start the fit a run stops on would go unchecked.
        with pytest.raises(ValueError, match="^n_theta_starts must be >= 1"):
            AlgoParams(n_theta_starts=0)
        assert AlgoParams(n_theta_starts=1).n_theta_starts == 1

    def test_eps_sip_follows_eps(self):
        assert AlgoParams().eps_sip == AlgoParams().eps == 1e-5
        assert AlgoParams(eps=1e-6).eps_sip == 1e-6
        assert AlgoParams(eps=1e-6, eps_sip=1e-8).eps_sip == 1e-8
        assert AlgoParams(eps=1e-6, eps_sip=1e-6).eps_sip == 1e-6

    def test_eps_sip_above_eps_rejected(self):
        with pytest.raises(ValueError, match="^eps_sip 1e-05 exceeds eps 1e-06$"):
            AlgoParams(eps=1e-6, eps_sip=1e-5)

    def test_binding_theta_converges_in_one_iteration(self, toy_pair):
        # The initial theta already minimizes the distance at the only
        # candidate, so the first cut binds.
        history = []
        d = Discretization(toy_pair, [np.array([0.3])], [np.array([0.3])])
        _, _, _, converged = disc_md(d, TIGHT, history=history)
        assert converged
        assert len(history) == 1
        assert len(d.thetas) == 2  # one appended cut

    def test_grows_until_binding(self, toy_pair):
        history = []
        candidates = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        d = Discretization(toy_pair, candidates, [np.array([0.1])])
        _, _, fit, converged = disc_md(d, TIGHT, history=history)
        assert converged
        assert len(history) > 1
        assert len(d.thetas) == 1 + len(history)
        assert fit.objective == pytest.approx(0.25, abs=1e-8)

    def test_iteration_limit(self, toy_pair):
        history = []
        candidates = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        params = AlgoParams(eps_sip=1e-12, max_iter_sip=2)
        d = Discretization(toy_pair, candidates, [np.array([0.1])])
        _, _, _, converged = disc_md(d, params, history=history)
        assert not converged
        assert len(history) == 2 and len(d.thetas) == 3

    def test_lp_failure_names_its_inner_iteration(self, toy_pair, monkeypatch):
        calls = []
        original = algorithms.solve_weight_lp

        def second_fails(instance):
            calls.append(instance)
            return original(instance) if len(calls) < 2 else None

        monkeypatch.setattr(algorithms, "solve_weight_lp", second_fails)
        d = Discretization(toy_pair, [np.array([0.0]), np.array([0.5]), np.array([1.0])], [np.array([0.1])])
        with pytest.raises(SolverError, match="at inner iteration 2"):
            disc_md(d, TIGHT)

    def test_each_candidate_theta_pair_evaluated_once(self, monkeypatch):
        # The phi matrix carried between outer iterations and the fits that
        # grow it evaluate every (candidate, theta) pair at most once.  The
        # global search is not counted.
        cfg = load_config(MM_CONFIG)
        pair, seen = counting_pairs(cfg.pair, monkeypatch)
        result = two_adapt_md(pair, cfg.space, cfg.initial, cfg.params)
        assert result.converged
        assert seen and max(seen.values()) == 1


class TestTwoAdaptMd:
    def test_toy_reaches_closed_form_optimum(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        result = two_adapt_md(toy_pair, TOY_BOX, initial, params=TIGHT)
        assert result.converged
        support = {round(p[0], 6): w for p, w in zip(result.design.points, result.design.weights)}
        assert set(support) == {0.0, 1.0}
        assert support[0.0] == pytest.approx(0.5, abs=1e-5)
        assert result.t_value == pytest.approx(0.25, abs=1e-7)
        assert result.theta_hat[0] == pytest.approx(0.5, abs=1e-6)

    def test_identical_models_converge_immediately(self):
        pair = make_mm_pair(F=0.0)  # reference equals alternative at (1, 1)
        initial = Design(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
        result = two_adapt_md(pair, Box([0.001], [5.0]), initial)
        assert result.converged
        assert result.t_value == pytest.approx(0.0, abs=1e-10)
        assert result.accuracy <= 1e-5

    def test_outer_t_values_monotone_up_to_sip_slack(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        result = two_adapt_md(toy_pair, TOY_BOX, initial, params=TIGHT)
        outer = [r.t_value for r in result.history if r.phase == "outer"]
        assert all(b >= a - TIGHT.eps_sip for a, b in zip(outer, outer[1:]))

    def test_accuracy_nonnegative_at_termination(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        result = two_adapt_md(toy_pair, TOY_BOX, initial, params=TIGHT)
        assert result.accuracy >= -1e-12

    def test_initial_design_outside_space_rejected(self, toy_pair):
        from discrimopt.core import DesignError

        initial = Design(np.array([[2.0]]), np.array([1.0]))
        with pytest.raises(DesignError):
            two_adapt_md(toy_pair, TOY_BOX, initial)

    def test_lattice_solution_matches_full_lattice_weight_solve(self, toy_pair):
        lat = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
        initial = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
        result = two_adapt_md(toy_pair, lat, initial, params=TIGHT)
        assert result.converged
        design, _, fit, _ = disc_md(Discretization(toy_pair, lat.enumerate(), [np.array([0.2])]), TIGHT)
        assert result.t_value == pytest.approx(fit.objective, abs=1e-6)

    def test_explicit_initial_discretization_used(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        result = two_adapt_md(
            toy_pair, TOY_BOX, initial, theta_disc0=[np.array([0.9])], params=TIGHT
        )
        assert result.converged
        assert result.t_value == pytest.approx(0.25, abs=1e-7)

    def test_history_has_both_phases(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        result = two_adapt_md(toy_pair, TOY_BOX, initial, params=TIGHT)
        phases = {r.phase for r in result.history}
        assert phases == {"disc", "outer"}
        assert result.runtime_seconds > 0


class TestDisc:
    def test_lattice_uses_every_point(self, toy_pair):
        lat = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
        initial = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
        result = disc(toy_pair, lat, initial, TIGHT)
        # T is flat at the optimum, so the certificate (max psi <= 1e-8) is
        # out of reach of the 1e-12 cut tolerance; the value is not.
        assert result.t_value == pytest.approx(0.25, abs=1e-9)
        assert {round(p[0], 6) for p in result.design.points} == {0.0, 1.0}
        assert result.iterations == len(result.history)
        assert {r.phase for r in result.history} == {"disc"}

    def test_each_candidate_theta_pair_evaluated_once(self, monkeypatch):
        # Each fitted theta is evaluated at each candidate once, by the fit that found it, whether by
        # alternative or by alternative_jac: the initial fit fills theta_0's column, each later fit starts
        # from the rows of the fit before it, and the certificate takes the last fit's phi.  The Sobol
        # starts' thetas, which the initial fit and the final Sobol check share, are not counted.
        cfg = load_config(MM_CONFIG)
        pair, seen = counting_pairs(cfg.pair, monkeypatch, jac=True)
        fits, fit_parameters = [], algorithms.fit_parameters
        monkeypatch.setattr(algorithms, "fit_parameters",
                            lambda *a, **k: fits.append(fit_parameters(*a, **k)) or fits[-1])
        disc(pair, cfg.space, cfg.initial, cfg.params)
        fitted = {fit.theta_hat.tobytes() for fit in fits}
        seen = Counter({key: n for key, n in seen.items() if key[1] in fitted})
        assert seen and max(seen.values()) == 1

    def test_box_uses_initial_points(self, toy_pair):
        initial = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
        result = disc(toy_pair, TOY_BOX, initial, TIGHT)
        assert result.t_value == pytest.approx(0.0625, abs=1e-7)
        assert not result.converged  # the box optimum needs the end points


class TestReferenceRows:
    """Each solver evaluates the reference once on the scan points and once per point that joins.

    Calls of ``pair.reference``, by number of rows, on the toy pair over a
    five-point lattice: the initial design's two points, the scan's five,
    then one row per candidate or support point added.  No fit and no scan
    evaluates it again.
    """

    LATTICE = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
    INITIAL = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))

    @staticmethod
    def counted(pair):
        calls = []

        def reference(X):
            calls.append(len(X))
            return pair.reference(X)

        return dataclasses.replace(pair, reference=reference), calls

    def test_two_adapt(self, toy_pair):
        pair, calls = self.counted(toy_pair)
        result = two_adapt_md(pair, self.LATTICE, self.INITIAL, TIGHT)
        assert result.converged
        added = result.history[-1].n_candidates - 2
        assert added > 0 and calls == [2, 5] + [1] * added

    def test_vdm(self, toy_pair):
        pair, calls = self.counted(toy_pair)
        result = vdm(pair, self.LATTICE, self.INITIAL, AlgoParams(lam=0.0, max_iter=20))
        added = result.design.n_points - 2
        assert added > 0 and calls == [2, 5] + [1] * added

    def test_disc(self, toy_pair):
        # The candidates, the lattice: the initial fit and the certificate's scan reuse their rows.
        pair, calls = self.counted(toy_pair)
        disc(pair, self.LATTICE, self.INITIAL, TIGHT)
        assert calls == [5]


class TestDiscretization:
    @pytest.mark.parametrize("problem", ["toy", "mm", "kinetics"])
    def test_lp_reads_phi_as_evaluated_from_scratch(self, problem, toy_pair, monkeypatch):
        # Every weight LP of a 2ADAPT solve reads one row per candidate and
        # one column per cut of its time, with no NaN left, equal bit for
        # bit to squared distances evaluated afresh; on the kinetics lattice
        # the refit cuts' entries come from the certificates' scans.
        if problem in ("mm", "kinetics"):
            cfg = load_config(MM_CONFIG if problem == "mm" else KINETICS_BENCH)
            pair, args = cfg.pair, (cfg.space, cfg.initial, cfg.params)
        else:
            pair, args = toy_pair, (TOY_BOX, Design(np.array([[0.5]]), np.array([1.0])), TIGHT)
        seen, lps = [], []
        solve_weight_lp, run_disc_md = algorithms.solve_weight_lp, algorithms.disc_md

        def recorded_lp(instance):
            lps.append((instance.phi, len(seen[-1].points), len(seen[-1].thetas)))
            return solve_weight_lp(instance)

        def recorded_disc_md(d, *args, **kwargs):
            seen.append(d)
            return run_disc_md(d, *args, **kwargs)

        monkeypatch.setattr(algorithms, "solve_weight_lp", recorded_lp)
        monkeypatch.setattr(algorithms, "disc_md", recorded_disc_md)
        assert two_adapt_md(pair, *args).converged
        d = seen[0]
        assert all(s is d for s in seen) and lps
        for phi, n_points, n_cuts in lps:
            assert phi.shape == (n_points, n_cuts) and not np.isnan(phi).any()
            fresh = np.column_stack([squared_distance(pair, d.points[:n_points], t) for t in d.thetas[:n_cuts]])
            assert np.array_equal(phi, fresh)

    def test_point_equal_under_canonical_key_not_added(self, toy_pair):
        calls = []

        def reference(X):
            calls.append("reference")
            return toy_pair.reference(X)

        def alternative(X, theta):
            calls.append("alternative")
            return toy_pair.alternative(X, theta)

        pair = dataclasses.replace(toy_pair, reference=reference, alternative=alternative)
        d = Discretization(pair, [np.array([0.25]), np.array([0.75])], [np.array([0.5])])
        phi = d.matrix()
        calls.clear()
        assert d.add(np.array([0.25 + 1e-14])) is False
        assert calls == [] and np.array_equal(d.matrix(), phi) and len(d.points) == 2
        assert d.add(np.array([0.5])) is True and calls == ["reference"]

    def test_disc_initial_point_off_the_lattice_by_rounding(self, toy_pair):
        # 0.25 + 4e-10 lies on the lattice within its 1e-9 tolerance, but
        # equals no lattice point bit for bit: the initial fit evaluates its
        # own reference rows and the fill evaluates that phi entry.
        pair, calls = TestReferenceRows.counted(toy_pair)
        initial = Design(np.array([[0.25 + 4e-10], [0.75]]), np.array([0.5, 0.5]))
        result = disc(pair, TestReferenceRows.LATTICE, initial, TIGHT)
        assert calls == [5, 2]
        assert result.t_value == pytest.approx(0.24999999999909034, rel=1e-12)
        assert not result.converged


class TestEachRowOnce:
    """A 2ADAPT solve evaluates each (point, theta) row of the alternative once.

    A refit's cut takes phi from the refit at the support and from its
    certificate's scan at the other candidates on the scan, and a fit that
    starts from an earlier fit's theta_hat on points that fit covered takes
    that fit's rows.
    """

    @staticmethod
    def logged(pair, monkeypatch):
        """``pair`` whose alternative and alternative_jac log (kind, caller, rows, theta) per call, and the log.

        The caller is "scan" inside the certificate's search, "fill" inside
        :meth:`Discretization.matrix`, else "fit"; rows are the points' bytes.
        """
        log, caller = [], ["fit"]

        def during(name, fn):
            def call(*args, **kwargs):
                caller.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    caller.pop()

            return call

        monkeypatch.setattr(algorithms, "maximize_distance", during("scan", algorithms.maximize_distance))
        monkeypatch.setattr(Discretization, "matrix", during("fill", Discretization.matrix))

        def logs(kind, fn):
            def call(X, theta):
                log.append((kind, caller[-1], [x.tobytes() for x in X], theta.tobytes()))
                return fn(X, theta)

            return call

        return dataclasses.replace(pair, alternative=logs("alternative", pair.alternative),
                                   alternative_jac=logs("jac", pair.alternative_jac)), log

    def test_kinetics_scan_and_fills_share_no_row(self, monkeypatch):
        # Every alternative call, the search's included: no (x, theta) row is evaluated twice, and none by both
        # the certificate's scan and a fill of the weight LP's matrix.
        cfg = load_config(KINETICS_BENCH)
        pair, log = self.logged(cfg.pair, monkeypatch)
        assert two_adapt_md(pair, cfg.space, cfg.initial, cfg.params).converged
        rows = {caller: Counter() for caller in ("scan", "fill", "fit")}
        for kind, caller, points, theta in log:
            if kind == "alternative":
                rows[caller].update((x, theta) for x in points)
        assert rows["scan"] and rows["fill"]
        assert not rows["scan"].keys() & rows["fill"].keys()
        assert max((rows["scan"] + rows["fill"] + rows["fit"]).values()) == 1

    @pytest.mark.parametrize("config", [MM_CONFIG, KINETICS_BENCH], ids=["mm", "kinetics"])
    def test_no_fit_evaluates_rows_an_earlier_fit_computed(self, config, monkeypatch):
        # No alternative_jac call is at a theta and on points whose every row an earlier call computed.
        cfg = load_config(config)
        pair, log = self.logged(cfg.pair, monkeypatch)
        assert two_adapt_md(pair, cfg.space, cfg.initial, cfg.params).converged
        calls, seen = [(points, theta) for kind, _, points, theta in log if kind == "jac"], set()
        repeats = 0
        for points, theta in calls:
            repeats += all((x, theta) in seen for x in points)
            seen.update((x, theta) for x in points)
        assert calls and repeats == 0


class TestWhereTheMultistartRuns:
    """Every fit that has a warm start runs that start alone; the Sobol starts run where a run ends.

    Each cut fit of :func:`disc_md` and each refit of 2ADAPT and VDM runs one
    least-squares start, its warm start.  The refit a run ends on then meets
    the ``n_theta_starts`` Sobol starts (the Sobol check), which makes it the
    full multistart's result.  The fits without a warm start (the initial
    fits of 2ADAPT and DISC, VDM's first fit, and ``verify`` of a file
    without ``theta_hat``) run the Sobol starts alone.  DISC's final refit,
    and ``verify`` from a file's ``theta_hat``, end a run: the warm start,
    then the Sobol check.
    """

    @staticmethod
    def starts_per_fit(monkeypatch):
        """A list that the solve fills with [inside disc_md, least-squares starts] per fit."""
        fits, depth = [], []
        least_squares, fit_parameters, disc_md = lsq.least_squares, algorithms.fit_parameters, algorithms.disc_md

        def counted_least_squares(*args, **kwargs):
            fits[-1][1] += 1
            return least_squares(*args, **kwargs)

        def recorded_fit(*args, **kwargs):
            fits.append([bool(depth), 0])
            return fit_parameters(*args, **kwargs)

        def recorded_disc_md(*args, **kwargs):
            depth.append(None)
            try:
                return disc_md(*args, **kwargs)
            finally:
                depth.pop()

        monkeypatch.setattr(lsq, "least_squares", counted_least_squares)
        monkeypatch.setattr(algorithms, "fit_parameters", recorded_fit)
        monkeypatch.setattr(algorithms, "disc_md", recorded_disc_md)
        return fits

    def test_two_adapt(self, monkeypatch):
        cfg = load_config(MM_CONFIG)
        n = cfg.params.n_theta_starts
        fits = self.starts_per_fit(monkeypatch)
        result = two_adapt_md(cfg.pair, cfg.space, cfg.initial, cfg.params)
        assert result.converged and n > 1
        assert fits[0] == [False, n]
        cuts = sum(r.phase == "disc" for r in result.history)
        assert [s for inside, s in fits[1:] if inside] == [1] * cuts
        # One warm refit per outer iteration; the certified one then meets the Sobol starts, and none beats it.
        assert [s for inside, s in fits[1:] if not inside] == [1] * result.iterations + [n]
        assert fits[-2:] == [[False, 1], [False, n]]

    def test_vdm(self, monkeypatch):
        cfg = load_config(MM_CONFIG, algorithm="vdm")
        n = cfg.params.n_theta_starts
        fits = self.starts_per_fit(monkeypatch)
        result = vdm(cfg.pair, cfg.space, cfg.initial, cfg.params)
        assert result.converged and result.iterations > 2
        assert fits == [[False, n]] + [[False, 1]] * (result.iterations - 1) + [[False, n]]

    def test_disc(self, monkeypatch):
        cfg = load_config(MM_CONFIG)
        n = cfg.params.n_theta_starts
        fits = self.starts_per_fit(monkeypatch)
        result = disc(cfg.pair, cfg.space, cfg.initial, cfg.params)
        assert fits == [[False, n]] + [[True, 1]] * len(result.history) + [[False, 1], [False, n]]

    @pytest.mark.parametrize("warm", [True, False], ids=["theta_hat", "no-theta_hat"])
    def test_verify(self, warm, monkeypatch, tmp_path):
        # From the file's theta_hat, the warm fit alone and then the Sobol check; without one, the multistart.
        n = load_config(MM_CONFIG).params.n_theta_starts
        payload = json.loads((GOLDEN / "mm-2adapt.design.json").read_text())
        if not warm:
            del payload["theta_hat"]
        path = tmp_path / "design.json"
        path.write_text(json.dumps(payload))
        fits = self.starts_per_fit(monkeypatch)
        assert main(["verify", "--design", str(path), "--config", str(MM_CONFIG)]) == 0
        assert fits == ([[False, 1], [False, n]] if warm else [[False, n]])

    def test_sobol_check_overturns_a_warm_fit_in_the_worse_basin(self, caplog):
        # From the cut theta = 0.2, on the local maximum of c, the warm refit of
        # the one-point design {1: 1} stays there, and its certificate says stop:
        # psi(x) = (x - c(0.2))^2 - (1 - c(0.2))^2 peaks at 0, at x = 1.
        pair = two_basins()
        initial = Design(np.array([[1.0]]), np.array([1.0]))
        warm = fit_parameters(pair, initial, [0.2], n_starts=0)
        assert warm.theta_hat[0] == pytest.approx(0.2, abs=1e-6)
        assert check_optimality(pair, initial, warm.theta_hat, TOY_BOX).is_eps_optimal(1e-5)

        with caplog.at_level(logging.INFO, logger="discrimopt"):
            result = two_adapt_md(pair, TOY_BOX, initial, theta_disc0=[np.array([0.2])])
        assert "beat the warm fit" in caplog.text
        # Outer iteration 1 records the winner's certificate, c(theta) = 1 and psi(0) = 1, and the run goes on.
        first = next(r for r in result.history if r.phase == "outer")
        assert first.accuracy == pytest.approx(1.0, abs=1e-6)
        assert result.iterations > 1
        assert result.converged and result.t_value == pytest.approx(0.25, abs=1e-6)
        assert sorted(round(p[0], 6) for p in result.design.points) == [0.0, 1.0]

    @pytest.mark.parametrize("name, max_iter", [("2adapt", 3), ("vdm", 5)])
    def test_run_ending_at_max_iter_returns_the_multistart_fit(self, name, max_iter, monkeypatch):
        cfg = load_config(MM_CONFIG, algorithm=name)
        params = dataclasses.replace(cfg.params, max_iter=max_iter)
        calls = []
        recorded = algorithms.fit_parameters

        def recorded_fit(*args, **kwargs):
            calls.append((args, kwargs))
            return recorded(*args, **kwargs)

        monkeypatch.setattr(algorithms, "fit_parameters", recorded_fit)
        result = solve(name, cfg.pair, cfg.space, cfg.initial, params)
        assert not result.converged and result.iterations == max_iter
        # The last two fits are the final warm refit and its Sobol check.
        (pair, design, warm), kwargs = calls[-2][0], calls[-2][1]
        assert "incumbent" in calls[-1][1]
        full = fit_parameters(pair, design, warm, n_starts=params.n_theta_starts, lam=params.lam, refs=kwargs["refs"])
        assert np.array_equal(result.theta_hat, full.theta_hat)
        assert result.t_value == full.objective == result.history[-1].t_value
        assert np.array_equal(result.design.points, design.points)


@pytest.mark.parametrize(
    "config, nfev, outer, inner",
    [(MM_CONFIG, range(374, 375), 10, 33), (KINETICS_BENCH, range(261), 10, 21)],
    ids=["mm", "kinetics"],
)
def test_two_adapt_least_squares_work(config, nfev, outer, inner, monkeypatch):
    # Residual evaluations of every least-squares call in a 2ADAPT solve: mm holds no parameter and
    # keeps its count; every kinetics fit ends with k1 on its bound, and holding it there keeps the
    # count at or below 260 (392 over all four parameters).
    counts = []
    least_squares = lsq.least_squares

    def counted(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        counts.append(res.nfev)
        return res

    monkeypatch.setattr(lsq, "least_squares", counted)
    cfg = load_config(config)
    result = two_adapt_md(cfg.pair, cfg.space, cfg.initial, cfg.params)
    assert result.converged and result.iterations == outer
    assert sum(r.phase == "disc" for r in result.history) == inner
    assert sum(counts) in nfev


class TestSolve:
    def test_dispatches_by_name(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        direct = two_adapt_md(toy_pair, TOY_BOX, initial, TIGHT)
        named = solve("2adapt", toy_pair, TOY_BOX, initial, TIGHT)
        assert named.t_value == direct.t_value
        assert np.array_equal(named.design.points, direct.design.points)

    def test_unknown_name_rejected(self, toy_pair, toy_optimum):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve("simplex", toy_pair, TOY_BOX, toy_optimum)

    def test_solvers_looked_up_at_call_time(self, toy_pair, toy_optimum, monkeypatch):
        called = []
        monkeypatch.setattr(algorithms, "vdm", lambda *args, **kwargs: called.append(args))
        solve("vdm", toy_pair, TOY_BOX, toy_optimum)
        assert len(called) == 1

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_history_kept_when_a_sub_solver_raises(self, name, toy_pair, monkeypatch):
        calls = []

        def alternative(X, theta):
            calls.append(X)
            if len(calls) > 100:
                raise RuntimeError("injected failure")
            return np.full((len(X), 1), theta[0])

        # The search gets the sound pair, so the failure comes from a fit or
        # a phi fill; a failing box refinement would only end itself.  Two
        # initial points give DISC a record before its last model call.
        search = algorithms.maximize_distance
        monkeypatch.setattr(algorithms, "maximize_distance", lambda _, *a, **k: search(toy_pair, *a, **k))
        pair = ModelPair(pointwise(lambda x: np.array([x[0]])), alternative, toy_pair.parameter_space)
        initial = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
        history = []
        with pytest.raises(Exception, match="injected failure|starts failed"):
            solve(name, pair, TOY_BOX, initial, TIGHT, history=history)
        assert history


class TestVdm:
    def test_toy_converges_to_optimum(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        params = AlgoParams(eps=1e-4, max_iter=3000, lam=0.0)
        result = vdm(toy_pair, TOY_BOX, initial, params=params)
        assert result.converged
        assert result.t_value == pytest.approx(0.25, abs=1e-3)

    def test_identical_models_converge_immediately(self):
        pair = make_mm_pair(F=0.0)
        initial = Design(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
        result = vdm(pair, Box([0.001], [5.0]), initial)
        assert result.converged and result.iterations == 1
        assert result.t_value == pytest.approx(0.0, abs=1e-10)

    def test_unconverged_run_returns_its_fitted_design(self):
        # Stopped at max_iter, the run reports the design it fitted and
        # certified last, not one mixed with a further spike.
        pair, space = make_mm_pair(), Box([0.001], [5.0])
        initial = load_config(MM_CONFIG).initial
        result = vdm(pair, space, initial, AlgoParams(max_iter=5, lam=0.0))
        assert not result.converged and result.iterations == 5
        assert result.history[-1].n_candidates == result.design.n_points
        assert result.t_value == t_value(pair, result.design, result.theta_hat)
        assert result.accuracy == check_optimality(pair, result.design, result.theta_hat, space).max_psi


class TestCheckOptimality:
    def test_toy_optimum_certifies(self, toy_pair, toy_optimum):
        report = check_optimality(toy_pair, toy_optimum, [0.5], TOY_BOX)
        assert report.max_psi == pytest.approx(0.0, abs=1e-8)
        assert report.min_support_gap == pytest.approx(0.0, abs=1e-10)
        assert report.is_eps_optimal(1e-5)

    def test_perturbed_weights_fail(self, toy_pair):
        perturbed = Design(np.array([[0.0], [1.0]]), np.array([0.55, 0.45]))
        fit = fit_parameters(toy_pair, perturbed, lam=0.0)
        report = check_optimality(toy_pair, perturbed, fit.theta_hat, TOY_BOX)
        assert report.max_psi > 10 * 1e-5
        assert not report.is_eps_optimal(1e-5)

    def test_certificate_does_not_depend_on_the_solver(self):
        # Re-certified from scratch, with no phi and no preferred points,
        # the 2ADAPT result gives the accuracy the solver reported.
        cfg = load_config(MM_CONFIG)
        result = two_adapt_md(cfg.pair, cfg.space, cfg.initial, cfg.params)
        report = check_optimality(cfg.pair, result.design, result.theta_hat, cfg.space)
        assert result.converged and report.is_eps_optimal(cfg.params.eps)
        assert report.max_psi == result.accuracy

    def test_disc_certificate_does_not_depend_on_the_solver(self):
        # DISC certifies from its final refit's phi; re-certified from
        # scratch, its design gives the accuracy the solver reported.
        cfg = load_config(MM_CONFIG)
        result = disc(cfg.pair, cfg.space, cfg.initial, cfg.params)
        report = check_optimality(cfg.pair, result.design, result.theta_hat, cfg.space)
        assert report.max_psi == result.accuracy

    def test_single_point_design_far_from_optimal(self):
        pair = make_mm_pair()
        design = Design(np.array([[5.0]]), np.array([1.0]))
        fit = fit_parameters(pair, design)
        report = check_optimality(pair, design, fit.theta_hat, Box([0.001], [5.0]))
        assert report.max_psi > 1e-3
