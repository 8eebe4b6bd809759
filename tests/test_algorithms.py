import importlib.resources
from collections import Counter

import numpy as np
import pytest

import discrimopt.algorithms as algorithms
from discrimopt import (
    ALGORITHMS,
    AlgoParams,
    Box,
    Design,
    FitConfig,
    GlobalSearchConfig,
    Lattice,
    ModelPair,
    ParameterSpace,
    SolverError,
    WeightLpSolution,
    check_optimality,
    disc,
    disc_md,
    fit_parameters,
    load_config,
    make_mm_pair,
    solve,
    two_adapt_md,
    vdm,
)

from conftest import linear_vs_constant

TOY_BOX = Box([0.0], [1.0])
TIGHT = AlgoParams(eps=1e-8, eps_sip=1e-12, max_iter_sip=60)


class TestDiscMd:
    def test_single_candidate_gets_all_weight(self, toy_pair):
        design, thetas, fit, converged = disc_md(
            toy_pair, [np.array([0.3])], [np.array([0.0])], AlgoParams()
        )
        assert converged
        assert design.n_points == 1 and design.weights[0] == 1.0
        assert fit.theta_hat[0] == pytest.approx(0.3, abs=1e-6)

    def test_toy_two_candidates(self, toy_pair):
        design, thetas, fit, converged = disc_md(
            toy_pair,
            [np.array([0.0]), np.array([1.0])],
            [np.array([0.0])],
            TIGHT,
        )
        assert converged
        assert design.weights == pytest.approx([0.5, 0.5], abs=1e-5)
        assert fit.objective == pytest.approx(0.25, abs=1e-8)

    def test_mm_on_published_support(self):
        pair = make_mm_pair()
        candidates = [np.array([0.386]), np.array([2.596]), np.array([5.0])]
        design, _, fit, converged = disc_md(
            pair,
            candidates,
            [np.array([1.0, 1.0])],
            AlgoParams(eps_sip=1e-8, max_iter_sip=40),
        )
        assert converged
        weights = {round(p[0], 3): w for p, w in zip(design.points, design.weights)}
        assert weights[0.386] == pytest.approx(0.3906, abs=0.01)
        assert weights[2.596] == pytest.approx(0.3896, abs=0.01)
        assert weights[5.0] == pytest.approx(0.2198, abs=0.01)

    def test_lp_relaxation_values_nonincreasing(self, toy_pair):
        history = []
        disc_md(
            toy_pair,
            [np.array([0.0]), np.array([0.5]), np.array([1.0])],
            [np.array([0.1])],
            TIGHT,
            history=history,
        )
        t_lps = [r.t_lp for r in history if r.phase == "disc"]
        assert len(t_lps) >= 2
        assert all(b <= a + 1e-10 for a, b in zip(t_lps, t_lps[1:]))

    def test_rejects_duplicate_candidates(self, toy_pair):
        with pytest.raises(ValueError, match="distinct"):
            disc_md(
                toy_pair,
                [np.array([0.0]), np.array([0.0])],
                [np.array([0.0])],
            )

    def test_rejects_empty_discretization(self, toy_pair):
        with pytest.raises(ValueError, match="discretization"):
            disc_md(toy_pair, [np.array([0.0])], [])

    def test_validates_sip_settings(self):
        with pytest.raises(ValueError):
            AlgoParams(eps_sip=0.0)
        with pytest.raises(ValueError):
            AlgoParams(max_iter_sip=0)

    def test_binding_theta_converges_in_one_iteration(self, toy_pair):
        # The initial theta already minimizes the distance at the only
        # candidate, so the first cut binds.
        history = []
        _, thetas, _, converged = disc_md(
            toy_pair, [np.array([0.3])], [np.array([0.3])], TIGHT, history=history
        )
        assert converged
        assert len(history) == 1
        assert len(thetas) == 2  # one appended cut

    def test_grows_until_binding(self, toy_pair):
        history = []
        candidates = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        _, thetas, fit, converged = disc_md(
            toy_pair, candidates, [np.array([0.1])], TIGHT, history=history
        )
        assert converged
        assert len(history) > 1
        assert len(thetas) == 1 + len(history)
        assert fit.objective == pytest.approx(0.25, abs=1e-8)

    def test_iteration_limit(self, toy_pair):
        history = []
        candidates = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        params = AlgoParams(eps_sip=1e-12, max_iter_sip=2)
        _, thetas, _, converged = disc_md(
            toy_pair, candidates, [np.array([0.1])], params, history=history
        )
        assert not converged
        assert len(history) == 2 and len(thetas) == 3

    def test_lp_failure_names_its_inner_iteration(self, toy_pair, monkeypatch):
        calls = []
        original = algorithms.solve_weight_lp

        def second_fails(instance):
            calls.append(instance)
            if len(calls) < 2:
                return original(instance)
            n = instance.n_points
            return WeightLpSolution(np.full(n, 1.0 / n), 0.0, "infeasible_numerics")

        monkeypatch.setattr(algorithms, "solve_weight_lp", second_fails)
        candidates = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
        with pytest.raises(SolverError, match="at inner iteration 2"):
            disc_md(toy_pair, candidates, [np.array([0.1])], TIGHT)

    def test_each_candidate_theta_pair_evaluated_once(self, monkeypatch):
        # The phi matrix carried between outer iterations evaluates every
        # (candidate, theta) pair at most once, repeated thetas included.
        seen = Counter()
        original = algorithms.squared_distance

        def counted(pair, x, theta):
            seen[np.asarray(x, dtype=float).tobytes(), np.asarray(theta, dtype=float).tobytes()] += 1
            return original(pair, x, theta)

        monkeypatch.setattr(algorithms, "squared_distance", counted)
        cfg = load_config(importlib.resources.files("discrimopt") / "configs" / "mm.config")
        result = two_adapt_md(cfg.pair, cfg.space, cfg.initial, cfg.params, cfg.gcfg)
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
        from discrimopt import DesignError

        initial = Design(np.array([[2.0]]), np.array([1.0]))
        with pytest.raises(DesignError):
            two_adapt_md(toy_pair, TOY_BOX, initial)

    def test_lattice_solution_matches_full_lattice_weight_solve(self, toy_pair):
        lat = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
        initial = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
        result = two_adapt_md(toy_pair, lat, initial, params=TIGHT)
        assert result.converged
        candidates = list(lat.enumerate())
        design, _, fit, _ = disc_md(toy_pair, candidates, [np.array([0.2])], TIGHT)
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

    def test_box_uses_initial_points(self, toy_pair):
        initial = Design(np.array([[0.25], [0.75]]), np.array([0.5, 0.5]))
        result = disc(toy_pair, TOY_BOX, initial, TIGHT)
        assert result.t_value == pytest.approx(0.0625, abs=1e-7)
        assert not result.converged  # the box optimum needs the end points


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
    def test_history_kept_when_a_sub_solver_raises(self, name, toy_pair):
        calls = []

        def alternative(x, theta):
            calls.append(x)
            if len(calls) > 100:
                raise RuntimeError("injected failure")
            return np.array([theta[0]])

        pair = ModelPair(lambda x: np.array([x[0]]), alternative, toy_pair.parameter_space)
        initial = Design(np.array([[0.5]]), np.array([1.0]))
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

    def test_line_search_step_rule(self, toy_pair):
        initial = Design(np.array([[0.5]]), np.array([1.0]))
        params = AlgoParams(eps=1e-4, max_iter=400, lam=0.0, vdm_step_rule="line_search")
        result = vdm(toy_pair, TOY_BOX, initial, params=params)
        assert result.t_value == pytest.approx(0.25, abs=2e-3)

    def test_unknown_step_rule_rejected(self):
        with pytest.raises(ValueError):
            AlgoParams(vdm_step_rule="newton")


class TestCheckOptimality:
    def test_toy_optimum_certifies(self, toy_pair, toy_optimum):
        report = check_optimality(toy_pair, toy_optimum, [0.5], TOY_BOX)
        assert report.max_psi == pytest.approx(0.0, abs=1e-8)
        assert report.min_support_gap == pytest.approx(0.0, abs=1e-10)
        assert report.is_eps_optimal(1e-5)

    def test_perturbed_weights_fail(self, toy_pair):
        perturbed = Design(np.array([[0.0], [1.0]]), np.array([0.55, 0.45]))
        fit = fit_parameters(toy_pair, perturbed, cfg=FitConfig(lam=0.0))
        report = check_optimality(toy_pair, perturbed, fit.theta_hat, TOY_BOX)
        assert report.max_psi > 10 * 1e-5
        assert not report.is_eps_optimal(1e-5)

    def test_single_point_design_far_from_optimal(self):
        pair = make_mm_pair()
        design = Design(np.array([[5.0]]), np.array([1.0]))
        fit = fit_parameters(pair, design)
        report = check_optimality(pair, design, fit.theta_hat, Box([0.001], [5.0]))
        assert report.max_psi > 1e-3
