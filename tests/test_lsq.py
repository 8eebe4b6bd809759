import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import discrimopt

from discrimopt import Box, Design, ModelPair, make_mm_pair, pointwise
from discrimopt.core import DesignError, squared_distance, t_value
from discrimopt.lsq import FitError, fit_parameters, sobol_points
from discrimopt.models import make_kinetics_pair

from conftest import linear_vs_constant, two_basins


class TestSobolPoints:
    def test_first_three_one_dimensional(self):
        box = Box([0.0], [1.0])
        pts = sobol_points(3, box)
        # First post-origin values of the unscrambled sequence.
        assert [p[0] for p in pts] == pytest.approx([0.5, 0.75, 0.25], abs=1e-15)

    def test_empty_request(self):
        assert sobol_points(0, Box([0.0], [1.0])) == []

    def test_first_point_scales_into_box(self):
        box = Box([0.0, 0.0], [2.0, 2.0])
        pts = sobol_points(1, box)
        assert pts[0] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_deterministic(self):
        box = Box([0.0], [1.0])
        a = sobol_points(5, box)
        b = sobol_points(5, box)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("dim", [0, 33])
    def test_dimensions_outside_the_direction_numbers_rejected(self, dim):
        with pytest.raises(DesignError, match=f"1 to 32 dimensions, got {dim}"):
            sobol_points(3, Box(np.zeros(dim), np.ones(dim)))

    @pytest.mark.parametrize("n", [1, 2, 9, 64])
    def test_equal_to_scipy(self, n):
        from scipy.stats import qmc

        for dim in range(1, 33):
            box = Box(np.zeros(dim), np.ones(dim))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                expected = qmc.Sobol(dim, scramble=False).random(n + 1)[1:]
            assert np.array_equal(np.array(sobol_points(n, box)), expected)

    def test_scipy_stats_not_imported(self):
        # The embedded direction numbers keep scipy.stats (~0.5 s, ~20 MB)
        # off the import path of the CLI and of a fit.
        code = (
            "import sys, numpy as np\n"
            "import discrimopt.cli\n"
            "from discrimopt import Design, make_mm_pair\n"
            "from discrimopt.lsq import fit_parameters\n"
            "fit_parameters(make_mm_pair(), Design(np.array([[0.5], [2.0], [5.0]]), np.full(3, 1 / 3)))\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        src = str(Path(discrimopt.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"


class TestFitParameters:
    def test_toy_weighted_mean(self, toy_pair, toy_optimum):
        fit = fit_parameters(toy_pair, toy_optimum, lam=0.0)
        assert fit.theta_hat[0] == pytest.approx(0.5, abs=1e-8)
        assert fit.objective == pytest.approx(0.25, abs=1e-10)

    def test_exact_fit_when_models_coincide(self):
        # Reference with no linear term is the alternative at (V, K) = (1, 1).
        pair = make_mm_pair(F=0.0)
        design = Design(np.array([[0.5], [1.5], [3.0]]), np.full(3, 1 / 3))
        fit = fit_parameters(pair, design, lam=0.0)
        assert fit.objective == pytest.approx(0.0, abs=1e-12)
        assert fit.theta_hat == pytest.approx([1.0, 1.0], abs=1e-4)

    def test_mm_published_design_parameters(self):
        pair = make_mm_pair()
        design = Design(
            np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198])
        )
        fit = fit_parameters(pair, design)
        assert fit.theta_hat == pytest.approx([1.86, 2.15], abs=0.02)

    def test_bounds_respected(self, toy_pair):
        design = Design(np.array([[1.0]]), np.array([1.0]))
        # Best unconstrained theta is 1.0, exactly at the bound.
        fit = fit_parameters(toy_pair, design, lam=0.0)
        assert 0.0 <= fit.theta_hat[0] <= 1.0
        assert fit.theta_hat[0] == pytest.approx(1.0, abs=1e-8)

    def test_warm_start_never_hurts(self, toy_pair, toy_optimum):
        cold = fit_parameters(toy_pair, toy_optimum, n_starts=9)
        warm = fit_parameters(
            toy_pair, toy_optimum, warm_start=[0.5], n_starts=9
        )
        assert warm.regularized_objective <= cold.regularized_objective + 1e-15

    def test_reproducible_bit_for_bit(self, toy_pair, toy_optimum):
        a = fit_parameters(toy_pair, toy_optimum)
        b = fit_parameters(toy_pair, toy_optimum)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.objective == b.objective
        assert a.start_index == b.start_index

    def test_interior_stationarity(self, toy_pair, toy_optimum):
        fit = fit_parameters(toy_pair, toy_optimum, lam=0.0)
        theta = fit.theta_hat[0]
        h = 1e-6 * (1 + abs(theta))

        def obj(t):
            from discrimopt.core import t_value

            return t_value(toy_pair, toy_optimum, [t])

        grad = (obj(theta + h) - obj(theta - h)) / (2 * h)
        assert abs(grad) <= 1e-4 * (1 + abs(fit.objective))

    def test_incumbent_stands_in_for_the_warm_start(self):
        # On {1: 1} the warm start theta = 0.2 stays in the worse basin and a Sobol start wins.
        pair, design = two_basins(), Design(np.array([[1.0]]), np.array([1.0]))
        warm = fit_parameters(pair, design, [0.2], n_starts=0)
        checked = fit_parameters(pair, design, n_starts=9, incumbent=warm)
        full = fit_parameters(pair, design, [0.2], n_starts=9)
        assert checked.start_index == full.start_index > 0
        assert np.array_equal(checked.theta_hat, full.theta_hat) and np.array_equal(checked.phi, full.phi)
        assert checked.objective == full.objective
        assert checked.regularized_objective == full.regularized_objective < warm.regularized_objective

    def test_incumbent_kept_when_no_start_beats_it(self, toy_pair, toy_optimum):
        # The multistart's own winner ties its start again, and a tie does not replace it.
        best = fit_parameters(toy_pair, toy_optimum, n_starts=9)
        assert fit_parameters(toy_pair, toy_optimum, n_starts=9, incumbent=best) is best
        assert fit_parameters(toy_pair, toy_optimum, n_starts=0, incumbent=best) is best
        with pytest.raises(ValueError, match="incumbent"):
            fit_parameters(toy_pair, toy_optimum, [0.5], incumbent=best)

    def test_no_starts_at_all_rejected(self, toy_pair, toy_optimum):
        with pytest.raises(FitError):
            fit_parameters(toy_pair, toy_optimum, n_starts=0)

    def test_failing_starts_skipped(self, toy_optimum):
        calls = {"n": 0}

        def flaky(x, theta):
            calls["n"] += 1
            if theta[0] > 0.9:
                raise RuntimeError("diverged")
            return np.array([theta[0]])

        pair = ModelPair(
            reference=pointwise(lambda x: np.array([x[0]])),
            alternative=pointwise(flaky),
            parameter_space=Box([0.0], [1.0]),
        )
        fit = fit_parameters(pair, toy_optimum, lam=0.0)
        assert fit.theta_hat[0] == pytest.approx(0.5, abs=1e-6)

    def test_failing_jacobian_starts_skipped(self, toy_optimum):
        def flaky_jac(X, theta):
            if theta[0] > 0.9:
                raise RuntimeError("diverged")
            return np.full((len(X), 1), theta[0]), np.ones((len(X), 1, 1))

        pair = dataclasses.replace(linear_vs_constant(), alternative_jac=flaky_jac)
        fit = fit_parameters(pair, toy_optimum, lam=0.0)
        assert fit.theta_hat[0] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("failing", ["alternative", "alternative_jac"])
    def test_every_start_failing_raises_fit_error(self, toy_optimum, failing):
        # Without a Jacobian the fit calls `alternative`; with one, only
        # `alternative_jac`.
        def broken(x, theta):
            raise RuntimeError("diverged")

        pair = dataclasses.replace(linear_vs_constant(), **{failing: broken})
        with pytest.raises(FitError) as err:
            fit_parameters(pair, toy_optimum, warm_start=[0.5], n_starts=3)
        assert [i for i, _ in err.value.skipped] == [0, 1, 2, 3]

    def test_exact_jacobian_evaluates_each_theta_once(self):
        # The Jacobian reuses the residual evaluation at the same theta.
        base = make_mm_pair()
        seen = []

        def counted_jac(X, theta):
            seen.append((X.tobytes(), tuple(theta)))
            return base.alternative_jac(X, theta)

        pair = dataclasses.replace(base, alternative_jac=counted_jac)
        design = Design(np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198]))
        fit = fit_parameters(pair, design, n_starts=1)
        assert len(seen) == len(set(seen))
        assert fit.theta_hat == pytest.approx([1.86, 2.15], abs=0.02)

    def test_exact_and_finite_difference_fits_agree(self):
        exact = make_mm_pair()
        approx = dataclasses.replace(exact, alternative_jac=None)
        design = Design(np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198]))
        a = fit_parameters(exact, design, n_starts=3)
        b = fit_parameters(approx, design, n_starts=3)
        assert a.objective == pytest.approx(b.objective, rel=1e-8)
        assert a.theta_hat == pytest.approx(b.theta_hat, rel=1e-5)

    @pytest.mark.parametrize(
        "make_pair, points, weights",
        [
            (make_mm_pair, [[0.386], [2.596], [5.0]], [0.3906, 0.3896, 0.2198]),
            (
                make_kinetics_pair,
                [[0.5, 0.1, 0.0, 2.0], [0.7, 0.3, 0.15, 6.0], [0.9, 0.3, 0.3, 10.0]],
                [0.3, 0.3, 0.4],
            ),
        ],
        ids=["mm", "kinetics"],
    )
    def test_phi_is_the_squared_distance_at_theta_hat(self, make_pair, points, weights):
        # Callers use fit.phi in place of evaluating the alternative again.
        pair = make_pair()
        design = Design(np.array(points), np.array(weights))
        fit = fit_parameters(pair, design, n_starts=1)
        assert np.array_equal(fit.phi, squared_distance(pair, design.points, fit.theta_hat))
        assert fit.objective == t_value(pair, design, fit.theta_hat)

    def test_config_validation(self, toy_pair, toy_optimum):
        with pytest.raises(ValueError, match="n_starts"):
            fit_parameters(toy_pair, toy_optimum, n_starts=-1)
        with pytest.raises(ValueError, match="lam"):
            fit_parameters(toy_pair, toy_optimum, lam=-1e-9)
