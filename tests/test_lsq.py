import dataclasses

import numpy as np
import pytest

from discrimopt import (
    Design,
    FitConfig,
    FitError,
    ModelPair,
    ParameterSpace,
    fit_parameters,
    make_mm_pair,
    sobol_points,
)

from conftest import linear_vs_constant


class TestSobolPoints:
    def test_first_three_one_dimensional(self):
        box = ParameterSpace([0.0], [1.0])
        pts = sobol_points(1, 3, box)
        # First post-origin values of the unscrambled sequence.
        assert [p[0] for p in pts] == pytest.approx([0.5, 0.75, 0.25], abs=1e-15)

    def test_empty_request(self):
        assert sobol_points(1, 0, ParameterSpace([0.0], [1.0])) == []

    def test_first_point_scales_into_box(self):
        box = ParameterSpace([0.0, 0.0], [2.0, 2.0])
        pts = sobol_points(2, 1, box)
        assert pts[0] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_deterministic(self):
        box = ParameterSpace([0.0], [1.0])
        a = sobol_points(1, 5, box)
        b = sobol_points(1, 5, box)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sobol_points(2, 3, ParameterSpace([0.0], [1.0]))


class TestFitParameters:
    def test_toy_weighted_mean(self, toy_pair, toy_optimum):
        fit = fit_parameters(toy_pair, toy_optimum, cfg=FitConfig(lam=0.0))
        assert fit.theta_hat[0] == pytest.approx(0.5, abs=1e-8)
        assert fit.objective == pytest.approx(0.25, abs=1e-10)

    def test_exact_fit_when_models_coincide(self):
        # Reference with no linear term is the alternative at (V, K) = (1, 1).
        pair = make_mm_pair(F=0.0)
        design = Design(np.array([[0.5], [1.5], [3.0]]), np.full(3, 1 / 3))
        fit = fit_parameters(pair, design, cfg=FitConfig(lam=0.0))
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
        fit = fit_parameters(toy_pair, design, cfg=FitConfig(lam=0.0))
        assert 0.0 <= fit.theta_hat[0] <= 1.0
        assert fit.theta_hat[0] == pytest.approx(1.0, abs=1e-8)

    def test_warm_start_never_hurts(self, toy_pair, toy_optimum):
        cold = fit_parameters(toy_pair, toy_optimum, cfg=FitConfig(n_starts=9))
        warm = fit_parameters(
            toy_pair, toy_optimum, warm_start=[0.5], cfg=FitConfig(n_starts=9)
        )
        assert warm.regularized_objective <= cold.regularized_objective + 1e-15

    def test_reproducible_bit_for_bit(self, toy_pair, toy_optimum):
        a = fit_parameters(toy_pair, toy_optimum)
        b = fit_parameters(toy_pair, toy_optimum)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.objective == b.objective
        assert a.start_index == b.start_index

    def test_interior_stationarity(self, toy_pair, toy_optimum):
        fit = fit_parameters(toy_pair, toy_optimum, cfg=FitConfig(lam=0.0))
        theta = fit.theta_hat[0]
        h = 1e-6 * (1 + abs(theta))

        def obj(t):
            from discrimopt import t_value

            return t_value(toy_pair, toy_optimum, [t])

        grad = (obj(theta + h) - obj(theta - h)) / (2 * h)
        assert abs(grad) <= 1e-4 * (1 + abs(fit.objective))

    def test_no_starts_at_all_rejected(self, toy_pair, toy_optimum):
        with pytest.raises(FitError):
            fit_parameters(toy_pair, toy_optimum, cfg=FitConfig(n_starts=0))

    def test_failing_starts_skipped(self, toy_optimum):
        calls = {"n": 0}

        def flaky(x, theta):
            calls["n"] += 1
            if theta[0] > 0.9:
                raise RuntimeError("diverged")
            return np.array([theta[0]])

        pair = ModelPair(
            reference=lambda x: np.array([x[0]]),
            alternative=flaky,
            parameter_space=ParameterSpace([0.0], [1.0]),
        )
        fit = fit_parameters(pair, toy_optimum, cfg=FitConfig(lam=0.0))
        assert fit.theta_hat[0] == pytest.approx(0.5, abs=1e-6)

    def test_failing_jacobian_starts_skipped(self, toy_optimum):
        def flaky_jac(x, theta):
            if theta[0] > 0.9:
                raise RuntimeError("diverged")
            return np.array([theta[0]]), np.array([[1.0]])

        pair = dataclasses.replace(linear_vs_constant(), alternative_jac=flaky_jac)
        fit = fit_parameters(pair, toy_optimum, cfg=FitConfig(lam=0.0))
        assert fit.theta_hat[0] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("failing", ["alternative", "alternative_jac"])
    def test_every_start_failing_raises_fit_error(self, toy_optimum, failing):
        # Without a Jacobian the fit calls `alternative`; with one, only
        # `alternative_jac`.
        def broken(x, theta):
            raise RuntimeError("diverged")

        pair = dataclasses.replace(linear_vs_constant(), **{failing: broken})
        with pytest.raises(FitError) as err:
            fit_parameters(pair, toy_optimum, warm_start=[0.5], cfg=FitConfig(n_starts=3))
        assert [i for i, _ in err.value.skipped] == [0, 1, 2, 3]

    def test_exact_jacobian_evaluates_each_theta_once(self):
        # The Jacobian reuses the residual evaluation at the same theta.
        base = make_mm_pair()
        seen = []

        def counted_jac(x, theta):
            seen.append((float(x[0]), tuple(theta)))
            return base.alternative_jac(x, theta)

        pair = dataclasses.replace(base, alternative_jac=counted_jac)
        design = Design(np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198]))
        fit = fit_parameters(pair, design, cfg=FitConfig(n_starts=1))
        assert len(seen) == len(set(seen))
        assert fit.theta_hat == pytest.approx([1.86, 2.15], abs=0.02)

    def test_exact_and_finite_difference_fits_agree(self):
        exact = make_mm_pair()
        approx = dataclasses.replace(exact, alternative_jac=None)
        design = Design(np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198]))
        a = fit_parameters(exact, design, cfg=FitConfig(n_starts=3))
        b = fit_parameters(approx, design, cfg=FitConfig(n_starts=3))
        assert a.objective == pytest.approx(b.objective, rel=1e-8)
        assert a.theta_hat == pytest.approx(b.theta_hat, rel=1e-5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(n_starts=-1)
        with pytest.raises(ValueError):
            FitConfig(lam=-1e-9)
