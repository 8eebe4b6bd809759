import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

import discrimopt
import discrimopt.lsq as lsq

from discrimopt import Box, Design, ModelPair, make_mm_pair, pointwise
from discrimopt.config import load_config
from discrimopt.core import DesignError, squared_distance, t_value
from discrimopt.lsq import FitError, fit_parameters, sobol_points
from discrimopt.models import make_kinetics_pair

from conftest import linear_vs_constant, two_basins

KINETICS_BENCH = Path(__file__).parent.parent / "benchmarks" / "kinetics.config"


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

    def test_scipy_optimize_not_imported(self, tmp_path):
        # The HiGHS bindings and L-BFGS-B are loaded from their files, which keeps scipy.optimize
        # (~0.35 s, ~45 MB) off the import path of every command: a box search on mm, a lattice on kinetics.
        root = Path(discrimopt.__file__).parent
        configs = {"mm": root / "configs" / "mm.config", "kinetics": root.parents[1] / "benchmarks" / "kinetics.config"}
        code = "import json, sys\nfrom discrimopt.cli import main\n"
        for name, config in configs.items():
            out = tmp_path / name
            code += (f"assert main(['solve', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
                     f"assert main(['verify', '--design', {str(out / 'design.json')!r}, '--config', {str(config)!r}]) == 0\n")
        code += "print(json.dumps(sorted(name for name in sys.modules if name.startswith('scipy'))))\n"
        src = str(Path(discrimopt.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        loaded = json.loads(out.stdout.splitlines()[-1])
        assert "scipy.optimize" not in loaded and "scipy" not in loaded
        assert "scipy.optimize._lbfgsb" in loaded and "scipy.optimize._highspy._core" in loaded


def decay_and_line(with_jac=True) -> ModelPair:
    """f2(x, theta) = theta0 exp(-theta1 x) + theta2 x on theta in [0, 1] x [0, 4] x [-1, 1].

    f1 is f2 at (1.015, 2.84, 0.09), so the unconstrained fit lies above the
    box in theta0, and the constrained one holds theta0 = 1.
    """

    def alternative(X, theta):
        return theta[0] * np.exp(-theta[1] * X) + theta[2] * X

    def alternative_jac(X, theta):
        e = np.exp(-theta[1] * X)
        return alternative(X, theta), np.stack([e, -theta[0] * X * e, X], axis=2)

    return ModelPair(
        reference=lambda X: alternative(X, [1.015, 2.84, 0.09]),
        alternative=alternative,
        alternative_jac=alternative_jac if with_jac else None,
        parameter_space=Box([0.0, 0.0, -1.0], [1.0, 4.0, 1.0]),
    )


def line(X, theta):
    """f2(x, theta) = theta0 + theta1 x, and its Jacobian."""
    return theta[0] + theta[1] * X, np.stack([np.ones_like(X), X], axis=2)


DECAY_DESIGN = Design(np.array([[0.25], [0.5], [1.0], [2.0], [4.0]]), np.full(5, 0.2))


def plain_dogbox(pair, design, x0, lam=1e-8):
    """The fit's dogbox call over every parameter, on the same residuals and Jacobian."""
    sqrt_w = np.sqrt(design.weights + lam)[:, None]
    refs = pair.eval_reference(design.points)

    def residuals(theta):
        return (sqrt_w * (refs - pair.eval_alternative(design.points, theta))).ravel()

    def jacobian(theta):
        jac = pair.eval_alternative_jac(design.points, theta)[1]
        return (-sqrt_w[:, :, None] * jac).reshape(design.n_points * pair.d_y, -1)

    box = pair.parameter_space
    return least_squares(
        residuals, np.asarray(x0, dtype=float), jac="2-point" if pair.alternative_jac is None else jacobian,
        bounds=(box.lower, box.upper), method="dogbox", xtol=1e-10, ftol=1e-10, gtol=1e-10, diff_step=1e-7,
        max_nfev=200 * (box.dimension + 1),
    )


@pytest.fixture
def calls(monkeypatch):
    """The residual evaluations of each least-squares call a fit makes."""
    nfev = []
    plain = lsq.least_squares

    def counted(*args, **kwargs):
        res = plain(*args, **kwargs)
        nfev.append(res.nfev)
        return res

    monkeypatch.setattr(lsq, "least_squares", counted)
    return nfev


class TestHeldBounds:
    """A start holds the parameters on a bound whose gradient points out of the box, and fits the rest."""

    def test_start_on_a_bound_converges_in_fewer_evaluations(self, calls):
        # Over all three parameters the plain dogbox call takes 66 evaluations; with theta0 held, 6.
        x0 = [1.0, 3.8, 0.1]
        full = plain_dogbox(decay_and_line(), DECAY_DESIGN, x0)
        fit = fit_parameters(decay_and_line(), DECAY_DESIGN, x0, n_starts=0)
        assert fit.theta_hat[0] == full.x[0] == 1.0
        assert np.abs(fit.theta_hat - full.x).max() <= 1e-10
        assert len(calls) == 1 and calls[0] < full.nfev

    def test_gradient_turning_inward_refits_in_full(self, calls):
        # f1 = 0.5 + x.  At (0, 3) the cost pushes theta0 below 0, so it is held; the
        # slope alone then fits 1.5, where the cost pulls theta0 up to its optimum 0.5.
        pair = ModelPair(
            reference=lambda X: 0.5 + X,
            alternative=lambda X, theta: line(X, theta)[0],
            alternative_jac=line,
            parameter_space=Box([0.0, -5.0], [1.0, 5.0]),
        )
        design = Design(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        fit = fit_parameters(pair, design, [0.0, 3.0], n_starts=0)
        assert len(calls) == 2
        assert np.abs(fit.theta_hat - plain_dogbox(pair, design, [0.0, 3.0]).x).max() <= 1e-10
        assert fit.theta_hat == pytest.approx([0.5, 1.0], abs=1e-10)

    def test_every_parameter_held_calls_no_solver(self, calls):
        # f1(1) = 2 lies above the box [0, 1/2]: from 1/2 the start is its own result.
        pair = ModelPair(
            reference=lambda X: 2.0 * X,
            alternative=lambda X, theta: np.full_like(X, theta[0]),
            alternative_jac=lambda X, theta: (np.full_like(X, theta[0]), np.ones(X.shape + (1,))),
            parameter_space=Box([0.0], [0.5]),
        )
        fit = fit_parameters(pair, Design(np.array([[1.0]]), np.array([1.0])), [0.5], n_starts=0, lam=0.0)
        assert calls == []
        assert fit.theta_hat.tolist() == [0.5] and fit.objective == fit.regularized_objective == 1.5**2

    @pytest.mark.parametrize("with_jac", [True, False], ids=["exact", "finite-difference"])
    def test_zero_width_axis_held(self, with_jac, against_scipy):
        # theta2 fixed at 0.09: every start holds it, so the dogbox loop (checked against scipy's, which
        # rejects a zero-width axis) sees two parameters, and the fit is the one of the two-parameter
        # pair with 0.09 substituted.
        fixed = dataclasses.replace(decay_and_line(with_jac), parameter_space=Box([0.0, 0.0, 0.09], [1.0, 4.0, 0.09]))
        full = decay_and_line(with_jac)

        def alternative_jac(X, theta):
            y, jac = full.alternative_jac(X, [theta[0], theta[1], 0.09])
            return y, jac[:, :, :2]

        reduced = ModelPair(
            reference=full.reference,
            alternative=lambda X, theta: full.alternative(X, [theta[0], theta[1], 0.09]),
            alternative_jac=alternative_jac if with_jac else None,
            parameter_space=Box([0.0, 0.0], [1.0, 4.0]),
        )
        fit = fit_parameters(fixed, DECAY_DESIGN, n_starts=4)
        expected = fit_parameters(reduced, DECAY_DESIGN, n_starts=4)
        assert fit.theta_hat[2] == 0.09
        assert np.array_equal(fit.theta_hat[:2], expected.theta_hat)
        assert fit.regularized_objective == expected.regularized_objective
        assert {x0.size for x0 in against_scipy} == {2}

    def test_pair_without_jacobian_fits_every_parameter(self, calls):
        pair = decay_and_line(with_jac=False)
        x0 = [1.0, 3.8, 0.1]
        full = plain_dogbox(pair, DECAY_DESIGN, x0)
        fit = fit_parameters(pair, DECAY_DESIGN, x0, n_starts=0)
        assert calls == [full.nfev]
        assert np.array_equal(fit.theta_hat, full.x) and fit.regularized_objective == 2.0 * full.cost


def scipy_dogbox(fun, x0, jac, lower, upper, max_nfev):
    """scipy's dogbox with the arguments of a fit's start: the reference the fit's own loop must equal."""
    return least_squares(fun, x0, jac=jac, bounds=(lower, upper), method="dogbox", xtol=1e-10, ftol=1e-10,
                         gtol=1e-10, diff_step=1e-7, max_nfev=max_nfev)


def assert_same_as_scipy(res, ref):
    for key in ("x", "active_mask"):
        ours, theirs = getattr(res, key), getattr(ref, key)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), key
    assert (res.cost, res.nfev, res.njev, res.status) == (ref.cost, ref.nfev, ref.njev, ref.status)


@pytest.fixture
def against_scipy(monkeypatch):
    """Every start of a fit, checked against scipy's dogbox on the same residuals and Jacobian; lists their x0."""
    starts = []
    loop = lsq.least_squares

    def checked(fun, x0, jac, lower, upper, max_nfev):
        res = loop(fun, x0, jac, lower, upper, max_nfev)
        assert_same_as_scipy(res, scipy_dogbox(fun, x0, jac, lower, upper, max_nfev))
        starts.append(x0)
        return res

    monkeypatch.setattr(lsq, "least_squares", checked)
    return starts


class TestDogboxLoop:
    """The fit's dogbox loop does scipy's floating-point operations: x, cost, nfev, njev, status and
    active_mask equal scipy's bit for bit."""

    def test_mm_fit(self, against_scipy):
        design = Design(np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198]))
        fit_parameters(make_mm_pair(), design, [1.0, 1.0], n_starts=9)
        assert len(against_scipy) == 10

    def test_kinetics_fit(self, against_scipy):
        cfg = load_config(KINETICS_BENCH)
        fit_parameters(cfg.pair, cfg.initial, n_starts=cfg.params.n_theta_starts)
        assert len(against_scipy) == cfg.params.n_theta_starts

    def test_held_subset(self, against_scipy):
        # From (1, 3.8, 0.1) theta0 is held on its upper bound and the other two are fitted.
        fit_parameters(decay_and_line(), DECAY_DESIGN, [1.0, 3.8, 0.1], n_starts=0)
        assert [x0.size for x0 in against_scipy] == [2]

    def test_start_on_a_bound_with_inward_gradient(self, against_scipy):
        # At (1, 0.5) the cost pulls theta0 below its upper bound: the start holds nothing.
        pair = ModelPair(
            reference=lambda X: 0.5 + X,
            alternative=lambda X, theta: line(X, theta)[0],
            alternative_jac=line,
            parameter_space=Box([0.0, -5.0], [1.0, 5.0]),
        )
        design = Design(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        fit = fit_parameters(pair, design, [1.0, 0.5], n_starts=0)
        assert [x0.tolist() for x0 in against_scipy] == [[1.0, 0.5]]
        assert fit.theta_hat == pytest.approx([0.5, 1.0], abs=1e-10)

    def test_trust_region_limited_steps(self, against_scipy, monkeypatch):
        # From (0.01, 0.01) the first radius is 0.01 and the Gauss-Newton step to (0.5, 1) leaves the
        # region: dogleg steps from the Cauchy point stop on its boundary, and the radius doubles.
        steps = []
        dogleg = lsq._dogleg_step

        def recorded(newton, *args):
            step, hits, region_hit = dogleg(newton, *args)
            steps.append((args[3], region_hit, step is newton))
            return step, hits, region_hit

        monkeypatch.setattr(lsq, "_dogleg_step", recorded)
        pair = ModelPair(
            reference=lambda X: 0.5 + X,
            alternative=lambda X, theta: line(X, theta)[0],
            alternative_jac=line,
            parameter_space=Box([-5.0, -5.0], [5.0, 5.0]),
        )
        design = Design(np.array([[0.0], [1.0], [2.0]]), np.full(3, 1 / 3))
        fit = fit_parameters(pair, design, [0.01, 0.01], n_starts=0)
        radii = [radius for radius, _, _ in steps]
        assert steps[0] == (0.01, True, False)
        assert any(b == 2.0 * a for a, b in zip(radii, radii[1:]))
        assert steps[-1][2]  # the last step is Gauss-Newton's
        assert fit.theta_hat == pytest.approx([0.5, 1.0], abs=1e-8)

    @pytest.mark.parametrize("reference, x0", [
        # From the origin the first radius is 1, and the Gauss-Newton step to (3, 3) leaves it.
        (lambda X: 3.0 + 3.0 * X, [0.0, 0.0]),
        # Decay starts that take rarer turns: a snap onto a bound that moves x, a step whose ratio is in
        # [0.25, 0.3), and a least-squares step whose rank cut-off at machine precision matters.
        (None, [0.07966734812390908, 3.248508527126511, -0.5204009552229902]),
        (None, [0.6712712576705236, 0.1960095233224819, -0.6407024446209904]),
        (None, [0.33544757398350356, 3.931620740166196, -0.719660015133393]),
    ])
    def test_starts(self, reference, x0):
        pair, design = decay_and_line(), DECAY_DESIGN
        if reference is not None:
            pair = ModelPair(reference=reference, alternative=lambda X, theta: line(X, theta)[0], alternative_jac=line,
                             parameter_space=Box([-5.0, -5.0], [5.0, 5.0]))
            design = Design(np.array([[0.0], [1.0], [2.0]]), np.full(3, 1 / 3))
        residuals, jac, _ = lsq._stacked_residuals(pair, design, pair.eval_reference(design.points), 1e-8)
        box, x0 = pair.parameter_space, np.array(x0)
        assert_same_as_scipy(lsq.least_squares(residuals, x0, jac, box.lower, box.upper, 800),
                             scipy_dogbox(residuals, x0, jac, box.lower, box.upper, 800))

    def test_evaluation_limit_ends_with_status_0(self):
        pair = make_mm_pair()
        design = Design(np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198]))
        residuals, jac, _ = lsq._stacked_residuals(pair, design, pair.eval_reference(design.points), 1e-8)
        box = pair.parameter_space
        for max_nfev in (1, 2, 3):
            res = lsq.least_squares(residuals, np.array([4.0, 0.5]), jac, box.lower, box.upper, max_nfev)
            assert res.status == 0 and res.nfev == max_nfev
            assert_same_as_scipy(res, scipy_dogbox(residuals, np.array([4.0, 0.5]), jac, box.lower, box.upper,
                                                   max_nfev))

    @pytest.mark.parametrize("theta", [[1.0, 3.8, 0.1], [0.0, 0.0, -1.0], [0.3, 2.0, 0.0]])
    def test_finite_difference_jacobian(self, theta):
        # scipy's 2-point difference at relative step 1e-7 in the box, steps flipped on a bound and
        # 2**-26 at 0: from the kept residuals when they are theta's, one model call per parameter;
        # else from a fresh evaluation at theta, one call more.
        evals = []
        pair = decay_and_line(with_jac=False)
        counted = dataclasses.replace(pair, alternative=lambda X, t: evals.append(1) or pair.alternative(X, t))
        residuals, jac, _ = lsq._stacked_residuals(counted, DECAY_DESIGN, pair.eval_reference(DECAY_DESIGN.points),
                                                   1e-8)
        box, theta = pair.parameter_space, np.array(theta)
        expected = approx_derivative(residuals, theta, method="2-point", rel_step=1e-7, bounds=(box.lower, box.upper))
        for kept, extra in ((theta, 0), (np.array([0.5, 1.0, 0.5]), 1)):
            residuals(kept)
            evals.clear()
            assert jac(theta).tobytes() == expected.tobytes()
            assert len(evals) == 3 + extra

    @pytest.mark.parametrize("x0", [[1.0, 3.8, 0.1], [0.5, 0.5, 0.5], [0.0, 4.0, -1.0]])
    def test_pair_without_jacobian(self, x0):
        # The forward differences are scipy's "2-point" ones at relative step 1e-7 in the box.
        pair = decay_and_line(with_jac=False)
        residuals, jac, rows = lsq._stacked_residuals(pair, DECAY_DESIGN, pair.eval_reference(DECAY_DESIGN.points),
                                                      1e-8)
        box, x0 = pair.parameter_space, np.array(x0)
        assert rows is None
        res = lsq.least_squares(residuals, x0, jac, box.lower, box.upper, 800)
        assert_same_as_scipy(res, scipy_dogbox(residuals, x0, "2-point", box.lower, box.upper, 800))


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
