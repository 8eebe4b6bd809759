import inspect
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from discrimopt import Box, ModelEvaluationError, make_mm_pair
from discrimopt.core import DesignError
from discrimopt.models import (
    KINETICS_PARAMETER_SPACE,
    MM_PARAMETER_SPACE,
    IntegratorTol,
    KineticsInput,
    KineticsParams,
    _closed_form_a,
    _dopri5,
    _dopri5_alt,
    _initial_step,
    integrate_kinetics,
    make_kinetics_pair,
    mm_eval,
    modmm_eval,
    registered_models,
    registry_lookup,
)

FULL_LATTICE = list(
    itertools.product([0.5, 0.7, 0.9], [0.1, 0.2, 0.3], [0.0, 0.15, 0.3], [2.0, 4.0, 6.0, 8.0, 10.0])
)
# The reference parameters, as the builder's defaults state them.
KINETICS_DEFAULTS = {k: p.default for k, p in inspect.signature(make_kinetics_pair).parameters.items()}


def linear_chain_solution(k1, k2, a0, b0, c0, t):
    """Closed form for A -> B -> C with first-order irreversible kinetics."""
    a = a0 * math.exp(-k1 * t)
    b = b0 * math.exp(-k2 * t) + a0 * k1 / (k2 - k1) * (
        math.exp(-k1 * t) - math.exp(-k2 * t)
    )
    c = a0 + b0 + c0 - a - b
    return a, b, c


class TestClosedForms:
    def test_half_maximum_at_x_equals_k(self):
        for V, K in [(1.0, 1.0), (2.5, 0.3)]:
            assert mm_eval(K, V, K) == pytest.approx(V / 2, abs=1e-15)

    def test_zero_at_origin(self):
        assert mm_eval(0.0, 1.0, 1.0) == 0.0
        assert modmm_eval(0.0, 1.0, 1.0, 0.1) == 0.0

    def test_direct_arithmetic(self):
        assert mm_eval(5.0, 1.0, 1.0) == pytest.approx(5 / 6, abs=1e-15)
        assert modmm_eval(5.0, 1.0, 1.0, 0.1) == pytest.approx(5 / 6 + 0.5, abs=1e-15)

    def test_modified_reduces_to_plain_without_linear_term(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, V, K = rng.uniform(0.01, 5.0, 3)
            assert modmm_eval(x, V, K, 0.0) == pytest.approx(
                mm_eval(x, V, K), rel=1e-15
            )
            # Independent arithmetic path.
            assert mm_eval(x, V, K) == pytest.approx((V * x) / (K + x), rel=1e-15)

    def test_division_guard(self):
        with pytest.raises(ModelEvaluationError):
            mm_eval(1.0, 1.0, -1.0)


class TestParamValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            KineticsParams(-0.1, 0.2, 0.1, 2, 2, 1)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            KineticsParams(0.7, 0.2, 0.1, 0.0, 2, 1)

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            KineticsInput(-0.5, 0.1, 0.0, 2.0)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            KineticsInput(0.5, 0.1, 0.0, 0.0)

    @pytest.mark.parametrize(
        "x", [(0.5, 0.1, 0.0, math.nan), (0.5, 0.1, 0.0, math.inf), (math.nan, 0.1, 0.0, 2.0)]
    )
    def test_nonfinite_input_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            KineticsInput(*x)


class TestIntegrator:
    def test_linear_chain_matches_analytic(self):
        params = KineticsParams(0.7, 0.2, 0.0, 1.0, 1.0, 1.0)
        for a0, b0, c0, t in [(0.5, 0.1, 0.0, 2.0), (0.9, 0.3, 0.3, 10.0)]:
            out = integrate_kinetics(params, KineticsInput(a0, b0, c0, t))
            expected = linear_chain_solution(0.7, 0.2, a0, b0, c0, t)
            assert out == pytest.approx(expected, abs=1e-7)

    def test_short_time_limit_returns_initials(self):
        params = KineticsParams(0.7, 0.2, 0.1, 2, 2, 1)
        out = integrate_kinetics(params, KineticsInput(0.5, 0.1, 0.0, 1e-10))
        assert out == pytest.approx([0.5, 0.1, 0.0], abs=1e-9)

    def test_mass_conservation_reference_point(self):
        params = KineticsParams(0.7, 0.2, 0.1, 2, 2, 1)
        out = integrate_kinetics(params, KineticsInput(0.5, 0.1, 0.0, 10.0))
        assert out.sum() == pytest.approx(0.6, abs=1e-8)

    def test_outputs_nonnegative_on_lattice_sample(self):
        params = KineticsParams(0.7, 0.2, 0.1, 2, 2, 1)
        for x in FULL_LATTICE[::13]:
            out = integrate_kinetics(params, KineticsInput(*x))
            assert np.all(out >= -1e-10)

    def test_tolerance_halving_consistency(self):
        params = KineticsParams(0.7, 0.2, 0.1, 2, 2, 1)
        inp = KineticsInput(0.9, 0.3, 0.0, 10.0)
        coarse = integrate_kinetics(params, inp, IntegratorTol(rel=1e-6, abs=1e-8))
        fine = integrate_kinetics(params, inp, IntegratorTol(rel=5e-7, abs=5e-9))
        assert np.max(np.abs(coarse - fine)) < 1e-6

    def test_returns_a_fresh_array_per_call(self):
        params = KineticsParams(0.7, 0.2, 0.1, 2, 2, 1)
        inp = KineticsInput(0.5, 0.1, 0.0, 2.0)
        a = integrate_kinetics(params, inp)
        a[0] = -99.0
        b = integrate_kinetics(params, inp)
        assert b[0] != -99.0

    def test_thread_safe_and_deterministic(self):
        params = KineticsParams(0.7, 0.2, 0.1, 2, 2, 1)
        inputs = [KineticsInput(*x) for x in FULL_LATTICE[:20]]
        serial = [integrate_kinetics(params, i) for i in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda i: integrate_kinetics(params, i), inputs))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s, p)


def kinetics_rhs(p):
    """The kinetics right-hand side, written out apart from the package."""

    def rhs(a, b, _c):
        a, b = max(a, 0.0), max(b, 0.0)
        r1, r2, r3 = p.k1 * a**p.n1, p.k2 * b**p.n2, p.k3 * b**p.n3
        return (-r1 + r3, r1 - r2 - r3, r2)

    return rhs


def reference_sample():
    """(params, design point) pairs: the reference model, the corners and
    random interior points of the alternative's box, on lattice points."""
    rng = np.random.default_rng(20240501)
    lo, hi = KINETICS_PARAMETER_SPACE.lower, KINETICS_PARAMETER_SPACE.upper
    thetas = [lo + (hi - lo) * np.array(c) for c in itertools.product([0.0, 1.0], repeat=4)]
    thetas += list(lo + (hi - lo) * rng.random((8, 4)))
    params = [KineticsParams(**KINETICS_DEFAULTS)]
    params += [KineticsParams(t[0], t[1], 0.0, t[2], t[3], 1.0) for t in thetas]
    return [
        (p, FULL_LATTICE[i]) for p in params for i in rng.choice(len(FULL_LATTICE), 24, replace=False)
    ]


class TestAgainstScipy:
    """The Dormand-Prince kernel takes scipy RK45's steps: the same number of
    right-hand-side evaluations, and values equal up to rounding."""

    def test_matches_scipy_rk45(self):
        sample = reference_sample()
        assert len(sample) >= 500
        tol = IntegratorTol()
        for p, x in sample:
            rhs = kinetics_rhs(p)
            ref = solve_ivp(
                lambda _, y: rhs(*y), (0.0, x[3]), x[:3], method="RK45", rtol=tol.rel, atol=tol.abs
            )
            assert ref.success
            out = integrate_kinetics(p, KineticsInput(*x), tol)
            np.testing.assert_allclose(out, ref.y[:, -1], rtol=1e-12, atol=0)
            y, nfev = _dopri5(rhs, x[3], x[:3], tol.rel, tol.abs)
            assert nfev == ref.nfev
            assert np.array_equal(y, out)

    def test_blow_up_fails_like_scipy(self):
        # y' = y**2 from y(0) = 1 leaves every float before t = 1.
        def rhs(a, b, c):
            return (a * a, 0.0, 0.0)

        ref = solve_ivp(
            lambda _, y: rhs(*y), (0.0, 2.0), [1.0, 0.0, 0.0], method="RK45", rtol=1e-8, atol=1e-10
        )
        assert ref.status == -1
        with pytest.raises(FloatingPointError, match="step size"):
            _dopri5(rhs, 2.0, (1.0, 0.0, 0.0), 1e-8, 1e-10)


def central_difference_jacobian(f, theta, rel_step=1e-6):
    """d f / d theta by central differences with steps relative to theta."""
    theta = np.asarray(theta, dtype=float)
    columns = []
    for j in range(theta.size):
        h = rel_step * max(1.0, abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        columns.append((f(up) - f(down)) / (2 * h))
    return np.column_stack(columns)


def alternative_params(theta):
    return KineticsParams(theta[0], theta[1], 0.0, theta[2], theta[3], 1.0)


def box_thetas():
    """The 16 corners and the centre of the alternative's box, the fitted
    parameters of the published design, and three random points."""
    lo, hi = KINETICS_PARAMETER_SPACE.lower, KINETICS_PARAMETER_SPACE.upper
    corners = [lo + (hi - lo) * np.array(c) for c in itertools.product([0.0, 1.0], repeat=4)]
    rng = np.random.default_rng(11)
    return corners + [(lo + hi) / 2, np.array([1.0, 0.2568, 3.0591, 2.4137])] + list(
        lo + (hi - lo) * rng.random((3, 4))
    )


INITIAL_STATES = list(itertools.product([0.5, 0.7, 0.9], [0.1, 0.2, 0.3], [0.0, 0.15, 0.3]))
SAMPLING_TIMES = (2.0, 4.0, 6.0, 8.0, 10.0)


class TestGroupedSolves:
    """One kernel pass per initial state gives every sampling time the value
    of a solve to that time alone, bit for bit."""

    def test_plain_kernel_on_lattice(self):
        tol = IntegratorTol()
        params = [KineticsParams(**KINETICS_DEFAULTS)] + [alternative_params(th) for th in box_thetas()]
        assert len(params) >= 20
        for p in params:
            rhs = kinetics_rhs(p)
            for y0 in INITIAL_STATES:
                out = []
                _dopri5(rhs, SAMPLING_TIMES, y0, tol.rel, tol.abs, out)
                assert out == [_dopri5(rhs, t, y0, tol.rel, tol.abs)[0] for t in SAMPLING_TIMES]

    def test_sensitivity_kernel_on_lattice(self):
        # The closed-form-a kernel, plain and with b's sensitivities, grouped by (a0, b0).
        tol = IntegratorTol()
        thetas = box_thetas()
        assert len(thetas) >= 20
        for theta in thetas:
            p = alternative_params(theta)
            for a0, b0 in itertools.product([0.5, 0.7, 0.9], [0.1, 0.2, 0.3]):
                for jac in (False, True):
                    out, singles = [], []
                    _dopri5_alt(p, SAMPLING_TIMES, a0, b0, tol.rel, tol.abs, out, jac)
                    for t in SAMPLING_TIMES:
                        _dopri5_alt(p, (t,), a0, b0, tol.rel, tol.abs, singles, jac)
                    assert out == singles

    def test_time_with_clipped_initial_step_solved_alone(self):
        tol = IntegratorTol()
        rhs = kinetics_rhs(KineticsParams(**KINETICS_DEFAULTS))
        y0 = (0.5, 0.1, 0.0)
        times = (1e-10, 1e-3, 2.0, 10.0)
        # The first time clips the initial step, so the pass must not start from it.
        _, bound = _initial_step(lambda _, y: rhs(*y), times[0], y0, rhs(*y0), tol.rel, tol.abs)
        assert bound
        out = []
        _dopri5(rhs, times, y0, tol.rel, tol.abs, out)
        assert out == [_dopri5(rhs, t, y0, tol.rel, tol.abs)[0] for t in times]

    def test_sensitivity_time_with_clipped_initial_step_solved_alone(self):
        tol = IntegratorTol()
        p = alternative_params([1.0, 0.2568, 3.0591, 2.4137])
        a0, b0 = 0.5, 0.1
        times = (1e-10, 1e-3, 2.0, 10.0)
        rate = _closed_form_a(p, a0, False)

        def fun(t, y):
            return (rate(t)[0] - p.k2 * max(y[0], 0.0) ** p.n2,)

        _, bound = _initial_step(fun, times[0], (b0,), fun(0.0, (b0,)), tol.rel, tol.abs)
        assert bound
        for jac in (False, True):
            out, singles = [], []
            _dopri5_alt(p, times, a0, b0, tol.rel, tol.abs, out, jac)
            for t in times:
                _dopri5_alt(p, (t,), a0, b0, tol.rel, tol.abs, singles, jac)
            assert out == singles

    def test_pair_batch_equals_one_row_calls(self):
        # Shuffled lattice rows with repeats, so groups interleave.
        pair = make_kinetics_pair()
        rng = np.random.default_rng(3)
        X = np.array(FULL_LATTICE)[rng.permutation(len(FULL_LATTICE))]
        X = np.vstack([X, X[:7]])
        theta = [1.0, 0.2568, 3.0591, 2.4137]
        ref = pair.eval_reference(X)
        alt = pair.eval_alternative(X, theta)
        y, jac = pair.eval_alternative_jac(X, theta)
        assert np.array_equal(y, alt)
        for i, x in enumerate(X):
            assert np.array_equal(ref[i], pair.eval_reference(x)[0])
            assert np.array_equal(alt[i], pair.eval_alternative(x, theta)[0])
            assert np.array_equal(jac[i], pair.eval_alternative_jac(x, theta)[1][0])

    def test_failure_carries_failing_row(self):
        pair = make_kinetics_pair(k1=1e300, k3=0.0, n1=1.0)
        X = [[1e-20, 0.0, 0.0, 2.0], [1e-20, 0.0, 0.0, 1.0]]
        with pytest.raises(ModelEvaluationError) as err:
            pair.eval_reference(X)
        assert isinstance(err.value.__cause__, OverflowError)
        assert np.array_equal(err.value.x, [1e-20, 0.0, 0.0, 1.0])

    def test_invalid_row_rejected(self):
        with pytest.raises(ModelEvaluationError, match="nonnegative"):
            make_kinetics_pair().eval_reference([[0.5, 0.1, 0.0, 2.0], [-0.5, 0.1, 0.0, 2.0]])


class TestSensitivities:
    """Exact Jacobians of the alternative models."""

    def test_kinetics_states_equal_plain_kernel_on_lattice(self):
        # The Jacobian pass gives the plain pass's a, b and c, bit for bit.
        lo, hi = KINETICS_PARAMETER_SPACE.lower, KINETICS_PARAMETER_SPACE.upper
        pair = make_kinetics_pair()
        for th in (lo, hi, (lo + hi) / 2, [1.0, 0.2568, 3.0591, 2.4137]):
            Y, _ = pair.eval_alternative_jac(FULL_LATTICE, th)
            assert np.array_equal(Y, pair.eval_alternative(FULL_LATTICE, th))

    def test_kinetics_jacobian_matches_central_differences(self):
        # Differences of solves at a tight tolerance; the exact Jacobian runs
        # at the model's own tolerance.
        rng = np.random.default_rng(7)
        lo, hi = KINETICS_PARAMETER_SPACE.lower, KINETICS_PARAMETER_SPACE.upper
        pair = make_kinetics_pair()
        tight = IntegratorTol(rel=1e-12, abs=1e-14)
        for _ in range(12):
            theta = lo + (hi - lo) * rng.random(4)
            x = np.array([*rng.uniform([0.5, 0.1, 0.0], [0.9, 0.3, 0.3]), rng.uniform(2.0, 10.0)])
            inp = KineticsInput(*x)

            def f(th):
                return integrate_kinetics(KineticsParams(th[0], th[1], 0.0, th[2], th[3], 1.0), inp, tight)

            (y,), (jac,) = pair.eval_alternative_jac(x, theta)
            assert np.array_equal(y, pair.eval_alternative(x, theta)[0])
            expected = central_difference_jacobian(f, theta)
            np.testing.assert_allclose(jac, expected, rtol=0, atol=1e-6 * np.abs(expected).max())

    def test_mm_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(8)
        pair = make_mm_pair()
        lo, hi = pair.parameter_space.lower, pair.parameter_space.upper
        for _ in range(50):
            theta = lo + (hi - lo) * rng.random(2)
            x = rng.uniform(0.0, 5.0, 1)
            (y,), (jac,) = pair.eval_alternative_jac(x, theta)
            assert np.array_equal(y, pair.eval_alternative(x, theta)[0])
            expected = central_difference_jacobian(lambda th: pair.eval_alternative(x, th)[0], theta)
            np.testing.assert_allclose(jac, expected, rtol=0, atol=1e-6 * np.abs(expected).max())

    def test_kinetics_jacobian_conserves_mass(self):
        _, (jac,) = make_kinetics_pair().eval_alternative_jac([0.7, 0.2, 0.15, 6.0], [0.8, 0.3, 2.5, 2.0])
        assert np.array_equal(jac[2], -(jac[0] + jac[1]))
        assert jac[0, 1] == 0.0 and jac[0, 3] == 0.0

    def test_clipped_concentration_has_zero_power_law_derivative(self):
        # With a0 = 0, a stays 0, so nothing depends on k1 or n1.
        _, (jac,) = make_kinetics_pair().eval_alternative_jac([0.0, 0.2, 0.15, 6.0], [0.8, 0.3, 2.5, 2.0])
        assert np.all(np.isfinite(jac))
        assert np.all(jac[:, [0, 2]] == 0.0)

    def test_reversible_system_rejected(self):
        reversible = KineticsParams(**KINETICS_DEFAULTS)
        for p in (reversible, KineticsParams(0.7, 0.2, 0.0, 2.0, 2.0, 1.5)):
            for jac in (False, True):
                with pytest.raises(ValueError, match="irreversible"):
                    _dopri5_alt(p, (2.0,), 0.5, 0.1, 1e-8, 1e-10, [], jac)

    def test_failure_raises_model_evaluation_error(self):
        with pytest.raises(ModelEvaluationError) as err:
            make_kinetics_pair().eval_alternative_jac([1e-20, 0.0, 0.0, 1.0], [1e300, 0.2, 1.0, 2.0])
        assert isinstance(err.value.__cause__, OverflowError)


class TestClosedFormA:
    """The alternative's a in closed form, and b integrated alone."""

    def test_alternative_agrees_with_three_state_kernel(self):
        # Within the linear-chain test's tolerance: the steps differ, so do the last digits.
        pair = make_kinetics_pair()
        for theta in box_thetas():
            p = alternative_params(theta)
            direct = [integrate_kinetics(p, KineticsInput(*x)) for x in FULL_LATTICE]
            np.testing.assert_allclose(pair.eval_alternative(FULL_LATTICE, theta), direct, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n1", [0.5, 1.0, 1 - 1e-9, 1 + 1e-9, 1.5, 3.5])
    @pytest.mark.parametrize("a0", [0.0, 0.7])
    def test_a_and_derivatives_match_central_differences(self, n1, a0):
        tight = IntegratorTol(rel=1e-12, abs=1e-14)
        k1 = 0.8
        for t in (0.5, 2.0, 6.0):

            def a_of(th, t=t):
                p = KineticsParams(th[0], 0.2, 0.0, th[1], 2.0, 1.0)
                return integrate_kinetics(p, KineticsInput(a0, 0.1, 0.0, t), tight)[:1]

            r1, r1_k1, r1_n1, a, a_k1, a_n1 = _closed_form_a(alternative_params([k1, 0.2, n1, 2.0]), a0, True)(t)
            assert a == pytest.approx(a_of([k1, n1])[0], rel=0, abs=1e-10)
            assert r1 == pytest.approx(k1 * a**n1, rel=1e-14, abs=0)
            expected = central_difference_jacobian(a_of, [k1, n1])[0]
            np.testing.assert_allclose([a_k1, a_n1], expected, rtol=0, atol=1e-8 + 1e-6 * np.abs(expected).max())

            def r1_of(th, t=t):
                return np.array([_closed_form_a(alternative_params([th[0], 0.2, th[1], 2.0]), a0, False)(t)[0]])

            expected = central_difference_jacobian(r1_of, [k1, n1])[0]
            np.testing.assert_allclose([r1_k1, r1_n1], expected, rtol=0, atol=1e-8 + 1e-6 * np.abs(expected).max())
            if a0 == 0.0:
                assert (r1, r1_k1, r1_n1, a, a_k1, a_n1) == (0.0,) * 6

    def test_extinction_below_first_order(self):
        # n1 < 1: a reaches 0 in finite time (u = -1 at t = 2.09 here) and stays there.
        p = alternative_params([0.8, 0.2, 0.5, 2.0])
        at = _closed_form_a(p, 0.7, True)
        assert at(2.0)[3] > 0.0
        assert at(2.1) == at(10.0) == (0.0,) * 6
        tight = IntegratorTol(rel=1e-12, abs=1e-14)
        assert integrate_kinetics(p, KineticsInput(0.7, 0.1, 0.0, 10.0), tight)[0] == pytest.approx(0.0, abs=1e-9)

    def test_a_and_b_do_not_depend_on_c0(self):
        # So lattice points that differ only in c0 tie exactly in a and b; DISC
        # breaks such ties by the order of its candidates.
        pair = make_kinetics_pair()
        X = np.array(FULL_LATTICE)
        for theta in ([1.0, 0.2568, 3.0591, 2.4137], KINETICS_PARAMETER_SPACE.lower):
            Y, J = pair.eval_alternative_jac(X, theta)
            for a0, b0, t in itertools.product([0.5, 0.7, 0.9], [0.1, 0.2, 0.3], SAMPLING_TIMES):
                rows = np.flatnonzero((X[:, 0] == a0) & (X[:, 1] == b0) & (X[:, 3] == t))
                assert len(rows) == 3
                assert all(np.array_equal(Y[i, :2], Y[rows[0], :2]) for i in rows)
                assert all(np.array_equal(J[i], J[rows[0]]) for i in rows)
                assert all(Y[i, 2] == a0 + b0 + X[i, 2] - Y[i, 0] - Y[i, 1] for i in rows)


class TestFailurePaths:
    def test_overflow_raises_model_evaluation_error(self):
        # The first trial step makes b ~ 1e274, and b**2 overflows.
        params = KineticsParams(1e300, 0.2, 0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ModelEvaluationError) as err:
            integrate_kinetics(params, KineticsInput(1e-20, 0.0, 0.0, 1.0))
        assert isinstance(err.value.__cause__, OverflowError)
        assert np.array_equal(err.value.x, [1e-20, 0.0, 0.0, 1.0])

    def test_step_underflow_raises_model_evaluation_error(self):
        # k1 a0 is near the largest float, so the stage sums overflow to
        # inf - inf = NaN; every step is rejected until it falls below
        # 10 ulp(0). scipy's RK45 fails here too.
        params = KineticsParams(1.7e308, 0.2, 0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ModelEvaluationError, match="step size") as err:
            integrate_kinetics(params, KineticsInput(0.9, 0.3, 0.3, 10.0))
        assert np.array_equal(err.value.x, [0.9, 0.3, 0.3, 10.0])


class TestRegistry:
    def test_builtin_names(self):
        names = registered_models()
        assert "mm_vs_modmm" in names and "kinetics_rev_vs_irrev" in names

    def test_mm_reference_value(self):
        pair = registry_lookup("mm_vs_modmm")
        assert pair.eval_reference([1.0])[0] == pytest.approx(0.6, abs=1e-15)

    def test_kinetics_alternative_is_irreversible(self):
        pair = registry_lookup("kinetics_rev_vs_irrev")
        assert pair.d_y == 3
        # The alternative must not depend on the reference's back reaction:
        # compare against the irreversible system's kernel called directly.
        theta = [0.7, 0.2, 2.0, 2.0]
        a0, b0, c0, t = x = [0.5, 0.1, 0.15, 4.0]
        out = []
        _dopri5_alt(KineticsParams(0.7, 0.2, 0.0, 2.0, 2.0, 1.0), (t,), a0, b0, 1e-8, 1e-10, out)
        (a, b), = out
        assert np.array_equal(pair.eval_alternative(x, theta)[0], [a, b, a0 + b0 + c0 - a - b])

    def test_reference_params_override(self):
        pair = registry_lookup("mm_vs_modmm", {"F": 0.0})
        assert pair.eval_reference([1.0])[0] == pytest.approx(0.5, abs=1e-15)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown model"):
            registry_lookup("nope")

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            registry_lookup("mm_vs_modmm", {"Q": 1.0})

    def test_parameter_space_is_its_own_argument(self):
        box = Box([0.5, 0.5], [2.0, 2.0])
        assert registry_lookup("mm_vs_modmm", parameter_space=box).parameter_space == box
        assert registry_lookup("mm_vs_modmm").parameter_space == MM_PARAMETER_SPACE
        with pytest.raises(KeyError, match="parameter_space"):
            registry_lookup("mm_vs_modmm", {"parameter_space": box})
        with pytest.raises(KeyError, match="tol"):
            registry_lookup("kinetics_rev_vs_irrev", {"tol": 1e-3})

    def test_parameter_space_of_another_dimension_rejected(self):
        box = Box([0.5, 0.5, 0.5], [2.0, 2.0, 2.0])
        with pytest.raises(DesignError, match="dimension 3.*has 2 parameters"):
            registry_lookup("mm_vs_modmm", parameter_space=box)


class TestPairs:
    def test_mm_pair_distance_is_squared_linear_term_at_true_params(self):
        pair = make_mm_pair()
        from discrimopt.core import squared_distance

        assert squared_distance(pair, [2.0], [1.0, 1.0]) == pytest.approx(0.04, abs=1e-15)

    def test_mm_pair_batch_equals_scalar_arithmetic(self):
        pair = make_mm_pair()
        X = np.linspace(0.001, 5.0, 41)[:, None]
        theta = np.array([1.86, 2.15])
        assert np.array_equal(pair.eval_reference(X)[:, 0], [modmm_eval(x, 1.0, 1.0, 0.1) for x in X[:, 0].tolist()])
        assert np.array_equal(pair.eval_alternative(X, theta)[:, 0], [mm_eval(x, 1.86, 2.15) for x in X[:, 0].tolist()])

    def test_kinetics_pair_mass_conservation_both_models(self):
        pair = make_kinetics_pair()
        theta = [0.8, 0.3, 2.5, 2.0]
        for x in FULL_LATTICE[::17]:
            total = sum(x[:3])
            assert pair.eval_reference(x).sum() == pytest.approx(total, abs=1e-8)
            assert pair.eval_alternative(x, theta).sum() == pytest.approx(total, abs=1e-8)
