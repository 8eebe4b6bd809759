import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import discrimopt.search as search

from discrimopt import (
    Box,
    Design,
    Lattice,
    ModelEvaluationError,
    ModelPair,
    check_optimality,
    make_mm_pair,
    pointwise,
)
from discrimopt.config import load_config
from discrimopt.core import squared_distance
from discrimopt.search import _neg_phi_and_gradient, lbfgsb, maximize_distance, scan_grid


class TestBoxSearch:
    def test_toy_tie_breaks_to_smaller_endpoint(self, toy_pair):
        # phi(x) = (x - 1/2)^2 is maximal at both endpoints; 0 wins.
        x, v, _ = maximize_distance(toy_pair, [0.5], Box([0.0], [1.0]))
        assert x[0] == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(0.25, abs=1e-10)

    def test_value_matches_point(self, toy_pair):
        x, v, _ = maximize_distance(toy_pair, [0.3], Box([0.0], [1.0]))
        assert v == pytest.approx(squared_distance(toy_pair, x, [0.3]), abs=1e-14)

    def test_mm_agrees_with_fine_grid(self):
        pair = make_mm_pair()
        theta = [1.86, 2.15]
        space = Box([0.001], [5.0])
        _, v, _ = maximize_distance(pair, theta, space)
        fine = max(
            squared_distance(pair, [x], theta) for x in np.linspace(0.001, 5.0, 641)
        )
        assert v >= fine - 1e-8
        assert v == pytest.approx(1.2876e-3, abs=5e-6)

    def test_refinement_beats_grid(self, toy_pair):
        # A model peaking at 0.341, midway between the grid nodes 21/63 and 22/63,
        # where the grid's best value is ~0.994.
        pair = ModelPair(
            reference=pointwise(lambda x: np.array([np.exp(-50 * (x[0] - 0.341) ** 2)])),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        x, v, _ = maximize_distance(pair, [0.0], Box([0.0], [1.0]))
        assert x[0] == pytest.approx(0.341, abs=1e-3)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_higher_narrow_peak_refined(self):
        # phi = 1 - (x - 0.2)^2 / 2 plus a narrow bump of 0.3 at c, midway between the grid
        # nodes 50/63 and 51/63; the broad peak's top five grid cells rank above the bump's.
        c = 50.5 / 63
        pair = ModelPair(
            reference=lambda X: np.sqrt(
                1 - 0.5 * (X[:, :1] - 0.2) ** 2 + 0.3 * np.exp(-(((X[:, :1] - c) / 0.005) ** 2))),
            alternative=lambda X, th: np.zeros((len(X), 1)),
            parameter_space=Box([0.0], [1.0]),
        )
        x, v, _ = maximize_distance(pair, [0.0], Box([0.0], [1.0]))
        assert x[0] == pytest.approx(c, abs=1e-3)
        assert v > 1.1

    def test_deterministic(self, toy_pair):
        a = maximize_distance(toy_pair, [0.4], Box([0.0], [1.0]))
        b = maximize_distance(toy_pair, [0.4], Box([0.0], [1.0]))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestLatticeSearch:
    def test_exact_enumeration(self, toy_pair):
        lat = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
        x, v, _ = maximize_distance(toy_pair, [0.5], lat)
        assert x[0] == 0.0  # tie with 1.0 broken lexicographically
        assert v == pytest.approx(0.25, abs=1e-15)

    def test_zero_distance_returns_lex_smallest(self):
        pair = ModelPair(
            reference=pointwise(lambda x: np.array([1.0])),
            alternative=pointwise(lambda x, th: np.array([1.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        lat = Lattice(([0.5, 0.7], [0.1, 0.2]))
        x, v, _ = maximize_distance(pair, [0.5], lat)
        assert tuple(x) == (0.5, 0.1)
        assert v == 0.0

    def test_matches_brute_force(self, toy_pair):
        lat = Lattice(([0.0, 0.3, 0.6, 0.9],))
        _, v, _ = maximize_distance(toy_pair, [0.2], lat)
        brute = max(squared_distance(toy_pair, p, [0.2]) for p in lat.enumerate())
        assert v == brute

    def test_near_ties_resolve_to_lex_smallest(self):
        # Values equal up to 1e-8 relative noise must not flip the argmax.
        def ref(x):
            bump = 1e-9 if x[0] > 0.5 else 0.0
            return np.array([1.0 + bump])

        pair = ModelPair(
            reference=pointwise(ref),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        lat = Lattice(([0.0, 1.0],))
        x, _, _ = maximize_distance(pair, [0.5], lat)
        assert x[0] == 0.0

    def test_tied_preferred_point_wins(self, toy_pair):
        # phi is symmetric around 1/2; preferring 1.0 overrides the
        # lexicographic default of 0.0.
        lat = Lattice(([0.0, 0.5, 1.0],))
        x, v, _ = maximize_distance(
            toy_pair, [0.5], lat, prefer=[np.array([1.0]), np.array([0.5])]
        )
        assert x[0] == 1.0
        assert v == pytest.approx(0.25, abs=1e-15)

    def test_prefer_ignored_when_not_tied(self, toy_pair):
        lat = Lattice(([0.0, 0.5, 1.0],))
        x, _, _ = maximize_distance(toy_pair, [0.2], lat, prefer=[np.array([0.5])])
        assert x[0] == 1.0  # strict maximum, preference cannot override


class TestFailureHandling:
    def test_partial_failures_skipped(self):
        def flaky(x):
            if x[0] < 0.5:
                raise RuntimeError("bad region")
            return np.array([x[0]])

        pair = ModelPair(
            reference=pointwise(flaky),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        lat = Lattice(([0.2, 0.6, 0.8],))
        x, v, _ = maximize_distance(pair, [0.5], lat)
        assert x[0] == 0.8

    def test_nonfinite_point_skipped(self):
        # phi is NaN at 0.2, the lexicographically smallest lattice point.
        pair = ModelPair(
            reference=lambda X: X,
            alternative=lambda X, th: np.where(X < 0.5, np.nan, 0.0),
            parameter_space=Box([0.0], [1.0]),
        )
        x, v, _ = maximize_distance(pair, [0.5], Lattice(([0.2, 0.6, 0.8],)))
        assert x[0] == 0.8 and v == 0.8**2

    def test_failed_refinement_keeps_its_best_evaluated_point(self):
        # phi = reference**2 peaks at 0.373, midway between the grid points 23/63 and 24/63.
        # The alternative fails from its sixth call on: the scan is the first,
        # so the first refinement fails after four steps, and the others at once.
        def phi(X):
            return np.exp(-100 * (X[:, 0] - 0.373) ** 2)

        evaluated = []

        def alternative(X, theta):
            if len(evaluated) == 5:
                raise RuntimeError("injected failure")
            evaluated.append(phi(X))
            return np.zeros((len(X), 1))

        pair = ModelPair(
            reference=lambda X: np.exp(-50 * (X[:, :1] - 0.373) ** 2),
            alternative=alternative,
            parameter_space=Box([0.0], [1.0]),
        )
        x, v, _ = maximize_distance(pair, [0.0], Box([0.0], [1.0]))
        grid_max = evaluated[0].max()
        refined_max = max(e.max() for e in evaluated[1:])
        assert len(evaluated) == 5 and refined_max > grid_max
        assert v >= refined_max and v == pytest.approx(phi(x[None])[0], rel=1e-14)

    @pytest.mark.parametrize("failing", ["reference", "alternative"])
    def test_failed_grid_point_counts_as_minus_infinity(self, failing):
        # phi peaks at 0.341, between the grid nodes 21/63 and 22/63; the higher one, 21/63,
        # fails, so 22/63 is the only local maximum and its refinement reaches the peak.
        node = np.linspace(0.0, 1.0, search._GRID_PER_DIM)[21]

        def failing_at_node(f):
            return lambda x, *th: f(x, *th) if x[0] != node else 1 / 0

        models = {
            "reference": lambda x: np.array([np.exp(-50 * (x[0] - 0.341) ** 2)]),
            "alternative": lambda x, th: np.array([0.0]),
        }
        models[failing] = failing_at_node(models[failing])
        pair = ModelPair(**{k: pointwise(f) for k, f in models.items()}, parameter_space=Box([0.0], [1.0]))
        x, v, _ = maximize_distance(pair, [0.0], Box([0.0], [1.0]))
        assert x[0] == pytest.approx(0.341, abs=1e-3)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_total_failure_raises(self):
        def broken(x):
            raise RuntimeError("no")

        pair = ModelPair(
            reference=pointwise(broken),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        with pytest.raises(ModelEvaluationError):
            maximize_distance(pair, [0.5], Lattice(([0.0, 1.0],)))


def _toy_2d():
    """A pair whose phi depends on both coordinates of the design point."""
    return ModelPair(
        reference=lambda X: np.sin(3 * X[:, :1] * X[:, 1:2]) + X[:, :1] * np.cos(X[:, 1:2]),
        alternative=lambda X, th: th[0] * X[:, :1] + th[1] * X[:, 1:2] ** 2,
        parameter_space=Box([-5.0, -5.0], [5.0, 5.0]),
    )


def _far_2d():
    """A pair on coordinates near 1e10, where a step of 1e-7 is lost to rounding."""
    return ModelPair(
        reference=lambda X: np.sin(X[:, :1] * 3e-10) * np.cos(X[:, 1:2]),
        alternative=lambda X, th: th[0] * X[:, 1:2],
        parameter_space=Box([-5.0], [5.0]),
    )


def _counting(pair):
    """``pair`` with an alternative that records the number of rows of each call, and the record."""
    calls = []

    def alternative(X, theta):
        calls.append(len(X))
        return pair.alternative(X, theta)

    return dataclasses.replace(pair, alternative=alternative), calls


def _scipy_default(pair, theta, x0, bounds, tol=search._LOCAL_TOL):
    """L-BFGS-B on -phi with scipy's own finite-difference gradient, as the box search used to run it."""
    return minimize(
        lambda x: -squared_distance(pair, x, theta)[0],
        x0,
        method="L-BFGS-B",
        bounds=bounds,
        options={"ftol": tol, "gtol": tol, "eps": 1e-7},
    )


class TestRefinementGradient:
    """The box refinement's batched gradient reproduces L-BFGS-B's default bit for bit."""

    MM_THETA = [1.86, 2.15]
    TOY_THETA = [0.3, -0.2]
    # name -> (pair builder, theta, lower, upper, start)
    CASES = {
        "mm-interior": (make_mm_pair, MM_THETA, [0.001], [5.0], [0.3]),
        "mm-lower-bound": (make_mm_pair, MM_THETA, [0.001], [5.0], [0.001]),
        "mm-upper-bound": (make_mm_pair, MM_THETA, [0.001], [5.0], [5.0]),
        "mm-width-5e-8-lower": (make_mm_pair, MM_THETA, [0.001], [0.001 + 5e-8], [0.001]),
        "mm-width-5e-8-upper": (make_mm_pair, MM_THETA, [0.001], [0.001 + 5e-8], [0.001 + 5e-8]),
        "toy-upper-corner": (_toy_2d, TOY_THETA, [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]),
        "toy-interior": (_toy_2d, TOY_THETA, [0.0, 0.0], [1.0, 2.0], [0.4, 1.0]),
        "toy-width-0": (_toy_2d, TOY_THETA, [0.0, 0.5], [1.0, 0.5], [1.0, 0.5]),
        "toy-width-5e-8": (_toy_2d, TOY_THETA, [0.2, 0.0], [0.2 + 5e-8, 2.0], [0.2 + 5e-8, 1.3]),
        "toy-widths-5e-8-and-0": (_toy_2d, TOY_THETA, [0.2, 0.7], [0.2 + 5e-8, 0.7], [0.2, 0.7]),
        "far-positive": (_far_2d, [0.5], [1e10, 0.0], [1.1e10, 2.0], [1.1e10, 1.0]),
        "far-negative": (_far_2d, [0.5], [-1.1e10, 0.0], [-1e10, 2.0], [-1.05e10, 1.0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scipy_finite_differences(self, case):
        make, theta, lower, upper, x0 = self.CASES[case]
        pair, theta, space, x0 = make(), np.array(theta), Box(lower, upper), np.array(x0, dtype=float)
        counted, calls = _counting(pair)
        free = np.flatnonzero(space.lower < space.upper)
        tol = search._LOCAL_TOL
        res = minimize(
            _neg_phi_and_gradient(counted, theta, space, free),
            x0[free],
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(space.lower[free], space.upper[free])),
            options={"ftol": tol, "gtol": tol},
        )
        x = space.lower.copy()
        x[free] = res.x
        # scipy drops the coordinates of width 0 itself, as it needs finite differences.
        expected = _scipy_default(pair, theta, x0, list(zip(space.lower, space.upper)))
        assert np.array_equal(x, expected.x)
        assert res.fun == expected.fun
        assert res.nit == expected.nit and np.array_equal(res.jac, expected.jac[free])
        # One model call per L-BFGS-B function evaluation, on the point and its steps.
        assert calls == [free.size + 1] * res.nfev

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("stops", [{}, {"maxiter": 2}, {"maxfun": 3}], ids=["default", "maxiter", "maxfun"])
    def test_driver_matches_scipy_minimize(self, case, stops, monkeypatch):
        for key, limit in stops.items():
            monkeypatch.setattr(search, f"_{key.upper()}", limit)
        make, theta, lower, upper, x0 = self.CASES[case]
        pair, theta, space, x0 = make(), np.array(theta), Box(lower, upper), np.array(x0, dtype=float)
        free = np.flatnonzero(space.lower < space.upper)
        lower, upper, tol = space.lower[free], space.upper[free], search._LOCAL_TOL
        counted, our_calls = _counting(pair)
        ours = lbfgsb(_neg_phi_and_gradient(counted, theta, space, free), x0[free], lower, upper, tol)
        counted, their_calls = _counting(pair)
        theirs = minimize(_neg_phi_and_gradient(counted, theta, space, free), x0[free], jac=True, method="L-BFGS-B",
                          bounds=list(zip(lower, upper)), options={"ftol": tol, "gtol": tol, **stops})
        assert ours.x.tobytes() == theirs.x.tobytes() and ours.jac.tobytes() == theirs.jac.tobytes()
        assert (ours.fun, ours.nfev, ours.nit) == (theirs.fun, theirs.nfev, theirs.nit)
        assert our_calls == their_calls
        assert ours.nit <= stops.get("maxiter", ours.nit)

    def test_driver_clips_the_start_into_the_box(self):
        # minimize clips x0 into the bounds before its first call; so does the driver.
        points = []

        def fun(x):
            points.append(x.copy())
            return float(np.sum((x - 0.25) ** 2)), 2.0 * (x - 0.25)

        res = lbfgsb(fun, np.array([-1.0, 3.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]), search._LOCAL_TOL)
        assert np.array_equal(points[0], [0.0, 1.0])
        expected = minimize(fun, [-1.0, 3.0], jac=True, method="L-BFGS-B", bounds=[(0.0, 1.0)] * 2,
                            options={"ftol": search._LOCAL_TOL, "gtol": search._LOCAL_TOL})
        assert np.array_equal(res.x, expected.x) and res.nfev == expected.nfev and res.nit == expected.nit

    def test_driver_rejects_bounds_of_another_length(self):
        with pytest.raises(ValueError, match="one length"):
            lbfgsb(lambda x: (0.0, np.zeros(2)), np.zeros(2), np.zeros(3), np.ones(3), search._LOCAL_TOL)

    @pytest.mark.parametrize("make, theta, lower, upper", [
        (make_mm_pair, MM_THETA, [0.001], [5.0]),
        (_toy_2d, TOY_THETA, [0.0, 0.0], [1.0, 2.0]),
        (_toy_2d, TOY_THETA, [0.0, 0.5], [1.0, 0.5]),
        (_toy_2d, TOY_THETA, [0.2, 0.0], [0.2 + 5e-8, 2.0]),
    ], ids=["mm", "toy", "toy-width-0", "toy-width-5e-8"])
    def test_maximize_distance_matches_the_scipy_default_search(self, make, theta, lower, upper, monkeypatch):
        pair, theta, space = make(), np.array(theta), Box(lower, upper)
        runs = []

        def recording_lbfgsb(*args, **kwargs):
            runs.append(lbfgsb(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(search, "lbfgsb", recording_lbfgsb)
        counted, calls = _counting(pair)
        x, v, _ = maximize_distance(counted, theta, space, grid=scan_grid(pair, space))
        expected_x, expected_v, n_starts = _reference_box_search(pair, theta, space)
        assert np.array_equal(x, expected_x) and v == expected_v
        # The scan is one call; every refinement step is one more.
        assert len(runs) == n_starts
        assert len(calls) == 1 + sum(res.nfev for res in runs)
        if make is make_mm_pair:
            # The mm grid's best cells sit on one peak, which is refined once.
            assert n_starts < search._REFINE_TOP


def _reference_box_search(pair, theta, space):
    """The box search with scipy's own finite differences, one model call per point, and its number of starts.

    The grid has one level on an axis of width 0; the refinements start from the best grid points
    whose value is >= that of every neighbour along an axis.
    """
    axes = [np.linspace(lo, hi, search._GRID_PER_DIM if lo < hi else 1) for lo, hi in zip(space.lower, space.upper)]
    shape = tuple(len(a) for a in axes)
    X = np.array(list(itertools.product(*axes)))
    values = squared_distance(pair, X, theta)
    best_v, best_x = -np.inf, None
    for v, x in zip(values, X):
        if v > best_v or (v == best_v and tuple(x) < tuple(best_x)):
            best_v, best_x = v, x
    peaks = []
    for i, index in enumerate(itertools.product(*map(range, shape))):
        neighbours = [index[:a] + (index[a] + d,) + index[a + 1:]
                      for a in range(len(shape)) for d in (-1, 1) if 0 <= index[a] + d < shape[a]]
        if all(values[i] >= values[np.ravel_multi_index(n, shape)] for n in neighbours):
            peaks.append(i)
    starts = sorted(peaks, key=lambda i: -values[i])[: search._REFINE_TOP]
    for i in starts:
        res = _scipy_default(pair, theta, X[i], list(zip(space.lower, space.upper)), search._LOCAL_TOL)
        x, v = np.clip(res.x, space.lower, space.upper), -float(res.fun)
        if v > best_v or (v == best_v and tuple(x) < tuple(best_x)):
            best_v, best_x = v, x
    return best_x, best_v, len(starts)


class TestScanGrid:
    def test_box_grid_and_reference_rows(self, toy_pair):
        X, refs = scan_grid(toy_pair, Box([0.0], [1.0]))
        assert np.array_equal(X, np.linspace(0.0, 1.0, search._GRID_PER_DIM)[:, None])
        assert np.array_equal(refs, toy_pair.eval_reference(X))

    def test_zero_width_axis_has_one_level(self, monkeypatch):
        space = Box([0.0, 0.3], [1.0, 0.3])
        X, _ = scan_grid(_toy_2d(), space)
        levels = np.linspace(0.0, 1.0, search._GRID_PER_DIM)
        assert np.array_equal(X, np.column_stack([levels, np.full_like(levels, 0.3)]))
        runs = []
        monkeypatch.setattr(search, "lbfgsb", lambda *a, **k: runs.append(lbfgsb(*a, **k)) or runs[-1])
        maximize_distance(_toy_2d(), [0.3, -0.2], space)
        assert len(runs) == 1

    def test_reference_failures_left_out(self):
        def flaky(x):
            if x[0] < 0.5:
                raise RuntimeError("bad region")
            return np.array([x[0]])

        pair = ModelPair(
            reference=pointwise(flaky),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        X, refs = scan_grid(pair, Lattice(([0.2, 0.6, 0.8],)))
        assert np.array_equal(X, [[0.6], [0.8]]) and np.array_equal(refs, [[0.6], [0.8]])

    def test_given_grid_is_not_evaluated_again(self, toy_pair):
        space = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
        grid = scan_grid(toy_pair, space)
        refs = []
        pair = dataclasses.replace(toy_pair, reference=lambda X: refs.append(len(X)) or toy_pair.reference(X))
        assert maximize_distance(pair, [0.5], space, grid=grid)[1] == maximize_distance(toy_pair, [0.5], space)[1]
        assert refs == []


class TestScanValues:
    """The search hands out phi at its scan points, as the certificate's ``scan_phi``: squared_distance's there,
    bit for bit, in scan_grid's order, and NaN where the alternative failed."""

    @pytest.mark.parametrize("case", ["mm box", "2-D box", "kinetics lattice"])
    def test_scan_phi_is_the_squared_distance(self, case):
        if case == "mm box":
            pair, space, theta = make_mm_pair(), Box([0.001], [5.0]), np.array([1.86, 2.15])
        elif case == "2-D box":
            pair, space, theta = _toy_2d(), Box([0.0, 0.0], [1.0, 2.0]), np.array([0.3, -0.2])
        else:
            cfg = load_config(Path(__file__).parent.parent / "benchmarks" / "kinetics.config")
            pair, space = cfg.pair, cfg.space
            theta = (pair.parameter_space.lower + pair.parameter_space.upper) / 2
        X, _ = scan_grid(pair, space)
        expected = squared_distance(pair, X, theta).tobytes()
        design = Design(X[:1], np.array([1.0]))
        for grid in (None, scan_grid(pair, space)):
            assert maximize_distance(pair, theta, space, grid=grid)[2].tobytes() == expected
            assert check_optimality(pair, design, theta, space, grid=grid).scan_phi.tobytes() == expected

    def test_failed_points_are_nan(self):
        pair = ModelPair(
            reference=lambda X: X,
            alternative=pointwise(lambda x, th: np.array([0.0]) if x[0] > 0.5 else 1 / 0),
            parameter_space=Box([0.0], [1.0]),
        )
        space = Lattice(([0.2, 0.6, 0.8],))
        _, _, scan_phi = maximize_distance(pair, [0.5], space)
        assert np.isnan(scan_phi[0])
        assert scan_phi[1:].tobytes() == squared_distance(pair, np.array([[0.6], [0.8]]), [0.5]).tobytes()
