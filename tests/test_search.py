import itertools

import numpy as np
import pytest

from discrimopt import (
    Box,
    GlobalSearchConfig,
    Lattice,
    ModelEvaluationError,
    ModelPair,
    ParameterSpace,
    make_mm_pair,
    pointwise,
)
from discrimopt.core import squared_distance
from discrimopt.search import maximize_distance


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            GlobalSearchConfig(grid_per_dim=1)
        with pytest.raises(ValueError):
            GlobalSearchConfig(refine_top=0)
        with pytest.raises(ValueError):
            GlobalSearchConfig(local_tol=0.0)


class TestBoxSearch:
    def test_toy_tie_breaks_to_smaller_endpoint(self, toy_pair):
        # phi(x) = (x - 1/2)^2 is maximal at both endpoints; 0 wins.
        x, v = maximize_distance(toy_pair, [0.5], Box([0.0], [1.0]))
        assert x[0] == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(0.25, abs=1e-10)

    def test_value_matches_point(self, toy_pair):
        x, v = maximize_distance(toy_pair, [0.3], Box([0.0], [1.0]))
        assert v == pytest.approx(squared_distance(toy_pair, x, [0.3]), abs=1e-14)

    def test_mm_agrees_with_fine_grid(self):
        pair = make_mm_pair()
        theta = [1.86, 2.15]
        space = Box([0.001], [5.0])
        _, v = maximize_distance(pair, theta, space)
        fine = max(
            squared_distance(pair, [x], theta) for x in np.linspace(0.001, 5.0, 641)
        )
        assert v >= fine - 1e-8
        assert v == pytest.approx(1.2876e-3, abs=5e-6)

    def test_refinement_beats_grid(self, toy_pair):
        # A coarse grid misses the interior maximum of -(x-0.37)^2... here the
        # max is at the boundary, so use a model peaking between grid nodes.
        pair = ModelPair(
            reference=pointwise(lambda x: np.array([np.exp(-50 * (x[0] - 0.333) ** 2)])),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=ParameterSpace([0.0], [1.0]),
        )
        cfg = GlobalSearchConfig(grid_per_dim=8)
        x, v = maximize_distance(pair, [0.0], Box([0.0], [1.0]), cfg)
        assert x[0] == pytest.approx(0.333, abs=1e-3)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self, toy_pair):
        a = maximize_distance(toy_pair, [0.4], Box([0.0], [1.0]))
        b = maximize_distance(toy_pair, [0.4], Box([0.0], [1.0]))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


class TestLatticeSearch:
    def test_exact_enumeration(self, toy_pair):
        lat = Lattice(([0.0, 0.25, 0.5, 0.75, 1.0],))
        x, v = maximize_distance(toy_pair, [0.5], lat)
        assert x[0] == 0.0  # tie with 1.0 broken lexicographically
        assert v == pytest.approx(0.25, abs=1e-15)

    def test_zero_distance_returns_lex_smallest(self):
        pair = ModelPair(
            reference=pointwise(lambda x: np.array([1.0])),
            alternative=pointwise(lambda x, th: np.array([1.0])),
            parameter_space=ParameterSpace([0.0], [1.0]),
        )
        lat = Lattice(([0.5, 0.7], [0.1, 0.2]))
        x, v = maximize_distance(pair, [0.5], lat)
        assert tuple(x) == (0.5, 0.1)
        assert v == 0.0

    def test_matches_brute_force(self, toy_pair):
        lat = Lattice(([0.0, 0.3, 0.6, 0.9],))
        _, v = maximize_distance(toy_pair, [0.2], lat)
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
            parameter_space=ParameterSpace([0.0], [1.0]),
        )
        lat = Lattice(([0.0, 1.0],))
        x, _ = maximize_distance(pair, [0.5], lat)
        assert x[0] == 0.0

    def test_tied_preferred_point_wins(self, toy_pair):
        # phi is symmetric around 1/2; preferring 1.0 overrides the
        # lexicographic default of 0.0.
        lat = Lattice(([0.0, 0.5, 1.0],))
        x, v = maximize_distance(
            toy_pair, [0.5], lat, prefer=[np.array([1.0]), np.array([0.5])]
        )
        assert x[0] == 1.0
        assert v == pytest.approx(0.25, abs=1e-15)

    def test_prefer_ignored_when_not_tied(self, toy_pair):
        lat = Lattice(([0.0, 0.5, 1.0],))
        x, _ = maximize_distance(toy_pair, [0.2], lat, prefer=[np.array([0.5])])
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
            parameter_space=ParameterSpace([0.0], [1.0]),
        )
        lat = Lattice(([0.2, 0.6, 0.8],))
        x, v = maximize_distance(pair, [0.5], lat)
        assert x[0] == 0.8

    def test_total_failure_raises(self):
        def broken(x):
            raise RuntimeError("no")

        pair = ModelPair(
            reference=pointwise(broken),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=ParameterSpace([0.0], [1.0]),
        )
        with pytest.raises(ModelEvaluationError):
            maximize_distance(pair, [0.5], Lattice(([0.0, 1.0],)))
