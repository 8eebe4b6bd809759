import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimopt import (
    Box,
    Design,
    Lattice,
    ModelEvaluationError,
    ModelPair,
    make_mm_pair,
    pointwise,
)
from discrimopt.core import (
    DesignError,
    canonical_key,
    mix_designs,
    prune_design,
    squared_distance,
    t_value,
)

from conftest import linear_vs_constant


class TestCanonicalKey:
    def test_rounds_to_twelve_significant_digits(self):
        assert canonical_key([1.0000000000001]) == canonical_key([1.0000000000002])
        assert canonical_key([1.00001]) != canonical_key([1.00002])

    def test_scalar_and_vector(self):
        assert canonical_key(2.0) == (2.0,)
        assert canonical_key([1.0, 2.0]) == (1.0, 2.0)


class TestDesign:
    def test_basic_construction(self):
        d = Design(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        assert d.n_points == 2
        assert d.dimension == 1
        assert np.isclose(d.weights.sum(), 1.0, atol=1e-15)

    def test_duplicate_points_merged(self):
        d = Design(np.array([[1.0], [1.0], [2.0]]), np.array([0.3, 0.2, 0.5]))
        assert d.n_points == 2
        assert np.isclose(d.weights[0], 0.5)

    def test_near_duplicates_merged_after_rounding(self):
        d = Design(np.array([[1.0], [1.0 + 1e-14]]), np.array([0.5, 0.5]))
        assert d.n_points == 1

    def test_weight_sum_validated(self):
        with pytest.raises(DesignError, match="sum to 1"):
            Design(np.array([[0.0], [1.0]]), np.array([0.5, 0.4]))

    def test_negative_weight_rejected(self):
        with pytest.raises(DesignError, match="nonnegative"):
            Design(np.array([[0.0], [1.0]]), np.array([-0.1, 1.1]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DesignError):
            Design(np.array([[0.0], [1.0]]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(DesignError):
            Design(np.empty((0, 1)), np.array([]))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(DesignError):
            Design(np.array([[np.nan]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        with pytest.raises(DesignError, match="weights must be finite"):
            Design(np.array([[1.0], [2.0]]), np.array([bad, 1.0]))

    def test_immutable(self):
        d = Design(np.array([[0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            d.points[0, 0] = 5.0


class TestSpaces:
    def test_box_contains(self):
        box = Box([0.0], [1.0])
        assert box.contains([0.5]) and box.contains([0.0]) and not box.contains([1.5])

    def test_box_validation(self):
        with pytest.raises(DesignError):
            Box([1.0], [0.0])
        with pytest.raises(DesignError):
            Box([0.0], [np.inf])

    def test_lattice_enumerates_lexicographically(self):
        lat = Lattice(([0.0, 1.0], [2.0, 3.0]))
        pts = [tuple(p) for p in lat.enumerate()]
        assert pts == [(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)]

    def test_lattice_contains(self):
        lat = Lattice(([0.0, 1.0],))
        assert lat.contains([1.0]) and not lat.contains([0.5])

    def test_lattice_levels_must_increase(self):
        with pytest.raises(DesignError):
            Lattice(([1.0, 1.0],))

    def test_parameter_space_clip(self):
        ps = Box([0.0, 0.0], [1.0, 1.0])
        assert np.allclose(ps.clip([2.0, -1.0]), [1.0, 0.0])
        assert ps.contains([0.5, 0.5]) and not ps.contains([2.0, 0.5])

    def test_parameter_space_must_be_bounded(self):
        with pytest.raises(DesignError, match="bounded"):
            Box([0.0], [np.inf])


class TestSquaredDistance:
    def test_mm_linear_term_is_whole_residual(self):
        # When (V, K) agree, the residual is exactly the F*x term.
        pair = make_mm_pair()
        assert squared_distance(pair, [5.0], [1.0, 1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_identical_models_give_zero(self, toy_pair):
        pair = ModelPair(
            reference=pointwise(lambda x: np.array([x[0] ** 2])),
            alternative=pointwise(lambda x, th: np.array([x[0] ** 2])),
            parameter_space=Box([0.0], [1.0]),
        )
        for x in (0.0, 0.3, 1.0):
            assert squared_distance(pair, [x], [0.5]) == 0.0

    def test_value_near_criterion_at_optimal_support(self):
        # At the optimal support the distance attains the criterion value.
        pair = make_mm_pair()
        v = squared_distance(pair, [0.386], [1.86, 2.15])
        assert v == pytest.approx(1.185e-3, abs=5e-5)

    def test_evaluation_error_carries_inputs(self):
        def bad(x):
            raise RuntimeError("boom")

        pair = ModelPair(
            reference=pointwise(bad),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
        )
        with pytest.raises(ModelEvaluationError) as err:
            squared_distance(pair, [0.5], [0.5])
        assert err.value.x is not None

    def test_wrong_response_shape_rejected(self):
        pair = ModelPair(
            reference=pointwise(lambda x: np.array([1.0, 2.0])),
            alternative=pointwise(lambda x, th: np.array([0.0])),
            parameter_space=Box([0.0], [1.0]),
            d_y=1,
        )
        with pytest.raises(ModelEvaluationError, match="shape"):
            squared_distance(pair, [0.5], [0.5])

    @pytest.mark.parametrize("method", ["eval_reference", "eval_alternative", "eval_alternative_jac"])
    def test_nonfinite_output_rejected(self, method):
        pair = ModelPair(
            reference=lambda X: np.where(X > 0.8, np.nan, X),
            alternative=lambda X, th: np.where(X > 0.8, np.inf, th[0]),
            parameter_space=Box([0.0], [1.0]),
            alternative_jac=lambda X, th: (np.zeros((len(X), 1)), np.where(X > 0.8, np.nan, 1.0)[:, :, None]),
        )
        args = ([0.5],) if method != "eval_reference" else ()
        getattr(pair, method)([[0.5]], *args)
        with pytest.raises(ModelEvaluationError, match="non-finite") as err:
            getattr(pair, method)([[0.5], [0.9]], *args)
        assert err.value.x is not None


class TestPointwise:
    def test_stacks_one_call_per_row(self):
        calls = []

        def per_point(x, theta):
            calls.append(x)
            return theta[0] * x[0]  # a scalar for d_y = 1

        out = pointwise(per_point)(np.array([[1.0], [2.0], [3.0]]), np.array([0.5]))
        assert out.shape == (3, 1) and np.array_equal(out[:, 0], [0.5, 1.0, 1.5])
        assert len(calls) == 3

    def test_batched_pair_needs_batched_shapes(self):
        # A per-point callable handed over as it is gives one response for
        # the whole batch, which the shape check rejects.
        pair = ModelPair(
            reference=lambda x: np.array([x[0]]),
            alternative=pointwise(lambda x, th: np.array([th[0]])),
            parameter_space=Box([0.0], [1.0]),
        )
        with pytest.raises(ModelEvaluationError, match="shape"):
            pair.eval_reference(np.array([[0.1], [0.2]]))


class TestAlternativeJac:
    @staticmethod
    def pair_with_jac(jac):
        return ModelPair(
            reference=pointwise(lambda x: np.array([x[0]])),
            alternative=pointwise(lambda x, th: np.array([th[0] * x[0]])),
            parameter_space=Box([0.0, 0.0], [1.0, 1.0]),
            alternative_jac=jac,
        )

    def test_response_and_jacobian_as_arrays(self):
        pair = self.pair_with_jac(lambda X, th: (th[0] * X, [[[X[0, 0], 0.0]]]))
        (y,), (jac,) = pair.eval_alternative_jac([0.5], [0.2, 0.3])
        assert y.shape == (1,) and y[0] == pytest.approx(0.1, abs=1e-15)
        assert np.array_equal(jac, [[0.5, 0.0]])

    def test_failure_carries_inputs(self):
        def bad(x, th):
            raise RuntimeError("boom")

        with pytest.raises(ModelEvaluationError, match="boom") as err:
            self.pair_with_jac(bad).eval_alternative_jac([0.5], [0.2, 0.3])
        assert np.array_equal(err.value.x, [0.5])
        assert np.array_equal(err.value.theta, [0.2, 0.3])

    @pytest.mark.parametrize(
        "out",
        [
            ([[0.1, 0.2]], [[[0.5, 0.0]]]),  # two responses for d_y = 1
            ([[0.1]], [[0.5, 0.0]]),  # Jacobian not (n, d_y, p)
            ([[0.1]], [[[0.5]]]),  # one column for two parameters
            ([[0.1]],),  # no Jacobian at all
        ],
    )
    def test_wrong_shapes_rejected(self, out):
        pair = self.pair_with_jac(lambda x, th: out)
        with pytest.raises(ModelEvaluationError):
            pair.eval_alternative_jac([0.5], [0.2, 0.3])


class TestTValue:
    def test_single_point_equals_distance(self, toy_pair):
        d = Design(np.array([[0.2]]), np.array([1.0]))
        assert t_value(toy_pair, d, [0.7]) == pytest.approx(
            squared_distance(toy_pair, [0.2], [0.7]), abs=1e-16
        )

    def test_toy_weighted_variance(self, toy_pair, toy_optimum):
        assert t_value(toy_pair, toy_optimum, [0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_mm_published_design(self):
        pair = make_mm_pair()
        d = Design(
            np.array([[0.386], [2.596], [5.0]]), np.array([0.3906, 0.3896, 0.2198])
        )
        assert t_value(pair, d, [1.86, 2.15]) == pytest.approx(1.1854e-3, abs=5e-5)

    def test_given_phi_used_and_checked(self, toy_pair, toy_optimum):
        assert t_value(toy_pair, toy_optimum, [0.5], phi=[0.5, 1.5]) == 1.0
        with pytest.raises(ValueError, match="2 design points"):
            t_value(toy_pair, toy_optimum, [0.5], phi=[0.25])

    def test_bounded_by_max_support_distance(self, toy_pair, toy_optimum):
        theta = [0.3]
        tv = t_value(toy_pair, toy_optimum, theta)
        phis = [squared_distance(toy_pair, x, theta) for x in toy_optimum.points]
        assert 0.0 <= tv <= max(phis) + 1e-15


def psi(pair, design, theta_hat, X):
    """psi(x, design) = phi(x, theta_hat) - T(design, theta_hat) at the rows of X."""
    return squared_distance(pair, X, theta_hat) - t_value(pair, design, theta_hat)


class TestDirectionalDerivative:
    def test_toy_closed_form(self, toy_pair, toy_optimum):
        # psi(x) = (x - 1/2)^2 - 1/4 at the optimum.
        for x, expected in [(0.0, 0.0), (1.0, 0.0), (0.5, -0.25)]:
            assert psi(toy_pair, toy_optimum, [0.5], [x]) == pytest.approx(expected, abs=1e-15)

    def test_exactly_fitted_single_point_is_zero(self, toy_pair):
        d = Design(np.array([[0.4]]), np.array([1.0]))
        assert psi(toy_pair, d, [0.4], [0.4]) == pytest.approx(0.0, abs=1e-16)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_integrates_to_zero_against_own_measure(self, raw_w, theta):
        pair = linear_vs_constant()
        w = np.array(raw_w)
        w = w / w.sum()
        pts = np.linspace(0.0, 1.0, len(w))[:, None]
        design = Design(pts, w)
        total = sum(
            wi * psi(pair, design, [theta], x)
            for x, wi in zip(design.points, design.weights)
        )
        assert abs(total) <= 1e-10


class TestMixDesigns:
    def test_idempotent_on_equal_designs(self, toy_optimum):
        mixed = mix_designs(toy_optimum, toy_optimum, 0.3)
        assert np.allclose(mixed.weights, toy_optimum.weights)

    def test_disjoint_union(self):
        a = Design(np.array([[0.0]]), np.array([1.0]))
        b = Design(np.array([[1.0]]), np.array([1.0]))
        mixed = mix_designs(a, b, 0.5)
        assert mixed.n_points == 2
        assert np.allclose(mixed.weights, [0.5, 0.5])

    def test_duplicate_merge_at_full_alpha(self):
        a = Design(np.array([[0.0]]), np.array([1.0]))
        mixed = mix_designs(a, a, 1.0)
        assert mixed.n_points == 1 and mixed.weights[0] == 1.0

    def test_alpha_out_of_range(self, toy_optimum):
        with pytest.raises(DesignError):
            mix_designs(toy_optimum, toy_optimum, 1.5)

    def test_dimension_mismatch(self, toy_optimum):
        other = Design(np.array([[0.0, 0.0]]), np.array([1.0]))
        with pytest.raises(DesignError):
            mix_designs(toy_optimum, other, 0.5)

    @given(
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_preserves_simplex(self, alpha, raw_a, raw_b):
        wa = np.array(raw_a) / np.sum(raw_a)
        wb = np.array(raw_b) / np.sum(raw_b)
        a = Design(np.arange(len(wa), dtype=float)[:, None], wa)
        b = Design((10.0 + np.arange(len(wb), dtype=float))[:, None], wb)
        mixed = mix_designs(a, b, alpha)
        assert np.all(mixed.weights >= 0)
        assert abs(mixed.weights.sum() - 1.0) <= 1e-12


class TestPruneDesign:
    def test_above_threshold_unchanged(self, toy_optimum):
        assert prune_design(toy_optimum, 1e-6).n_points == 2

    def test_drops_tiny_weight(self):
        d = Design(np.array([[0.0], [1.0]]), np.array([1e-9, 1.0 - 1e-9]))
        pruned = prune_design(d, 1e-6)
        assert pruned.n_points == 1 and pruned.points[0, 0] == 1.0
        assert pruned.weights[0] == 1.0

    def test_renormalizes_survivors(self):
        d = Design(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        pruned = prune_design(d, 0.5)
        assert pruned.n_points == 1 and pruned.weights[0] == 1.0

    def test_all_below_threshold_keeps_heaviest(self):
        d = Design(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        pruned = prune_design(d, 0.9)
        assert pruned.n_points == 1 and pruned.points[0, 0] == 1.0

    def test_invalid_threshold(self, toy_optimum):
        with pytest.raises(DesignError):
            prune_design(toy_optimum, 1.0)
