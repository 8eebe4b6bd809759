import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from discrimopt import Lattice
from discrimopt.core import squared_distance
from discrimopt.lp import WeightLpInstance, solve_weight_lp
from discrimopt.models import make_kinetics_pair


def brute_force_maximin(phi, resolution=1e-3):
    """Maximin value over a weight simplex grid (small instances only)."""
    n = phi.shape[0]
    steps = int(round(1 / resolution))
    best = -np.inf
    for combo in itertools.combinations_with_replacement(range(n), steps):
        w = np.bincount(combo, minlength=n) / steps
        best = max(best, np.min(w @ phi))
    return best


class TestWeightLpInstance:
    def test_dimensions(self):
        inst = WeightLpInstance(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert inst.n_points == 3 and inst.phi.shape == (3, 2)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            WeightLpInstance(np.array([[1.0], [-0.5]]))

    def test_copies_the_callers_array(self):
        phi = np.array([[1.0, 2.0], [3.0, 4.0]])
        inst = WeightLpInstance(phi)
        assert phi.flags.writeable and not inst.phi.flags.writeable
        phi[0, 0] = 9.0
        assert inst.phi[0, 0] == 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeightLpInstance(np.array([[np.inf], [1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightLpInstance(np.empty((0, 0)))


class TestSolveWeightLp:
    def test_single_constraint_all_weight_on_max(self):
        sol = solve_weight_lp(WeightLpInstance(np.array([[1.0], [4.0], [2.0]])))
        assert sol is not None
        assert sol.weights == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)
        assert sol.t == pytest.approx(4.0, abs=1e-9)

    def test_single_point_takes_min_column(self):
        sol = solve_weight_lp(WeightLpInstance(np.array([[3.0, 1.0, 2.0]])))
        assert sol.weights == pytest.approx([1.0], abs=1e-12)
        assert sol.t == pytest.approx(1.0, abs=1e-9)

    def test_identity_splits_evenly(self):
        sol = solve_weight_lp(WeightLpInstance(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert sol.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        assert sol.t == pytest.approx(0.5, abs=1e-9)

    def test_identity_matches_brute_force(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        sol = solve_weight_lp(WeightLpInstance(phi))
        assert sol.t == pytest.approx(brute_force_maximin(phi, 1e-2), abs=1e-2)

    def test_duplicate_columns_ignored(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        phi_dup = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        a = solve_weight_lp(WeightLpInstance(phi))
        b = solve_weight_lp(WeightLpInstance(phi_dup))
        assert a.t == pytest.approx(b.t, abs=1e-12)

    def test_kinetics_instance_failing_the_dual_simplex(self):
        # The fourth weight LP of DISC on the kinetics lattice: 135 x 4, on
        # which the HiGHS dual simplex reports failure at these tolerances.
        pair = make_kinetics_pair()
        lattice = Lattice(
            ([0.5, 0.7, 0.9], [0.1, 0.2, 0.3], [0.0, 0.15, 0.3], [2.0, 4.0, 6.0, 8.0, 10.0])
        )
        thetas = [
            (1.0, 0.29439922473408364, 3.122180356107001, 2.546299219882528),
            (1.0, 0.1881401142639104, 2.6289625901264166, 1.9503132658916882),
            (1.0, 0.5, 2.9900491110863094, 2.594042988364661),
            (1.0, 0.16929162367934245, 2.9259695407758515, 1.811329844399902),
        ]
        points = np.array(list(lattice.enumerate()))
        phi = np.column_stack([squared_distance(pair, points, th) for th in thetas])
        sol = solve_weight_lp(WeightLpInstance(phi))
        assert phi.shape == (135, 4)
        assert sol is not None
        assert sol.t == pytest.approx(np.min(sol.weights @ phi), rel=1e-8)

    def test_degenerate_instance_failing_both_tight_attempts(self):
        # A weight LP of 2ADAPT on the toy pair x vs theta started from
        # theta_0 = 0.9 (inner iteration 2, after 26 cuts): 3 x 26 with
        # near-duplicate columns, on which the dual simplex and the interior
        # point method both fail at tolerances 1e-10; HiGHS's defaults solve it.
        x = np.array([0.5, 0.0, 1.0])
        thetas = np.array([float.fromhex(h) for h in (
            "0x1.ccccccccccccdp-1", "0x1.ffffffff8c766p-2", "0x1.ffffffff8c766p-2", "0x1.0000000000000p-1",
            "0x1.59445d9b95c5fp-28", "0x1.0000002b6953ep-2", "0x1.000000d4af018p-3", "0x1.800000b363bbcp-3",
            "0x1.c00000a0101f3p-3", "0x1.e000007ec2098p-3", "0x1.f00000724b5f8p-3", "0x1.f800006a5a45ep-3",
            "0x1.fc000065e2cf7p-3", "0x1.fe000056bfd48p-3", "0x1.ff000059bba42p-3", "0x1.ff80005b714abp-3",
            "0x1.ffc0004fc9e4cp-3", "0x1.ffe0004ed0321p-3", "0x1.fff00056c4447p-3", "0x1.fff80052f06d0p-3",
            "0x1.fffc005dd0498p-3", "0x1.fffe005654f21p-3", "0x1.ffff005b55d2dp-3", "0x1.ffff8058e0965p-3",
            "0x1.ffff805aaf4fcp-3", "0x1.66666631b4c7ep-1",
        )])
        phi = (x[:, None] - thetas[None, :]) ** 2
        sol = solve_weight_lp(WeightLpInstance(phi))
        assert phi.shape == (3, 26)
        assert sol is not None
        assert np.all(sol.weights >= 0) and sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.t == pytest.approx(np.min(sol.weights @ phi), rel=1e-8)
        assert sol.t == pytest.approx(brute_force_maximin(phi, 1e-2), abs=1e-2)

    def test_solution_invariants(self):
        phi = np.array([[0.3, 1.2, 0.1], [0.9, 0.2, 0.5], [0.4, 0.4, 0.4]])
        sol = solve_weight_lp(WeightLpInstance(phi))
        assert np.all(sol.weights >= 0)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert sol.t == pytest.approx(np.min(sol.weights @ phi), abs=1e-9)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
            elements=st.floats(0.0, 10.0),
        ),
        hnp.arrays(np.float64, st.integers(1, 5), elements=st.floats(0.0, 10.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_appending_column_never_raises_t(self, phi, extra):
        if extra.shape[0] != phi.shape[0]:
            extra = np.resize(extra, phi.shape[0])
        base = solve_weight_lp(WeightLpInstance(phi))
        grown = solve_weight_lp(
            WeightLpInstance(np.column_stack([phi, extra]))
        )
        assert grown.t <= base.t + 1e-9

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
            elements=st.floats(0.01, 10.0),
        ),
        st.floats(0.1, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, phi, c):
        base = solve_weight_lp(WeightLpInstance(phi))
        scaled = solve_weight_lp(WeightLpInstance(c * phi))
        assert scaled.t == pytest.approx(c * base.t, rel=1e-7, abs=1e-9)
        # The scaled solver's weights must achieve the scaled value.
        assert np.min(scaled.weights @ (c * phi)) == pytest.approx(
            scaled.t, rel=1e-7, abs=1e-9
        )
