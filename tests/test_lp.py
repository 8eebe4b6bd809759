import itertools
import logging
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_util import _check_result

from discrimopt.lp import WeightLpInstance, WeightLpSolution, _accepted, solve_weight_lp


def linprog_weight_lp(instance):
    """The weight LP through ``scipy.optimize.linprog``: the reference that
    ``solve_weight_lp`` matches bit for bit (same dedupe, scaling, attempts
    and weight clean-up)."""
    phi = np.unique(instance.phi, axis=1)
    n, m = phi.shape
    peak = float(phi.max())
    scale = 2.0**20 / peak if peak > 1e-16 else 1.0
    phi = scale * phi
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-phi.T, np.ones((m, 1))])
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = [(0.0, None)] * n + [(None, None)]
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    for method, options in (("highs", tight), ("highs-ipm", tight), ("highs", {})):
        res = linprog(
            c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0], bounds=bounds,
            method=method, options=options,
        )
        if res.success and res.x is not None:
            w = np.clip(res.x[:n], 0.0, None)
            return WeightLpSolution(weights=w / w.sum(), t=float(res.x[-1]) / scale)
    return None


def bits(sol):
    """A solution as bytes, so equal means equal bit for bit."""
    return None if sol is None else (sol.weights.tobytes(), np.float64(sol.t).tobytes())


def kinetics_phi():
    """The fourth weight LP of DISC on the kinetics lattice: 135 x 4, on which
    the HiGHS dual simplex reports failure at tolerances 1e-10.

    Stored as the 9-state sensitivity kernel computed it (commit 9657464),
    for the cut parameters (1.0, 0.29439922473408364, 3.122180356107001,
    2.546299219882528), (1.0, 0.1881401142639104, 2.6289625901264166,
    1.9503132658916882), (1.0, 0.5, 2.9900491110863094, 2.594042988364661)
    and (1.0, 0.16929162367934245, 2.9259695407758515, 1.811329844399902).
    The closed-form-a kernel moves these values by ~1e-9, and on its matrix
    the dual simplex succeeds.
    """
    with open(Path(__file__).parent / "data" / "kinetics-disc-lp4.txt") as fh:
        return np.array([[float.fromhex(v) for v in line.split()] for line in fh])


def degenerate_phi():
    """A weight LP of 2ADAPT on the toy pair x vs theta started from
    theta_0 = 0.9 (inner iteration 2, after 26 cuts): 3 x 26 with
    near-duplicate columns, on which the dual simplex and the interior point
    method both fail at tolerances 1e-10; HiGHS's defaults solve it."""
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
    return (x[:, None] - thetas[None, :]) ** 2


INVARIANTS_PHI = np.array([[0.3, 1.2, 0.1], [0.9, 0.2, 0.5], [0.4, 0.4, 0.4]])
# Every instance this file solves, by name.
FIXED = {
    "column": lambda: np.array([[1.0], [4.0], [2.0]]),
    "row": lambda: np.array([[3.0, 1.0, 2.0]]),
    "identity": lambda: np.array([[1.0, 0.0], [0.0, 1.0]]),
    "identity-duplicate": lambda: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
    "invariants": lambda: INVARIANTS_PHI,
    "kinetics-135x4": kinetics_phi,
    "degenerate-3x26": degenerate_phi,
}


@st.composite
def weight_lps(draw):
    """phi with zero entries, repeated columns and peaks down to 1e-19."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    base = draw(hnp.arrays(np.float64, (n, m), elements=st.one_of(st.just(0.0), st.floats(0.0, 10.0))))
    cols = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
    return draw(st.sampled_from([1e-20, 1e-17, 1e-9, 1.0, 1e6])) * base[:, cols]


def solve_in_thread(*phis):
    """Solve each phi in order in a fresh thread, so on fresh HiGHS objects."""
    out = []
    thread = threading.Thread(target=lambda: out.extend(solve_weight_lp(WeightLpInstance(p)) for p in phis))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out


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

    def test_kinetics_instance_failing_the_dual_simplex(self, caplog):
        phi = kinetics_phi()
        with caplog.at_level(logging.INFO, logger="discrimopt"):
            sol = solve_weight_lp(WeightLpInstance(phi))
        assert phi.shape == (135, 4)
        assert sol is not None
        assert sol.t == pytest.approx(np.min(sol.weights @ phi), rel=1e-8)
        assert caplog.messages == [
            "weight LP (135 x 4) solved by attempt 2 (interior point method) "
            "after dual simplex (kUnknown)"
        ]

    def test_degenerate_instance_failing_both_tight_attempts(self, caplog):
        phi = degenerate_phi()
        with caplog.at_level(logging.INFO, logger="discrimopt"):
            sol = solve_weight_lp(WeightLpInstance(phi))
        assert phi.shape == (3, 26)
        assert sol is not None
        assert np.all(sol.weights >= 0) and sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.t == pytest.approx(np.min(sol.weights @ phi), rel=1e-8)
        assert sol.t == pytest.approx(brute_force_maximin(phi, 1e-2), abs=1e-2)
        assert caplog.messages == [
            "weight LP (3 x 26) solved by attempt 3 (dual simplex at default tolerances) "
            "after dual simplex (kUnknown), interior point method (kUnknown)"
        ]

    def test_first_attempt_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="discrimopt"):
            assert solve_weight_lp(WeightLpInstance(INVARIANTS_PHI)) is not None
        assert caplog.messages == []

    def test_solution_invariants(self):
        phi = INVARIANTS_PHI
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


class TestSameAsLinprog:
    """solve_weight_lp gives linprog's answer bit for bit."""

    @pytest.mark.parametrize("name", FIXED)
    def test_fixed_instances(self, name):
        inst = WeightLpInstance(FIXED[name]())
        assert bits(solve_weight_lp(inst)) == bits(linprog_weight_lp(inst))

    @given(weight_lps())
    @settings(max_examples=100, deadline=None)
    def test_generated_instances(self, phi):
        inst = WeightLpInstance(phi)
        assert bits(solve_weight_lp(inst)) == bits(linprog_weight_lp(inst))


class TestPerThreadSolvers:
    @pytest.mark.parametrize("name", ["invariants", "kinetics-135x4"])
    def test_solvers_left_failed_do_not_change_the_next_answer(self, name):
        # The 3 x 26 instance leaves the first two solvers at kUnknown.
        phi = FIXED[name]()
        (first,) = solve_in_thread(phi)
        after_failures = solve_in_thread(degenerate_phi(), phi)[1]
        assert bits(after_failures) == bits(first)

    def test_threads_solving_at_once_get_the_sequential_bits(self):
        phis = [FIXED[name]() for name in FIXED]
        expected = [bits(solve_weight_lp(WeightLpInstance(p))) for p in phis]
        got = {}

        def solve_all(k):
            # Each thread starts at its own instance, so different LPs run at once.
            got[k] = [bits(solve_weight_lp(WeightLpInstance(phis[(k + i) % len(phis)])))
                      for i in range(3 * len(phis))]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve_all, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(4):
            assert got[k] == [expected[(k + i) % len(phis)] for i in range(3 * len(phis))]


class TestAcceptance:
    """An optimal status is accepted exactly when linprog's check passes it.

    No instance found reaches the check with an optimal status it rejects,
    so a stand-in for HiGHS reports the solutions below as optimal.
    """

    @pytest.mark.parametrize("x, row, fun", [
        pytest.param([0.5, 0.5, 1.0], [0.0, -0.1, 1.0], -1.0, id="feasible"),
        pytest.param([-1e-4, 1.0001, 1.0], [0.0, 0.0, 1.0], -1.0, id="weight-within-tolerance"),
        pytest.param([-1e-3, 1.001, 1.0], [0.0, 0.0, 1.0], -1.0, id="negative-weight"),
        pytest.param([0.5, 0.5, 1.0], [2e-4, 0.0, 1.0], -1.0, id="cut-within-tolerance"),
        pytest.param([0.5, 0.5, 1.0], [1e-3, 0.0, 1.0], -1.0, id="violated-cut"),
        pytest.param([0.5, 0.5, 1.0], [0.0, 0.0, 1.001], -1.0, id="weight-sum-off"),
        pytest.param([np.nan, 0.5, 1.0], [0.0, 0.0, 1.0], -1.0, id="nan-weight"),
        pytest.param([0.5, 0.5, 1.0], [0.0, np.nan, 1.0], -1.0, id="nan-row"),
        pytest.param([0.5, 0.5, 1.0], [0.0, 0.0, 1.0], np.nan, id="nan-objective"),
    ])
    def test_matches_linprogs_check(self, x, row, fun):
        highs = SimpleNamespace(
            getModelStatus=lambda: HighsModelStatus.kOptimal,
            getSolution=lambda: SimpleNamespace(col_value=x, row_value=row),
            getInfo=lambda: SimpleNamespace(objective_function_value=fun),
        )
        bounds = np.array([[0.0, np.inf], [0.0, np.inf], [-np.inf, np.inf]])
        slack, con = -np.array(row[:-1]), 1.0 - np.array(row[-1:])
        status, _ = _check_result(np.array(x), fun, 0, slack, con, bounds, 1e-9, "", None)
        assert (_accepted(highs) is not None) == (status == 0)
