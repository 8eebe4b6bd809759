"""A closed-form oracle for the whole solver: a degree-n polynomial against a degree-(n-1) one.

The reference is f1(x) = sum_k beta_k x**k with beta = (0.5, 1.0, ..., (n+1)/2),
and the alternative a polynomial of degree n - 1 with its n coefficients in
[-10, 10]^n.  On [-1, 1] the T-optimal design is supported on the Chebyshev
points cos(j pi / n), j = 0..n, with weights 1/(2n) at the two ends and 1/n
inside, and T* = beta_n**2 * 4**(1 - n) (Atkinson & Fedorov, Biometrika 62,
1975; Dette, Melas & Shpilev, Ann. Statist. 40, 2012).  The lower level is
linear least squares, so T* is exact and owes nothing to the package's
multistart, search or certificate code.
"""
import numpy as np
import pytest

from discrimopt import Box, Design, ModelPair, ParameterSpace, check_optimality, two_adapt_md
from discrimopt.lsq import fit_parameters

SPACE = Box([-1.0], [1.0])


def polynomial_pair(n: int) -> ModelPair:
    beta = np.arange(1, n + 2) / 2  # beta[k] multiplies x**k

    def alternative_jac(X, theta):
        powers = X[:, :1] ** np.arange(n)  # (m, n): 1, x, ..., x**(n-1)
        return powers @ theta[:, None], powers[:, None, :]

    return ModelPair(
        reference=lambda X: np.polynomial.polynomial.polyval(X[:, :1], beta),
        alternative=lambda X, theta: alternative_jac(X, theta)[0],
        parameter_space=ParameterSpace(np.full(n, -10.0), np.full(n, 10.0)),
        alternative_jac=alternative_jac,
    )


def closed_form(n: int) -> tuple[Design, float]:
    """The T-optimal design, its points in increasing order, and T*."""
    weights = np.full(n + 1, 1.0 / n)
    weights[[0, -1]] = 1.0 / (2 * n)
    beta_n = (n + 1) / 2
    return Design(-np.cos(np.arange(n + 1) * np.pi / n)[:, None], weights), beta_n**2 * 4.0 ** (1 - n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_design_certifies(n):
    pair = polynomial_pair(n)
    design, t_star = closed_form(n)
    fit = fit_parameters(pair, design, lam=0.0)
    report = check_optimality(pair, design, fit.theta_hat, SPACE, phi=fit.phi)
    assert report.max_psi <= 1e-10
    assert fit.objective == pytest.approx(t_star, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_two_adapt_reaches_the_closed_form_design(n):
    pair = polynomial_pair(n)
    initial = Design(np.linspace(-0.9, 0.9, n + 2)[:, None], np.full(n + 2, 1.0 / (n + 2)))
    result = two_adapt_md(pair, SPACE, initial)
    optimum, t_star = closed_form(n)
    assert result.converged
    assert abs(result.t_value - t_star) <= 1e-7 * t_star
    order = np.argsort(result.design.points[:, 0])
    assert result.design.n_points == n + 1
    assert np.abs(result.design.points[order] - optimum.points).max() <= 1e-4
    assert np.abs(result.design.weights[order] - optimum.weights).max() <= 1e-4
