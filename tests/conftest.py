import numpy as np
import pytest

from discrimopt import Design, ModelPair, ParameterSpace, pointwise


def linear_vs_constant() -> ModelPair:
    """f1(x) = x vs f2(x, theta) = theta on X = [0, 1], theta in [0, 1].

    Closed-form optimum: design {0: 1/2, 1: 1/2}, theta_hat = 1/2, T = 1/4.
    """
    return ModelPair(
        reference=pointwise(lambda x: np.array([x[0]])),
        alternative=pointwise(lambda x, theta: np.array([theta[0]])),
        parameter_space=ParameterSpace([0.0], [1.0]),
        d_y=1,
    )


def two_basins() -> ModelPair:
    """f1(x) = x vs f2(x, theta) = c(theta) on X = [0, 1], theta in [0, 1], with two basins.

    c(theta) = 0.1 + 12 (theta^3/3 - 0.35 theta^2 + 0.1 theta) rises to a local
    maximum c(0.2) = 0.204, dips to c(0.5) = 0.15 and rises to c(1) = 1.1.  A
    fit that starts at theta = 0.2 stays on that local maximum, the worse
    basin whenever the weighted mean of x exceeds 0.204.  The optimum is that
    of :func:`linear_vs_constant`: {0: 1/2, 1: 1/2} with c(theta_hat) = 1/2, T = 1/4.
    """

    def c(x, theta):
        t = theta[0]
        return np.array([0.1 + 12 * (t**3 / 3 - 0.35 * t**2 + 0.1 * t)])

    return ModelPair(
        reference=pointwise(lambda x: np.array([x[0]])),
        alternative=pointwise(c),
        parameter_space=ParameterSpace([0.0], [1.0]),
        d_y=1,
    )


@pytest.fixture
def toy_pair():
    return linear_vs_constant()


@pytest.fixture
def toy_optimum():
    return Design(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
