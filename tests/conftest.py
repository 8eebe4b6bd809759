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


@pytest.fixture
def toy_pair():
    return linear_vs_constant()


@pytest.fixture
def toy_optimum():
    return Design(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
