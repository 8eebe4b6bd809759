"""T-optimal experimental design for model discrimination.

Computes designs maximizing the best-fit weighted squared distance between a
fixed reference model and a parameterized alternative, via nested adaptive
discretization of design points and parameters, with a Vector Direction
Method baseline and equivalence-theorem verification.

The package exports the names the README documents; everything else is
imported from its module (``discrimopt.lsq``, ``discrimopt.models``, ...).
"""
from .core import Box, Design, Lattice, ModelEvaluationError, ModelPair, ParameterSpace, pointwise
from .algorithms import ALGORITHMS, AlgoParams, check_optimality, disc, solve, two_adapt_md, vdm
from .models import make_mm_pair

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgoParams",
    "Box",
    "Design",
    "Lattice",
    "ModelEvaluationError",
    "ModelPair",
    "ParameterSpace",
    "check_optimality",
    "disc",
    "make_mm_pair",
    "pointwise",
    "solve",
    "two_adapt_md",
    "vdm",
]
