"""T-optimal experimental design for model discrimination.

Computes designs maximizing the best-fit weighted squared distance between a
fixed reference model and a parameterized alternative, via nested adaptive
discretization of design points and parameters, with a Vector Direction
Method baseline and equivalence-theorem verification.
"""
from .core import (
    Box,
    Design,
    DesignError,
    Lattice,
    ModelEvaluationError,
    ModelPair,
    ParameterSpace,
    canonical_key,
    directional_derivative,
    mix_designs,
    prune_design,
    squared_distance,
    t_value,
)
from .lsq import FitConfig, FitError, FitResult, fit_parameters, sobol_points
from .lp import WeightLpInstance, WeightLpSolution, solve_weight_lp
from .search import GlobalSearchConfig, maximize_distance
from .algorithms import (
    ALGORITHMS,
    AlgoParams,
    IterationRecord,
    OptimalityReport,
    SolveResult,
    SolverError,
    check_optimality,
    disc,
    disc_md,
    solve,
    two_adapt_md,
    vdm,
)
from .models import (
    IntegratorTol,
    KineticsInput,
    KineticsParams,
    integrate_kinetics,
    make_kinetics_pair,
    make_mm_pair,
    mm_eval,
    modmm_eval,
    register_model,
    registered_models,
    registry_lookup,
)
from .config import ConfigError, ProblemConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgoParams",
    "Box",
    "ConfigError",
    "Design",
    "DesignError",
    "FitConfig",
    "FitError",
    "FitResult",
    "GlobalSearchConfig",
    "IntegratorTol",
    "IterationRecord",
    "KineticsInput",
    "KineticsParams",
    "Lattice",
    "ModelEvaluationError",
    "ModelPair",
    "OptimalityReport",
    "ParameterSpace",
    "ProblemConfig",
    "SolveResult",
    "SolverError",
    "WeightLpInstance",
    "WeightLpSolution",
    "canonical_key",
    "check_optimality",
    "directional_derivative",
    "disc",
    "disc_md",
    "fit_parameters",
    "integrate_kinetics",
    "load_config",
    "make_kinetics_pair",
    "make_mm_pair",
    "maximize_distance",
    "mix_designs",
    "mm_eval",
    "modmm_eval",
    "prune_design",
    "register_model",
    "registered_models",
    "registry_lookup",
    "sobol_points",
    "solve",
    "solve_weight_lp",
    "squared_distance",
    "t_value",
    "two_adapt_md",
    "vdm",
    "__version__",
]
