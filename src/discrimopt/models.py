"""Built-in benchmark model pairs.

Michaelis-Menten vs. modified Michaelis-Menten (single response), and a
partially reversible vs. irreversible consecutive reaction modelled by a
small ODE system (three responses), plus a registry for selection by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelEvaluationError, ModelPair, ParameterSpace

__all__ = [
    "KineticsParams",
    "KineticsInput",
    "IntegratorTol",
    "mm_eval",
    "modmm_eval",
    "integrate_kinetics",
    "make_mm_pair",
    "make_kinetics_pair",
    "registry_lookup",
    "register_model",
    "registered_models",
]

_DIVISION_GUARD = 1e-15


def mm_eval(x: float, V: float, K: float) -> float:
    """Michaelis-Menten rate V*x / (K + x)."""
    denom = K + x
    if abs(denom) <= _DIVISION_GUARD:
        raise ModelEvaluationError(f"Michaelis-Menten denominator K + x = {denom} too small", x=x)
    return V * x / denom


def modmm_eval(x: float, V: float, K: float, F: float) -> float:
    """Modified Michaelis-Menten rate: V*x / (K + x) + F*x."""
    return mm_eval(x, V, K) + F * x


@dataclass(frozen=True)
class KineticsParams:
    """Rate constants and reaction orders of the consecutive-reaction system."""

    k1: float
    k2: float
    k3: float
    n1: float
    n2: float
    n3: float

    def __post_init__(self):
        vals = (self.k1, self.k2, self.k3, self.n1, self.n2, self.n3)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("kinetics parameters must be finite")
        if self.k1 < 0 or self.k2 < 0 or self.k3 < 0:
            raise ValueError("rate constants must be nonnegative")
        if self.n1 <= 0 or self.n2 <= 0 or self.n3 <= 0:
            raise ValueError("reaction orders must be positive")


@dataclass(frozen=True)
class KineticsInput:
    """Initial concentrations and the measurement time."""

    a0: float
    b0: float
    c0: float
    t: float

    def __post_init__(self):
        # A NaN or infinite time would make the integrator stop at once or never.
        if not all(math.isfinite(v) for v in (self.a0, self.b0, self.c0, self.t)):
            raise ValueError("initial concentrations and measurement time must be finite")
        if self.a0 < 0 or self.b0 < 0 or self.c0 < 0:
            raise ValueError("initial concentrations must be nonnegative")
        if self.t <= 0:
            raise ValueError("measurement time must be positive")


@dataclass(frozen=True)
class IntegratorTol:
    rel: float = 1e-8
    abs: float = 1e-10


_SQRT3 = 3**0.5


def _dopri5(rhs, t_end, y0, rtol, atol):
    """Integrate the autonomous three-state system y' = rhs(a, b, c) from 0 to t_end.

    The Dormand-Prince 5(4) pair (Dormand & Prince, 1980) on Python floats,
    with the step-size control of scipy's RK45 (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.4): the same initial step, RMS error norm, safety
    factor and step bounds, so it takes the same steps.  Values agree with
    scipy's to ~1e-15 relative, not bit for bit, because NumPy's dot products
    use fused multiply-adds.

    Returns ((a, b, c) at t_end, number of rhs evaluations).  Raises
    FloatingPointError when the step falls below 10 ulp(t); overflow in rhs
    raises OverflowError.
    """
    a, b, c = y0
    fa, fb, fc = rhs(a, b, c)
    nfev = 1

    # Initial step for an error estimator of order 4.
    sa, sb, sc = atol + abs(a) * rtol, atol + abs(b) * rtol, atol + abs(c) * rtol
    xa, xb, xc = a / sa, b / sb, c / sc
    d0 = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3
    xa, xb, xc = fa / sa, fb / sb, fc / sc
    d1 = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    ga, gb, gc = rhs(a + h0 * fa, b + h0 * fb, c + h0 * fc)
    nfev += 1
    if h0 == 0:
        # Only when d1 overflows.  NumPy makes d2 = 0/0 = NaN here, hence
        # h1 = 0 and a first step of the minimum step.
        h1 = 0.0
    else:
        xa, xb, xc = (ga - fa) / sa, (gb - fb) / sb, (gc - fc) / sc
        d2 = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3 / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_end)

    t = 0.0
    while t < t_end:
        min_step = 10 * math.ulp(t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # Written so that a NaN step also fails instead of looping.
            if not h_abs >= min_step:
                raise FloatingPointError(
                    f"required step size is less than spacing between numbers at t={t!r}"
                )
            t_new = t + h_abs
            if t_new > t_end:
                t_new = t_end
            h = t_new - t
            h_abs = h

            k2a, k2b, k2c = rhs(
                a + fa * (1 / 5) * h,
                b + fb * (1 / 5) * h,
                c + fc * (1 / 5) * h,
            )
            k3a, k3b, k3c = rhs(
                a + (fa * (3 / 40) + k2a * (9 / 40)) * h,
                b + (fb * (3 / 40) + k2b * (9 / 40)) * h,
                c + (fc * (3 / 40) + k2c * (9 / 40)) * h,
            )
            k4a, k4b, k4c = rhs(
                a + (fa * (44 / 45) + k2a * (-56 / 15) + k3a * (32 / 9)) * h,
                b + (fb * (44 / 45) + k2b * (-56 / 15) + k3b * (32 / 9)) * h,
                c + (fc * (44 / 45) + k2c * (-56 / 15) + k3c * (32 / 9)) * h,
            )
            k5a, k5b, k5c = rhs(
                a + (fa * (19372 / 6561) + k2a * (-25360 / 2187) + k3a * (64448 / 6561)
                     + k4a * (-212 / 729)) * h,
                b + (fb * (19372 / 6561) + k2b * (-25360 / 2187) + k3b * (64448 / 6561)
                     + k4b * (-212 / 729)) * h,
                c + (fc * (19372 / 6561) + k2c * (-25360 / 2187) + k3c * (64448 / 6561)
                     + k4c * (-212 / 729)) * h,
            )
            k6a, k6b, k6c = rhs(
                a + (fa * (9017 / 3168) + k2a * (-355 / 33) + k3a * (46732 / 5247)
                     + k4a * (49 / 176) + k5a * (-5103 / 18656)) * h,
                b + (fb * (9017 / 3168) + k2b * (-355 / 33) + k3b * (46732 / 5247)
                     + k4b * (49 / 176) + k5b * (-5103 / 18656)) * h,
                c + (fc * (9017 / 3168) + k2c * (-355 / 33) + k3c * (46732 / 5247)
                     + k4c * (49 / 176) + k5c * (-5103 / 18656)) * h,
            )
            ya = a + h * (fa * (35 / 384) + k3a * (500 / 1113) + k4a * (125 / 192)
                          + k5a * (-2187 / 6784) + k6a * (11 / 84))
            yb = b + h * (fb * (35 / 384) + k3b * (500 / 1113) + k4b * (125 / 192)
                          + k5b * (-2187 / 6784) + k6b * (11 / 84))
            yc = c + h * (fc * (35 / 384) + k3c * (500 / 1113) + k4c * (125 / 192)
                          + k5c * (-2187 / 6784) + k6c * (11 / 84))
            k7a, k7b, k7c = rhs(ya, yb, yc)
            nfev += 6

            xa = (fa * (-71 / 57600) + k3a * (71 / 16695) + k4a * (-71 / 1920)
                  + k5a * (17253 / 339200) + k6a * (-22 / 525) + k7a * (1 / 40)) * h / (
                atol + max(abs(a), abs(ya)) * rtol)
            xb = (fb * (-71 / 57600) + k3b * (71 / 16695) + k4b * (-71 / 1920)
                  + k5b * (17253 / 339200) + k6b * (-22 / 525) + k7b * (1 / 40)) * h / (
                atol + max(abs(b), abs(yb)) * rtol)
            xc = (fc * (-71 / 57600) + k3c * (71 / 16695) + k4c * (-71 / 1920)
                  + k5c * (17253 / 339200) + k6c * (-22 / 525) + k7c * (1 / 40)) * h / (
                atol + max(abs(c), abs(yc)) * rtol)
            error_norm = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3

            if error_norm < 1:
                factor = 10.0 if error_norm == 0 else min(10.0, 0.9 * error_norm**-0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm**-0.2)
            rejected = True

        t = t_new
        a, b, c = ya, yb, yc
        fa, fb, fc = k7a, k7b, k7c
    return (a, b, c), nfev


# benchmarks/instruments.py counts and times ODE solves by wrapping this name.
solve_ivp = _dopri5


def integrate_kinetics(
    params: KineticsParams, inp: KineticsInput, tol: IntegratorTol = IntegratorTol()
) -> np.ndarray:
    """Concentrations (a, b, c) at time t via an embedded Dormand-Prince pair.

    Power-law terms are evaluated sign-safe, max(c, 0)**n, because adaptive
    steps can transiently produce tiny negative concentrations with
    non-integer orders.  Every call integrates afresh; there is no cache.
    Arithmetic overflow, division by zero and a step size below 10 ulp(t)
    raise ModelEvaluationError carrying the design point.
    """
    k1, k2, k3 = params.k1, params.k2, params.k3
    n1, n2, n3 = params.n1, params.n2, params.n3

    def rhs(a, b, _c):
        a = max(a, 0.0)
        b = max(b, 0.0)
        r1 = k1 * a**n1
        r2 = k2 * b**n2
        r3 = k3 * b**n3
        return (-r1 + r3, r1 - r2 - r3, r2)

    try:
        y, _ = solve_ivp(rhs, inp.t, (inp.a0, inp.b0, inp.c0), tol.rel, tol.abs)
    except ArithmeticError as exc:
        raise ModelEvaluationError(
            f"kinetics integration failed at input {inp}: {exc}",
            x=np.array([inp.a0, inp.b0, inp.c0, inp.t]),
        ) from exc
    return np.array(y)


# Reference parameter defaults for the bundled benchmark pairs.
MM_DEFAULTS = {"V": 1.0, "K": 1.0, "F": 0.1}
MM_PARAMETER_SPACE = ParameterSpace([1e-3, 1e-3], [5.0, 5.0])

KINETICS_DEFAULTS = {"k1": 0.7, "k2": 0.2, "k3": 0.1, "n1": 2.0, "n2": 2.0, "n3": 1.0}
KINETICS_PARAMETER_SPACE = ParameterSpace([0.5, 0.05, 1.5, 1.5], [1.0, 0.5, 3.5, 3.0])


def make_mm_pair(
    V: float = 1.0,
    K: float = 1.0,
    F: float = 0.1,
    parameter_space: ParameterSpace | None = None,
) -> ModelPair:
    """Modified Michaelis-Menten reference vs. Michaelis-Menten alternative.

    The reference includes the alternative (F = 0), so the roles must be this
    way around for a nonzero criterion.
    """
    space = parameter_space or MM_PARAMETER_SPACE

    def reference(x):
        return np.array([modmm_eval(float(x[0]), V, K, F)])

    def alternative(x, theta):
        return np.array([mm_eval(float(x[0]), float(theta[0]), float(theta[1]))])

    return ModelPair(reference=reference, alternative=alternative, parameter_space=space, d_y=1)


def make_kinetics_pair(
    k1: float = 0.7,
    k2: float = 0.2,
    k3: float = 0.1,
    n1: float = 2.0,
    n2: float = 2.0,
    n3: float = 1.0,
    parameter_space: ParameterSpace | None = None,
    tol: IntegratorTol = IntegratorTol(),
) -> ModelPair:
    """Partially reversible reference vs. irreversible alternative (k3 = 0).

    Design points are (a0, b0, c0, t); responses are the three concentrations
    at the measurement time.  Alternative parameters are (k1, k2, n1, n2).
    """
    space = parameter_space or KINETICS_PARAMETER_SPACE
    ref_params = KineticsParams(k1, k2, k3, n1, n2, n3)

    def reference(x):
        inp = KineticsInput(float(x[0]), float(x[1]), float(x[2]), float(x[3]))
        return integrate_kinetics(ref_params, inp, tol)

    def alternative(x, theta):
        alt_params = KineticsParams(
            float(theta[0]), float(theta[1]), 0.0, float(theta[2]), float(theta[3]), 1.0
        )
        inp = KineticsInput(float(x[0]), float(x[1]), float(x[2]), float(x[3]))
        return integrate_kinetics(alt_params, inp, tol)

    return ModelPair(reference=reference, alternative=alternative, parameter_space=space, d_y=3)


def _build_mm(params: dict) -> ModelPair:
    merged = {**MM_DEFAULTS, **params}
    unknown = set(merged) - {"V", "K", "F", "parameter_space"}
    if unknown:
        raise KeyError(f"unknown mm_vs_modmm parameters: {sorted(unknown)}")
    return make_mm_pair(
        V=float(merged["V"]),
        K=float(merged["K"]),
        F=float(merged["F"]),
        parameter_space=merged.get("parameter_space"),
    )


def _build_kinetics(params: dict) -> ModelPair:
    merged = {**KINETICS_DEFAULTS, **params}
    unknown = set(merged) - {"k1", "k2", "k3", "n1", "n2", "n3", "parameter_space", "tol"}
    if unknown:
        raise KeyError(f"unknown kinetics_rev_vs_irrev parameters: {sorted(unknown)}")
    return make_kinetics_pair(
        k1=float(merged["k1"]),
        k2=float(merged["k2"]),
        k3=float(merged["k3"]),
        n1=float(merged["n1"]),
        n2=float(merged["n2"]),
        n3=float(merged["n3"]),
        parameter_space=merged.get("parameter_space"),
        tol=merged.get("tol", IntegratorTol()),
    )


_REGISTRY = {
    "mm_vs_modmm": _build_mm,
    "kinetics_rev_vs_irrev": _build_kinetics,
}


def register_model(name: str, builder) -> None:
    """Register a user model builder: params dict -> ModelPair."""
    _REGISTRY[name] = builder


def registered_models() -> list[str]:
    return sorted(_REGISTRY)


def registry_lookup(name: str, params: dict | None = None) -> ModelPair:
    """Construct a registered model pair by name."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; registered: {registered_models()}"
        ) from None
    return builder(dict(params or {}))
