"""Built-in benchmark model pairs.

Michaelis-Menten vs. modified Michaelis-Menten (single response), and a
partially reversible vs. irreversible consecutive reaction modelled by a
small ODE system (three responses), plus a registry for selection by name.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Box, DesignError, ModelEvaluationError, ModelPair

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


def mm_eval(x, V, K):
    """Michaelis-Menten rate V*x / (K + x), elementwise for an array x."""
    denom = K + x
    if (np.abs(denom) <= _DIVISION_GUARD).any():
        raise ModelEvaluationError(f"Michaelis-Menten denominator K + x = {denom} too small", x=x)
    return V * x / denom


def modmm_eval(x, V, K, F):
    """Modified Michaelis-Menten rate: V*x / (K + x) + F*x, elementwise for an array x."""
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


def _initial_step(rhs, t_end, a, b, c, fa, fb, fc, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 4.

    ``rhs`` maps the three states to their derivatives and is called once.
    Returns the step and whether clipping to ``t_end`` changed it.
    """
    sa, sb, sc = atol + abs(a) * rtol, atol + abs(b) * rtol, atol + abs(c) * rtol
    xa, xb, xc = a / sa, b / sb, c / sc
    d0 = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3
    xa, xb, xc = fa / sa, fb / sb, fc / sc
    d1 = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    bound = h0 > t_end
    h0 = min(h0, t_end)
    ga, gb, gc = rhs(a + h0 * fa, b + h0 * fb, c + h0 * fc)
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
    h = min(100 * h0, h1)
    return min(h, t_end), bound or h > t_end


# In the step loops and right-hand sides below, `q if q > p else p` is
# max(p, q) and `q if q < p else p` is min(p, q): the same values, NaN and
# -0.0 included, without the cost of a builtin call.


def _dopri5(rhs, times, y0, rtol, atol, out=None):
    """Integrate the autonomous three-state system y' = rhs(a, b, c) from 0 to each time.

    The Dormand-Prince 5(4) pair (Dormand & Prince, 1980) on Python floats,
    with the step-size control of scipy's RK45 (Hairer, Norsett & Wanner,
    *Solving ODEs I*, II.4): the same initial step, RMS error norm, safety
    factor and step bounds, so it takes the same steps.  Values agree with
    scipy's to ~1e-15 relative, not bit for bit, because NumPy's dot products
    use fused multiply-adds.

    ``times`` is one end time, or a sorted tuple of distinct end times
    integrated in one pass.  Where a step would pass the next time, the pass
    saves its state, finishes that time as a solve to it alone would (a
    clipped step and the same controller, rejections included), and resumes
    from the saved state; a time whose initial step is clipped is solved
    alone.  So every value equals that of a solve to its time alone, bit for
    bit.

    With one end time, returns ((a, b, c) at it, number of rhs evaluations).
    With a tuple, appends (a, b, c) per time to ``out``, so that after a
    failure ``len(out)`` indexes the failing time, and returns the number of
    rhs evaluations.  Raises FloatingPointError when the step falls below
    10 ulp(t); overflow in rhs raises OverflowError.
    """
    if out is None:
        out = []
        nfev = _dopri5(rhs, (times,), y0, rtol, atol, out)
        return out[0], nfev
    a, b, c = y0
    fa, fb, fc = rhs(a, b, c)
    h_abs, bound = _initial_step(rhs, times[0], a, b, c, fa, fb, fc, rtol, atol)
    nfev = 2
    if bound and len(times) > 1:
        return (nfev + _dopri5(rhs, times[:1], y0, rtol, atol, out)
                + _dopri5(rhs, times[1:], y0, rtol, atol, out))

    t = 0.0
    saved = None
    for t_end in times:
        while t < t_end:
            min_step = 10 * math.ulp(t)
            if h_abs < min_step:
                h_abs = min_step
            if saved is None and t + h_abs > t_end:
                saved = t, a, b, c, fa, fb, fc, h_abs
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

                pa, qa = abs(a), abs(ya)
                pb, qb = abs(b), abs(yb)
                pc, qc = abs(c), abs(yc)
                xa = (fa * (-71 / 57600) + k3a * (71 / 16695) + k4a * (-71 / 1920)
                      + k5a * (17253 / 339200) + k6a * (-22 / 525) + k7a * (1 / 40)) * h / (
                    atol + (qa if qa > pa else pa) * rtol)
                xb = (fb * (-71 / 57600) + k3b * (71 / 16695) + k4b * (-71 / 1920)
                      + k5b * (17253 / 339200) + k6b * (-22 / 525) + k7b * (1 / 40)) * h / (
                    atol + (qb if qb > pb else pb) * rtol)
                xc = (fc * (-71 / 57600) + k3c * (71 / 16695) + k4c * (-71 / 1920)
                      + k5c * (17253 / 339200) + k6c * (-22 / 525) + k7c * (1 / 40)) * h / (
                    atol + (qc if qc > pc else pc) * rtol)
                error_norm = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3

                if error_norm < 1:
                    if error_norm == 0:
                        factor = 10.0
                    else:
                        factor = 0.9 * error_norm**-0.2
                        factor = factor if factor < 10.0 else 10.0
                    if rejected:
                        factor = factor if factor < 1.0 else 1.0
                    h_abs *= factor
                    break
                factor = 0.9 * error_norm**-0.2
                h_abs *= factor if factor > 0.2 else 0.2
                rejected = True

            t = t_new
            a, b, c = ya, yb, yc
            fa, fb, fc = k7a, k7b, k7c
        out.append((a, b, c))
        if saved is not None:
            t, a, b, c, fa, fb, fc, h_abs = saved
            saved = None
    return nfev


def _dopri5_sens(rhs, times, y0, rtol, atol, out):
    """``_dopri5`` with six sensitivity states integrated beside the three states.

    ``rhs(a, b, c, s1, ..., s6)`` returns the nine derivatives; the six
    sensitivities start at zero.  Error control and step selection use the
    three states only (CVODES with ``errconS`` off; Hindmarsh et al.,
    *SUNDIALS*, ACM TOMS 2005), and the state lines repeat ``_dopri5``'s
    arithmetic, so the steps and the states are those of ``_dopri5`` with
    the same state derivatives, bit for bit.

    Integrates to a sorted tuple of ``times`` in one pass, as ``_dopri5``
    does, and appends ((a, b, c), (s1, ..., s6)) per time to ``out``.
    Raises as ``_dopri5``.
    """
    a, b, c = y0
    s1 = s2 = s3 = s4 = s5 = s6 = 0.0
    fa, fb, fc, g1, g2, g3, g4, g5, g6 = rhs(a, b, c, s1, s2, s3, s4, s5, s6)
    h_abs, bound = _initial_step(
        lambda a, b, c: rhs(a, b, c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)[:3],
        times[0], a, b, c, fa, fb, fc, rtol, atol,
    )
    if bound and len(times) > 1:
        _dopri5_sens(rhs, times[:1], y0, rtol, atol, out)
        _dopri5_sens(rhs, times[1:], y0, rtol, atol, out)
        return

    t = 0.0
    saved = None
    for t_end in times:
        while t < t_end:
            min_step = 10 * math.ulp(t)
            if h_abs < min_step:
                h_abs = min_step
            if saved is None and t + h_abs > t_end:
                saved = t, a, b, c, s1, s2, s3, s4, s5, s6, fa, fb, fc, g1, g2, g3, g4, g5, g6, h_abs
            rejected = False
            while True:
                if not h_abs >= min_step:
                    raise FloatingPointError(
                        f"required step size is less than spacing between numbers at t={t!r}"
                    )
                t_new = t + h_abs
                if t_new > t_end:
                    t_new = t_end
                h = t_new - t
                h_abs = h

                k2a, k2b, k2c, k21, k22, k23, k24, k25, k26 = rhs(
                    a + fa * (1 / 5) * h,
                    b + fb * (1 / 5) * h,
                    c + fc * (1 / 5) * h,
                    s1 + g1 * (1 / 5) * h,
                    s2 + g2 * (1 / 5) * h,
                    s3 + g3 * (1 / 5) * h,
                    s4 + g4 * (1 / 5) * h,
                    s5 + g5 * (1 / 5) * h,
                    s6 + g6 * (1 / 5) * h,
                )
                k3a, k3b, k3c, k31, k32, k33, k34, k35, k36 = rhs(
                    a + (fa * (3 / 40) + k2a * (9 / 40)) * h,
                    b + (fb * (3 / 40) + k2b * (9 / 40)) * h,
                    c + (fc * (3 / 40) + k2c * (9 / 40)) * h,
                    s1 + (g1 * (3 / 40) + k21 * (9 / 40)) * h,
                    s2 + (g2 * (3 / 40) + k22 * (9 / 40)) * h,
                    s3 + (g3 * (3 / 40) + k23 * (9 / 40)) * h,
                    s4 + (g4 * (3 / 40) + k24 * (9 / 40)) * h,
                    s5 + (g5 * (3 / 40) + k25 * (9 / 40)) * h,
                    s6 + (g6 * (3 / 40) + k26 * (9 / 40)) * h,
                )
                k4a, k4b, k4c, k41, k42, k43, k44, k45, k46 = rhs(
                    a + (fa * (44 / 45) + k2a * (-56 / 15) + k3a * (32 / 9)) * h,
                    b + (fb * (44 / 45) + k2b * (-56 / 15) + k3b * (32 / 9)) * h,
                    c + (fc * (44 / 45) + k2c * (-56 / 15) + k3c * (32 / 9)) * h,
                    s1 + (g1 * (44 / 45) + k21 * (-56 / 15) + k31 * (32 / 9)) * h,
                    s2 + (g2 * (44 / 45) + k22 * (-56 / 15) + k32 * (32 / 9)) * h,
                    s3 + (g3 * (44 / 45) + k23 * (-56 / 15) + k33 * (32 / 9)) * h,
                    s4 + (g4 * (44 / 45) + k24 * (-56 / 15) + k34 * (32 / 9)) * h,
                    s5 + (g5 * (44 / 45) + k25 * (-56 / 15) + k35 * (32 / 9)) * h,
                    s6 + (g6 * (44 / 45) + k26 * (-56 / 15) + k36 * (32 / 9)) * h,
                )
                k5a, k5b, k5c, k51, k52, k53, k54, k55, k56 = rhs(
                    a + (fa * (19372 / 6561) + k2a * (-25360 / 2187) + k3a * (64448 / 6561)
                         + k4a * (-212 / 729)) * h,
                    b + (fb * (19372 / 6561) + k2b * (-25360 / 2187) + k3b * (64448 / 6561)
                         + k4b * (-212 / 729)) * h,
                    c + (fc * (19372 / 6561) + k2c * (-25360 / 2187) + k3c * (64448 / 6561)
                         + k4c * (-212 / 729)) * h,
                    s1 + (g1 * (19372 / 6561) + k21 * (-25360 / 2187) + k31 * (64448 / 6561)
                          + k41 * (-212 / 729)) * h,
                    s2 + (g2 * (19372 / 6561) + k22 * (-25360 / 2187) + k32 * (64448 / 6561)
                          + k42 * (-212 / 729)) * h,
                    s3 + (g3 * (19372 / 6561) + k23 * (-25360 / 2187) + k33 * (64448 / 6561)
                          + k43 * (-212 / 729)) * h,
                    s4 + (g4 * (19372 / 6561) + k24 * (-25360 / 2187) + k34 * (64448 / 6561)
                          + k44 * (-212 / 729)) * h,
                    s5 + (g5 * (19372 / 6561) + k25 * (-25360 / 2187) + k35 * (64448 / 6561)
                          + k45 * (-212 / 729)) * h,
                    s6 + (g6 * (19372 / 6561) + k26 * (-25360 / 2187) + k36 * (64448 / 6561)
                          + k46 * (-212 / 729)) * h,
                )
                k6a, k6b, k6c, k61, k62, k63, k64, k65, k66 = rhs(
                    a + (fa * (9017 / 3168) + k2a * (-355 / 33) + k3a * (46732 / 5247)
                         + k4a * (49 / 176) + k5a * (-5103 / 18656)) * h,
                    b + (fb * (9017 / 3168) + k2b * (-355 / 33) + k3b * (46732 / 5247)
                         + k4b * (49 / 176) + k5b * (-5103 / 18656)) * h,
                    c + (fc * (9017 / 3168) + k2c * (-355 / 33) + k3c * (46732 / 5247)
                         + k4c * (49 / 176) + k5c * (-5103 / 18656)) * h,
                    s1 + (g1 * (9017 / 3168) + k21 * (-355 / 33) + k31 * (46732 / 5247)
                          + k41 * (49 / 176) + k51 * (-5103 / 18656)) * h,
                    s2 + (g2 * (9017 / 3168) + k22 * (-355 / 33) + k32 * (46732 / 5247)
                          + k42 * (49 / 176) + k52 * (-5103 / 18656)) * h,
                    s3 + (g3 * (9017 / 3168) + k23 * (-355 / 33) + k33 * (46732 / 5247)
                          + k43 * (49 / 176) + k53 * (-5103 / 18656)) * h,
                    s4 + (g4 * (9017 / 3168) + k24 * (-355 / 33) + k34 * (46732 / 5247)
                          + k44 * (49 / 176) + k54 * (-5103 / 18656)) * h,
                    s5 + (g5 * (9017 / 3168) + k25 * (-355 / 33) + k35 * (46732 / 5247)
                          + k45 * (49 / 176) + k55 * (-5103 / 18656)) * h,
                    s6 + (g6 * (9017 / 3168) + k26 * (-355 / 33) + k36 * (46732 / 5247)
                          + k46 * (49 / 176) + k56 * (-5103 / 18656)) * h,
                )
                ya = a + h * (fa * (35 / 384) + k3a * (500 / 1113) + k4a * (125 / 192)
                              + k5a * (-2187 / 6784) + k6a * (11 / 84))
                yb = b + h * (fb * (35 / 384) + k3b * (500 / 1113) + k4b * (125 / 192)
                              + k5b * (-2187 / 6784) + k6b * (11 / 84))
                yc = c + h * (fc * (35 / 384) + k3c * (500 / 1113) + k4c * (125 / 192)
                              + k5c * (-2187 / 6784) + k6c * (11 / 84))
                y1 = s1 + h * (g1 * (35 / 384) + k31 * (500 / 1113) + k41 * (125 / 192)
                               + k51 * (-2187 / 6784) + k61 * (11 / 84))
                y2 = s2 + h * (g2 * (35 / 384) + k32 * (500 / 1113) + k42 * (125 / 192)
                               + k52 * (-2187 / 6784) + k62 * (11 / 84))
                y3 = s3 + h * (g3 * (35 / 384) + k33 * (500 / 1113) + k43 * (125 / 192)
                               + k53 * (-2187 / 6784) + k63 * (11 / 84))
                y4 = s4 + h * (g4 * (35 / 384) + k34 * (500 / 1113) + k44 * (125 / 192)
                               + k54 * (-2187 / 6784) + k64 * (11 / 84))
                y5 = s5 + h * (g5 * (35 / 384) + k35 * (500 / 1113) + k45 * (125 / 192)
                               + k55 * (-2187 / 6784) + k65 * (11 / 84))
                y6 = s6 + h * (g6 * (35 / 384) + k36 * (500 / 1113) + k46 * (125 / 192)
                               + k56 * (-2187 / 6784) + k66 * (11 / 84))
                k7a, k7b, k7c, k71, k72, k73, k74, k75, k76 = rhs(
                    ya, yb, yc, y1, y2, y3, y4, y5, y6
                )

                pa, qa = abs(a), abs(ya)
                pb, qb = abs(b), abs(yb)
                pc, qc = abs(c), abs(yc)
                xa = (fa * (-71 / 57600) + k3a * (71 / 16695) + k4a * (-71 / 1920)
                      + k5a * (17253 / 339200) + k6a * (-22 / 525) + k7a * (1 / 40)) * h / (
                    atol + (qa if qa > pa else pa) * rtol)
                xb = (fb * (-71 / 57600) + k3b * (71 / 16695) + k4b * (-71 / 1920)
                      + k5b * (17253 / 339200) + k6b * (-22 / 525) + k7b * (1 / 40)) * h / (
                    atol + (qb if qb > pb else pb) * rtol)
                xc = (fc * (-71 / 57600) + k3c * (71 / 16695) + k4c * (-71 / 1920)
                      + k5c * (17253 / 339200) + k6c * (-22 / 525) + k7c * (1 / 40)) * h / (
                    atol + (qc if qc > pc else pc) * rtol)
                error_norm = math.sqrt(xa * xa + xb * xb + xc * xc) / _SQRT3

                if error_norm < 1:
                    if error_norm == 0:
                        factor = 10.0
                    else:
                        factor = 0.9 * error_norm**-0.2
                        factor = factor if factor < 10.0 else 10.0
                    if rejected:
                        factor = factor if factor < 1.0 else 1.0
                    h_abs *= factor
                    break
                factor = 0.9 * error_norm**-0.2
                h_abs *= factor if factor > 0.2 else 0.2
                rejected = True

            t = t_new
            a, b, c = ya, yb, yc
            s1, s2, s3, s4, s5, s6 = y1, y2, y3, y4, y5, y6
            fa, fb, fc = k7a, k7b, k7c
            g1, g2, g3, g4, g5, g6 = k71, k72, k73, k74, k75, k76
        out.append(((a, b, c), (s1, s2, s3, s4, s5, s6)))
        if saved is not None:
            t, a, b, c, s1, s2, s3, s4, s5, s6, fa, fb, fc, g1, g2, g3, g4, g5, g6, h_abs = saved
            saved = None


# benchmarks/instruments.py counts and times ODE solves by wrapping this name.
solve_ivp = _dopri5


def _kinetics_rhs(params: KineticsParams):
    """The right-hand side y' = rhs(a, b, c) of the reaction system, for ``_dopri5``."""
    k1, k2, k3 = params.k1, params.k2, params.k3
    n1, n2, n3 = params.n1, params.n2, params.n3

    def rhs(a, b, _c):
        a = 0.0 if a < 0.0 else a
        b = 0.0 if b < 0.0 else b
        r1 = k1 * a**n1
        r2 = k2 * b**n2
        r3 = k3 * b**n3
        return (-r1 + r3, r1 - r2 - r3, r2)

    return rhs


def _kinetics_sens_rhs(params: KineticsParams):
    """The states and their six sensitivities for ``_dopri5_sens``; irreversible system only."""
    if params.k3 != 0.0 or params.n3 != 1.0:
        raise ValueError("sensitivities need the irreversible system: k3 = 0 and n3 = 1")
    k1, k2, k3, n1, n2 = params.k1, params.k2, params.k3, params.n1, params.n2
    log = math.log

    def rhs(a, b, _c, a_k1, a_n1, b_k1, b_k2, b_n1, b_n2):
        a = 0.0 if a < 0.0 else a
        b = 0.0 if b < 0.0 else b
        pa = a**n1
        pb = b**n2
        r1 = k1 * pa
        r2 = k2 * pb
        r3 = k3 * b  # k3 * b**n3 with n3 = 1, as in _kinetics_rhs
        # r1_a = d r1 / d a, r1_n1 = d r1 / d n1, and likewise for r2.
        if a > 0.0:
            r1_a = n1 * r1 / a
            r1_n1 = r1 * log(a)
        else:
            r1_a = r1_n1 = 0.0
        if b > 0.0:
            r2_b = n2 * r2 / b
            r2_n2 = r2 * log(b)
        else:
            r2_b = r2_n2 = 0.0
        # Total derivatives of r1 along the trajectory, in k1 and in n1.
        d1_k1 = r1_a * a_k1 + pa
        d1_n1 = r1_a * a_n1 + r1_n1
        return (
            -r1 + r3,
            r1 - r2 - r3,
            r2,
            -d1_k1,
            -d1_n1,
            d1_k1 - r2_b * b_k1,
            -(r2_b * b_k2 + pb),
            d1_n1 - r2_b * b_n1,
            -(r2_b * b_n2 + r2_n2),
        )

    return rhs


def _integrate_rows(params: KineticsParams, X, tol: IntegratorTol, jac: bool = False):
    """Concentrations (n, 3) at the rows (a0, b0, c0, t) of X; with ``jac`` also
    their Jacobians (n, 3, 4) in (k1, k2, n1, n2) from ``_dopri5_sens``, irreversible
    system only; the power-law derivative terms of a clipped concentration are 0.

    Each row is validated as a KineticsInput.  Rows that share (a0, b0, c0)
    exactly are integrated in one kernel pass over their sorted distinct
    times, which gives every row the value of a solve to its own time, bit
    for bit.  A failure raises ModelEvaluationError carrying a failing row.
    """
    groups: dict[tuple, list] = {}
    for i, row in enumerate(X):
        inp = KineticsInput(*(float(v) for v in row))
        groups.setdefault((inp.a0, inp.b0, inp.c0), []).append((inp.t, i))
    rhs = _kinetics_sens_rhs(params) if jac else _kinetics_rhs(params)
    Y = np.empty((len(X), 3))
    S = np.empty((len(X), 2, 4))  # the rows of a and b in the Jacobian
    for y0, rows in groups.items():
        times = tuple(sorted({t for t, _ in rows}))
        out: list = []
        try:
            (_dopri5_sens if jac else solve_ivp)(rhs, times, y0, tol.rel, tol.abs, out)
        except ArithmeticError as exc:
            x = np.array([*y0, times[len(out)]])
            raise ModelEvaluationError(f"kinetics integration failed at x={x}: {exc}", x=x) from exc
        at = dict(zip(times, out))
        for t, i in rows:
            if jac:
                Y[i], (a_k1, a_n1, b_k1, b_k2, b_n1, b_n2) = at[t]
                S[i] = (a_k1, 0.0, a_n1, 0.0), (b_k1, b_k2, b_n1, b_n2)
            else:
                Y[i] = at[t]
    # d c = -(d a + d b), by conservation of a + b + c.
    return (Y, np.concatenate([S, -(S[:, :1] + S[:, 1:])], axis=1)) if jac else Y


def integrate_kinetics(
    params: KineticsParams, inp: KineticsInput, tol: IntegratorTol = IntegratorTol()
) -> np.ndarray:
    """Concentrations (a, b, c) at time t from the Dormand-Prince kernel ``_dopri5``.

    The power laws see max(a, 0) and max(b, 0), because adaptive steps can
    transiently produce tiny negative concentrations with non-integer
    orders.  Every call integrates afresh; there is no cache.  Arithmetic
    overflow, division by zero and a step size below 10 ulp(t) raise
    ModelEvaluationError carrying the design point.
    """
    return _integrate_rows(params, [(inp.a0, inp.b0, inp.c0, inp.t)], tol)[0]


# The alternative models' parameter boxes.
MM_PARAMETER_SPACE = Box([1e-3, 1e-3], [5.0, 5.0])
KINETICS_PARAMETER_SPACE = Box([0.5, 0.05, 1.5, 1.5], [1.0, 0.5, 3.5, 3.0])


def make_mm_pair(V: float = 1.0, K: float = 1.0, F: float = 0.1) -> ModelPair:
    """Modified Michaelis-Menten reference vs. Michaelis-Menten alternative.

    The reference includes the alternative (F = 0), so the roles must be this
    way around for a nonzero criterion.  The parameter box is
    ``MM_PARAMETER_SPACE``; :func:`registry_lookup` gives the pair another.
    """

    def alternative_jac(X, theta):
        x, V, K = X[:, :1], theta[0], theta[1]
        y = mm_eval(x, V, K)
        denom = K + x
        # df/dV = x / (K + x), df/dK = -V x / (K + x)**2
        return y, np.stack([x / denom, -y / denom], axis=2)

    return ModelPair(
        reference=lambda X: modmm_eval(X[:, :1], V, K, F),
        alternative=lambda X, theta: mm_eval(X[:, :1], theta[0], theta[1]),
        parameter_space=MM_PARAMETER_SPACE,
        d_y=1,
        alternative_jac=alternative_jac,
    )


def make_kinetics_pair(
    k1: float = 0.7,
    k2: float = 0.2,
    k3: float = 0.1,
    n1: float = 2.0,
    n2: float = 2.0,
    n3: float = 1.0,
) -> ModelPair:
    """Partially reversible reference vs. irreversible alternative (k3 = 0).

    Design points are (a0, b0, c0, t); responses are the three concentrations
    at the measurement time.  Alternative parameters are (k1, k2, n1, n2), in
    ``KINETICS_PARAMETER_SPACE``; :func:`registry_lookup` gives the pair
    another box.  Points that share an initial state are integrated in one
    kernel pass, at the tolerances of ``IntegratorTol()``.
    """
    ref_params = KineticsParams(k1, k2, k3, n1, n2, n3)
    tol = IntegratorTol()

    def alt_params(theta):
        return KineticsParams(
            float(theta[0]), float(theta[1]), 0.0, float(theta[2]), float(theta[3]), 1.0
        )

    return ModelPair(
        reference=lambda X: _integrate_rows(ref_params, X, tol),
        alternative=lambda X, theta: _integrate_rows(alt_params(theta), X, tol),
        parameter_space=KINETICS_PARAMETER_SPACE,
        d_y=3,
        alternative_jac=lambda X, theta: _integrate_rows(alt_params(theta), X, tol, jac=True),
    )


def _builder(name: str, make):
    """Registry builder: the reference parameters ``make`` takes, as floats; the others keep its defaults."""
    known = sorted(inspect.signature(make).parameters)

    def build(params: dict) -> ModelPair:
        unknown = set(params) - set(known)
        if unknown:
            raise KeyError(f"unknown {name} parameters: {sorted(unknown)}; known: {known}")
        return make(**{k: float(v) for k, v in params.items()})

    return build


_REGISTRY = {
    "mm_vs_modmm": _builder("mm_vs_modmm", make_mm_pair),
    "kinetics_rev_vs_irrev": _builder("kinetics_rev_vs_irrev", make_kinetics_pair),
}


def register_model(name: str, builder) -> None:
    """Register a user model builder: reference-parameter dict -> ModelPair."""
    _REGISTRY[name] = builder


def registered_models() -> list[str]:
    return sorted(_REGISTRY)


def registry_lookup(name: str, params: dict | None = None, parameter_space=None) -> ModelPair:
    """Construct a registered model pair by name from its reference parameters.

    ``parameter_space``, when given, replaces the pair's parameter box; a
    box of another dimension than the pair's own raises DesignError.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; registered: {registered_models()}"
        ) from None
    pair = builder(dict(params or {}))
    if parameter_space is None:
        return pair
    if parameter_space.dimension != pair.parameter_space.dimension:
        raise DesignError(
            f"parameter_space has dimension {parameter_space.dimension}, "
            f"but model {name!r} has {pair.parameter_space.dimension} parameters"
        )
    return replace(pair, parameter_space=parameter_space)
