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


def _initial_step(fun, t_end, y, f, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 4, from t = 0.

    ``fun(t, y)`` gives the derivatives of the states ``y``, whose
    derivatives at 0 are ``f``; it is called once.  Returns the step and
    whether clipping to ``t_end`` changed it.
    """
    scale = [atol + abs(v) * rtol for v in y]

    def norm(x):
        total = 0.0
        for v, sv in zip(x, scale):
            v /= sv
            total += v * v
        return math.sqrt(total) / len(x) ** 0.5

    d0, d1 = norm(y), norm(f)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    bound = h0 > t_end
    h0 = min(h0, t_end)
    g = fun(h0, [v + h0 * fv for v, fv in zip(y, f)])
    if h0 == 0:
        # Only when d1 overflows.  NumPy makes d2 = 0/0 = NaN here, hence
        # h1 = 0 and a first step of the minimum step.
        h1 = 0.0
    else:
        d2 = norm([gv - fv for gv, fv in zip(g, f)]) / h0
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
    h_abs, bound = _initial_step(lambda _, y: rhs(*y), times[0], y0, (fa, fb, fc), rtol, atol)
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


def _closed_form_a(params: KineticsParams, a0: float, jac: bool):
    """a of the irreversible system (k3 = 0) in closed form, as a function of t.

    a' = -k1 a**n1 is separable: a**(1 - n1) = a0**(1 - n1) + (n1 - 1) k1 t.
    With d = n1 - 1 and u = d k1 a0**d t, log(a0 / a) = log1p(u) / d, which
    keeps its digits for n1 near 1 and is k1 t at n1 = 1; for n1 < 1, a
    vanishes once u reaches -1, and a0 = 0 keeps a at 0.  The function
    returns (r1, dr1/dk1, dr1/dn1, a, da/dk1, da/dn1), r1 = k1 a**n1, with
    total derivatives; without ``jac`` the derivatives are 0.
    """
    k1, n1, d = params.k1, params.n1, params.n1 - 1.0
    if a0 == 0.0:
        return lambda t: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    a0d = a0**d
    w = d * k1 * a0d
    log_a0 = math.log(a0)
    log1p, exp = math.log1p, math.exp

    def at(t):
        u = w * t
        if u <= -1.0:
            return 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        lp = log1p(u)
        lg = lp / d if d else k1 * t  # log(a0 / a)
        a = a0 * exp(-lg)
        q = a0d / (1.0 + u)  # a**(n1 - 1)
        pa = a * q
        r1 = k1 * pa
        if not jac:
            return r1, 0.0, 0.0, a, 0.0, 0.0
        # sigma = d log(a) / d n1 = (log1p(u) - u / (1 + u)) / d**2 - z log(a0) / (1 + u)
        # with z = u / d; near u = 0 the first term is z**2 (1/2 - 2u/3 + 3u**2/4 - ...).
        z = k1 * a0d * t
        if -1e-3 < u < 1e-3:
            g = z * z * (0.5 - u * (2 / 3 - u * (3 / 4 - u * (4 / 5 - u * (5 / 6 - u * (6 / 7 - u * (7 / 8)))))))
        else:
            g = (lp - u / (1.0 + u)) / (d * d)
        sigma = g - z * log_a0 / (1.0 + u)
        return r1, pa - n1 * t * r1 * q, r1 * (log_a0 - lg + n1 * sigma), a, -t * pa, a * sigma

    return at


def _linear_step_weights(h, J1, J2, J3, J4, J5, J6):
    """(phi, w1, ..., w6) such that one Dormand-Prince step of s' = J_i s + g_i,
    with J_i and g_i given per stage, maps s to phi s + w1 g1 + ... + w6 g6.

    w_i is the derivative of the step's result in the stage derivative k_i,
    from one sweep back over the stages; phi = 1 + sum w_i J_i.
    """
    w6 = h * (11 / 84)
    m6 = w6 * J6 * h
    w5 = h * (-2187 / 6784) + m6 * (-5103 / 18656)
    m5 = w5 * J5 * h
    w4 = h * (125 / 192) + m5 * (-212 / 729) + m6 * (49 / 176)
    m4 = w4 * J4 * h
    w3 = h * (500 / 1113) + m4 * (32 / 9) + m5 * (64448 / 6561) + m6 * (46732 / 5247)
    m3 = w3 * J3 * h
    w2 = m3 * (9 / 40) + m4 * (-56 / 15) + m5 * (-25360 / 2187) + m6 * (-355 / 33)
    m2 = w2 * J2 * h
    w1 = (h * (35 / 384) + m2 * (1 / 5) + m3 * (3 / 40) + m4 * (44 / 45) + m5 * (19372 / 6561)
          + m6 * (9017 / 3168))
    return 1.0 + w1 * J1 + w2 * J2 + w3 * J3 + w4 * J4 + w5 * J5 + w6 * J6, w1, w2, w3, w4, w5, w6


def _dopri5_alt(params, times, a0, b0, rtol, atol, out, jac=False):
    """The irreversible system (k3 = 0, n3 = 1) from (a0, b0): a in closed form, b integrated.

    a comes from ``_closed_form_a``.  b' = k1 a(t)**n1 - k2 b**n2 takes
    ``_dopri5``'s pair, controller and grouped times, with b's error
    estimate alone controlling the steps, so every value equals that of a
    solve to its time alone, bit for bit.  With ``jac``, b's sensitivities
    s = (db/dk1, db/dk2, db/dn1, db/dn2) follow each accepted step: each
    obeys s' = J s + g with J = -d(k2 b**n2)/db, so the step's stages give
    it by ``_linear_step_weights``.  They take no part in the step control
    (CVODES with ``errconS`` off; Hindmarsh et al., *SUNDIALS*, ACM TOMS
    2005), so b is that of the plain pass, bit for bit.

    Appends (a, b) per time to ``out``, or with ``jac`` ((a, b), (da/dk1,
    da/dn1, *s)).  Raises as ``_dopri5``, and ValueError for k3 != 0 or n3 != 1.
    """
    if params.k3 != 0.0 or params.n3 != 1.0:
        raise ValueError("a in closed form needs the irreversible system: k3 = 0 and n3 = 1")
    k2, n2 = params.k2, params.n2
    log = math.log
    at = _closed_form_a(params, a0, jac)

    b = b0
    p1 = b**n2
    r, g1, e1, _, _, _ = at(0.0)
    fb = r - k2 * p1
    h_abs, bound = _initial_step(
        lambda t, y: (at(t)[0] - k2 * (0.0 if y[0] < 0.0 else y[0]) ** n2,),
        times[0], (b,), (fb,), rtol, atol,
    )
    if bound and len(times) > 1:
        _dopri5_alt(params, times[:1], a0, b0, rtol, atol, out, jac)
        _dopri5_alt(params, times[1:], a0, b0, rtol, atol, out, jac)
        return
    # Per stage, J = -n2 k2 b**(n2 - 1), and the n2 forcing is -k2 L with
    # L = b**n2 log(b); both are 0 at b = 0, where `b or 1.0` keeps them finite.
    J1, L1 = -n2 * k2 * p1 / (b or 1.0), p1 * log(b or 1.0)
    s1 = s2 = s3 = s4 = 0.0
    t = 0.0
    saved = None
    for t_end in times:
        while t < t_end:
            min_step = 10 * math.ulp(t)
            if h_abs < min_step:
                h_abs = min_step
            if saved is None and t + h_abs > t_end:
                saved = t, b, fb, s1, s2, s3, s4, J1, L1, p1, g1, e1, h_abs
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

                r, g2, e2, _, _, _ = at(t + h * (1 / 5))
                b2 = b + fb * (1 / 5) * h
                b2 = 0.0 if b2 < 0.0 else b2
                p2 = b2**n2
                f2 = r - k2 * p2
                r, g3, e3, _, _, _ = at(t + h * (3 / 10))
                b3 = b + (fb * (3 / 40) + f2 * (9 / 40)) * h
                b3 = 0.0 if b3 < 0.0 else b3
                p3 = b3**n2
                f3 = r - k2 * p3
                r, g4, e4, _, _, _ = at(t + h * (4 / 5))
                b4 = b + (fb * (44 / 45) + f2 * (-56 / 15) + f3 * (32 / 9)) * h
                b4 = 0.0 if b4 < 0.0 else b4
                p4 = b4**n2
                f4 = r - k2 * p4
                r, g5, e5, _, _, _ = at(t + h * (8 / 9))
                b5 = b + (fb * (19372 / 6561) + f2 * (-25360 / 2187) + f3 * (64448 / 6561)
                          + f4 * (-212 / 729)) * h
                b5 = 0.0 if b5 < 0.0 else b5
                p5 = b5**n2
                f5 = r - k2 * p5
                r, g6, e6, _, _, _ = at(t + h)
                b6 = b + (fb * (9017 / 3168) + f2 * (-355 / 33) + f3 * (46732 / 5247)
                          + f4 * (49 / 176) + f5 * (-5103 / 18656)) * h
                b6 = 0.0 if b6 < 0.0 else b6
                p6 = b6**n2
                f6 = r - k2 * p6
                yb = b + h * (fb * (35 / 384) + f3 * (500 / 1113) + f4 * (125 / 192)
                              + f5 * (-2187 / 6784) + f6 * (11 / 84))
                b7 = 0.0 if yb < 0.0 else yb
                p7 = b7**n2
                f7 = r - k2 * p7

                pb, qb = abs(b), abs(yb)
                error_norm = abs(
                    (fb * (-71 / 57600) + f3 * (71 / 16695) + f4 * (-71 / 1920)
                     + f5 * (17253 / 339200) + f6 * (-22 / 525) + f7 * (1 / 40)) * h
                    / (atol + (qb if qb > pb else pb) * rtol)
                )
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

            if jac:
                phi, w1, w2, w3, w4, w5, w6 = _linear_step_weights(
                    h, J1, -n2 * k2 * p2 / (b2 or 1.0), -n2 * k2 * p3 / (b3 or 1.0),
                    -n2 * k2 * p4 / (b4 or 1.0), -n2 * k2 * p5 / (b5 or 1.0), -n2 * k2 * p6 / (b6 or 1.0))
                s1 = phi * s1 + (w1 * g1 + w2 * g2 + w3 * g3 + w4 * g4 + w5 * g5 + w6 * g6)
                s2 = phi * s2 - (w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6)
                s3 = phi * s3 + (w1 * e1 + w2 * e2 + w3 * e3 + w4 * e4 + w5 * e5 + w6 * e6)
                s4 = phi * s4 - k2 * (w1 * L1 + w2 * p2 * log(b2 or 1.0) + w3 * p3 * log(b3 or 1.0)
                                      + w4 * p4 * log(b4 or 1.0) + w5 * p5 * log(b5 or 1.0)
                                      + w6 * p6 * log(b6 or 1.0))
                J1, L1 = -n2 * k2 * p7 / (b7 or 1.0), p7 * log(b7 or 1.0)
            t = t_new
            b, fb, p1, g1, e1 = yb, f7, p7, g6, e6
        _, _, _, a, a_k1, a_n1 = at(t)
        out.append(((a, b), (a_k1, a_n1, s1, s2, s3, s4)) if jac else (a, b))
        if saved is not None:
            t, b, fb, s1, s2, s3, s4, J1, L1, p1, g1, e1, h_abs = saved
            saved = None


# benchmarks/instruments.py counts and times the three-state ODE solves (the
# reference model's) by wrapping this name.
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


def _integrate_rows(params: KineticsParams, X, tol: IntegratorTol, alt: bool = False, jac: bool = False):
    """Concentrations (n, 3) at the rows (a0, b0, c0, t) of X.

    By default ``_dopri5`` integrates all three states.  With ``alt``, the
    irreversible system runs ``_dopri5_alt`` and c = a0 + b0 + c0 - a - b;
    with ``jac`` as well, Jacobians (n, 3, 4) in (k1, k2, n1, n2) come too,
    and the power-law derivative terms of a clipped concentration are 0.

    Each row is validated as a KineticsInput.  Rows that share an initial
    state exactly, (a0, b0) with ``alt`` and (a0, b0, c0) otherwise, are
    integrated in one kernel pass over their sorted distinct times, which
    gives every row the value of a solve to its own time, bit for bit.  A
    failure raises ModelEvaluationError carrying a failing row.
    """
    groups: dict[tuple, list] = {}
    for i, row in enumerate(X):
        inp = KineticsInput(*(float(v) for v in row))
        groups.setdefault((inp.a0, inp.b0) if alt else (inp.a0, inp.b0, inp.c0), []).append((inp, i))
    rhs = _kinetics_rhs(params)
    Y = np.empty((len(X), 3))
    S = np.empty((len(X), 2, 4))  # the rows of a and b in the Jacobian
    for y0, rows in groups.items():
        times = tuple(sorted({inp.t for inp, _ in rows}))
        out: list = []
        try:
            if alt:
                _dopri5_alt(params, times, *y0, tol.rel, tol.abs, out, jac)
            else:
                solve_ivp(rhs, times, y0, tol.rel, tol.abs, out)
        except ArithmeticError as exc:
            x = next(np.array([inp.a0, inp.b0, inp.c0, inp.t]) for inp, _ in rows if inp.t == times[len(out)])
            raise ModelEvaluationError(f"kinetics integration failed at x={x}: {exc}", x=x) from exc
        at = dict(zip(times, out))
        for inp, i in rows:
            y = at[inp.t]
            if jac:
                y, (a_k1, a_n1, *b_row) = y
                S[i] = (a_k1, 0.0, a_n1, 0.0), b_row
            Y[i] = (*y, inp.a0 + inp.b0 + inp.c0 - y[0] - y[1]) if alt else y
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
        alternative=lambda X, theta: _integrate_rows(alt_params(theta), X, tol, alt=True),
        parameter_space=KINETICS_PARAMETER_SPACE,
        d_y=3,
        alternative_jac=lambda X, theta: _integrate_rows(alt_params(theta), X, tol, alt=True, jac=True),
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
