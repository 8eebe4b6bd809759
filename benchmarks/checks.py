"""Answer checks computed apart from discrimopt.

Nothing here imports the package. The two problems are written out again
from their published statements: the Michaelis-Menten pair in closed form,
the kinetics pair as its own right-hand side integrated with LSODA
(``scipy.integrate.odeint``) at rtol 1e-10 and atol 1e-12, tighter than the
program's RK45 at 1e-8 and 1e-10. Criterion values come from this module's
own fits: scipy's trust-region-reflective least squares from a fixed grid
of cold starts, never from the program's parameters.

``check_design(workload, payload)`` takes the ``design.json`` a solve wrote
and returns ``(errors, facts)``; an empty error list means every check
passed.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy.integrate import odeint
from scipy.optimize import least_squares, minimize_scalar

# Equivalence-theorem bound T* <= T + max psi: each workload's eps.
PSI_TOL = {"mm-2adapt": 1e-5, "kinetics-2adapt": 1e-5}
REFIT_REL_TOL = 1e-5  # cold refit T against the reported T, relative
WEIGHT_SUM_TOL = 1e-9
T_TOL = 2e-5
SUPPORT_TOL = 0.02
WEIGHT_TOL = 0.01

# Michaelis-Menten: modified reference V x/(K + x) + F x, alternative V x/(K + x).
MM_REFERENCE = (1.0, 1.0, 0.1)  # V, K, F
MM_THETA_BOX = (np.array([1e-3, 1e-3]), np.array([5.0, 5.0]))
MM_SPACE = (0.001, 5.0)
MM_GRID = 10_001
MM_PAPER_T = 1.1854e-3
MM_PAPER_SUPPORT = (0.386, 2.596, 5.0)
MM_PAPER_WEIGHTS = (0.3906, 0.3896, 0.2198)

# Kinetics: A -> B -> C with back reaction B -> A (reference) against k3 = 0.
KIN_REFERENCE = (0.7, 0.2, 0.1, 2.0, 2.0, 1.0)  # k1, k2, k3, n1, n2, n3
KIN_THETA_BOX = (np.array([0.5, 0.05, 1.5, 1.5]), np.array([1.0, 0.5, 3.5, 3.0]))
KIN_LEVELS = ((0.5, 0.7, 0.9), (0.1, 0.2, 0.3), (0.0, 0.15, 0.3), (2.0, 4.0, 6.0, 8.0, 10.0))
KIN_LATTICE = np.array(list(itertools.product(*KIN_LEVELS)))
KIN_PUBLISHED = {
    (0.5, 0.1, 0.0, 2.0): 0.5562,
    (0.9, 0.3, 0.3, 10.0): 0.4116,
    (0.5, 0.1, 0.0, 10.0): 0.0322,
}
KIN_RTOL, KIN_ATOL = 1e-10, 1e-12


def mm_reference(x):
    v, k, f = MM_REFERENCE
    return v * x / (k + x) + f * x


def mm_alternative(x, theta):
    return theta[0] * x / (theta[1] + x)


def mm_alternative_jac(x, theta):
    d = theta[1] + x
    return np.column_stack([x / d, -theta[0] * x / d**2])


def _kinetics_rhs(y, _t, k1, k2, k3, n1, n2, n3):
    a = max(y[0], 0.0)
    b = max(y[1], 0.0)
    r1 = k1 * a**n1
    r2 = k2 * b**n2
    r3 = k3 * b**n3
    return [-r1 + r3, r1 - r2 - r3, r2]


def kinetics_states(points, params) -> np.ndarray:
    """Concentrations (a, b, c) at each point (a0, b0, c0, t), one solve per initial state."""
    points = np.asarray(points, dtype=float)
    out = np.empty((len(points), 3))
    starts = {}
    for i, p in enumerate(points):
        starts.setdefault(tuple(p[:3]), []).append(i)
    for y0, rows in starts.items():
        times = sorted({points[i, 3] for i in rows})
        sol = odeint(
            _kinetics_rhs, y0, [0.0, *times], args=tuple(params),
            rtol=KIN_RTOL, atol=KIN_ATOL, mxstep=100_000,
        )
        at = dict(zip(times, sol[1:]))
        for i in rows:
            out[i] = at[points[i, 3]]
    return out


def kinetics_alternative(points, theta):
    k1, k2, n1, n2 = theta
    return kinetics_states(points, (k1, k2, 0.0, n1, n2, 1.0))


class Problem:
    """One model pair: reference values, an alternative, a parameter box and cold starts."""

    def __init__(self, reference, alternative, box, starts, jac=None):
        self.reference = reference
        self.alternative = alternative
        self.box = box
        self.starts = starts
        self.jac = jac

    def phi(self, points, theta) -> np.ndarray:
        """Squared distance between the models at each point."""
        r = np.reshape(self.reference(points) - self.alternative(points, theta), (len(points), -1))
        return np.sum(r * r, axis=1)

    def best_fit(self, points, weights) -> tuple[float, np.ndarray]:
        """min over theta of sum_i w_i ||f_ref(x_i) - f_alt(x_i, theta)||^2, multistart."""
        ref = self.reference(points)
        scale = np.sqrt(weights)

        def residuals(theta):
            r = np.reshape(ref - self.alternative(points, theta), (len(points), -1))
            return (scale[:, None] * r).ravel()

        jac = "2-point"
        if self.jac is not None:
            def jac(theta):
                return -scale[:, None] * self.jac(points, theta)

        best = None
        for x0 in self.starts:
            res = least_squares(
                residuals, x0, jac=jac, bounds=self.box, method="trf",
                xtol=1e-14, ftol=1e-14, gtol=1e-14, x_scale="jac",
            )
            if best is None or res.cost < best.cost:
                best = res
        return 2.0 * float(best.cost), best.x


def _grid_starts(box, levels):
    lo, hi = box
    fractions = (np.arange(levels) + 0.5) / levels
    return [lo + np.array(u) * (hi - lo) for u in itertools.product(fractions, repeat=len(lo))]


MM = Problem(
    lambda x: mm_reference(np.ravel(x)),
    lambda x, th: mm_alternative(np.ravel(x), th),
    MM_THETA_BOX,
    _grid_starts(MM_THETA_BOX, 5),
    jac=lambda x, th: mm_alternative_jac(np.ravel(x), th),
)
KIN = Problem(
    lambda x: kinetics_states(x, KIN_REFERENCE),
    kinetics_alternative,
    KIN_THETA_BOX,
    _grid_starts(KIN_THETA_BOX, 2),
)


def mm_max_phi(theta) -> float:
    """Max over the design interval of phi(x, theta): a 10^4-point grid, then local refinement."""
    xs = np.linspace(*MM_SPACE, MM_GRID)
    phi = MM.phi(xs, theta)
    best = float(phi.max())
    for i in np.argsort(phi)[-3:]:
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        res = minimize_scalar(
            lambda x: -MM.phi(np.array([x]), theta)[0],
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
        )
        best = max(best, -float(res.fun))
    return best


def published_kinetics_t() -> float:
    """Criterion value of the published kinetics design on the parameter box, by a cold fit."""
    points = np.array(list(KIN_PUBLISHED))
    weights = np.array(list(KIN_PUBLISHED.values()))
    return KIN.best_fit(points, weights)[0]


def _structure(workload, support, weights) -> list[str]:
    errors = []
    if support.ndim != 2 or len(support) != len(weights) or len(weights) == 0:
        return [f"support shape {support.shape} does not match {len(weights)} weights"]
    if not (np.all(np.isfinite(support)) and np.all(np.isfinite(weights))):
        return ["non-finite support or weights"]
    if np.any(weights < 0):
        errors.append(f"negative weight {weights.min():.3g}")
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        errors.append(f"weights sum to {weights.sum():.12g}")
    if workload.startswith("mm"):
        if support.shape[1] != 1 or np.any(support < MM_SPACE[0]) or np.any(support > MM_SPACE[1]):
            errors.append("support outside the design interval [0.001, 5]")
    elif support.shape[1] != 4 or not all(
        np.any(np.all(np.abs(KIN_LATTICE - p) <= 1e-12, axis=1)) for p in support
    ):
        errors.append("support point off the kinetics lattice")
    return errors


def check_design(workload: str, payload: dict) -> tuple[list[str], dict]:
    """Check a solve's design.json for ``workload`` against independent computations."""
    support = np.asarray(payload["support"], dtype=float)
    weights = np.asarray(payload["weights"], dtype=float)
    theta = np.asarray(payload["theta_hat"], dtype=float)
    t = float(payload["t_value"])
    errors = _structure(workload, support, weights)
    if errors:
        return errors, {}
    if not payload.get("converged"):
        errors.append("solver reports no convergence")

    problem = MM if workload.startswith("mm") else KIN
    t_refit, _ = problem.best_fit(support, weights)
    if abs(t_refit - t) > REFIT_REL_TOL * t_refit:
        errors.append(f"reported T {t:.9e} but a cold refit gives {t_refit:.9e}")
    if workload.startswith("mm"):
        max_psi = mm_max_phi(theta) - t
    else:
        max_psi = float(KIN.phi(KIN_LATTICE, theta).max()) - t
    if max_psi > PSI_TOL[workload]:
        errors.append(f"max psi {max_psi:.3e} > {PSI_TOL[workload]:g} at the reported theta")
    facts = {"t": t, "t_refit": t_refit, "max_psi": max_psi}

    if workload == "mm-2adapt":
        if abs(t - MM_PAPER_T) > T_TOL:
            errors.append(f"T {t:.6e} not within {T_TOL:g} of the paper's {MM_PAPER_T:g}")
        order = np.argsort(support[:, 0])
        if len(support) != len(MM_PAPER_SUPPORT):
            errors.append(f"{len(support)} support points, the paper has 3")
        else:
            for x, w, x_ref, w_ref in zip(
                support[order, 0], weights[order], MM_PAPER_SUPPORT, MM_PAPER_WEIGHTS
            ):
                if abs(x - x_ref) > SUPPORT_TOL:
                    errors.append(f"support point {x:.4f} vs the paper's {x_ref}")
                if abs(w - w_ref) > WEIGHT_TOL:
                    errors.append(f"weight {w:.4f} vs the paper's {w_ref}")
    else:
        t_published = published_kinetics_t()
        facts["t_published_design"] = t_published
        if t < t_published - T_TOL:
            errors.append(f"T {t:.6e} below the published design's {t_published:.6e} - {T_TOL:g}")
        found = {tuple(float(c) for c in p): w for p, w in zip(support, weights) if w >= 1e-3}
        if set(found) != set(KIN_PUBLISHED):
            errors.append(f"support {sorted(found)} is not the published support")
        else:
            for p, w_ref in KIN_PUBLISHED.items():
                if abs(found[p] - w_ref) > WEIGHT_TOL:
                    errors.append(f"weight at {p}: {found[p]:.4f} vs the published {w_ref}")
    return errors, facts
