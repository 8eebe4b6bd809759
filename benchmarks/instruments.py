"""Counters and span tracing for one discrimopt command, installed from outside the package.

Nothing in ``src/`` knows about these instruments. They wrap the public
functions of each module in the running interpreter, by rebinding every
name in a ``discrimopt`` module that refers to the wrapped object, so
calls made through ``from .lsq import fit_parameters`` are seen too.

Two modes:

* counting only (``Instruments(trace=False)``): the alternative model
  callable of the loaded ``ModelPair`` counts its calls, one design point
  each.
  Nothing else is wrapped.
* tracing (``trace=True``): every layer boundary below records time and
  counts. Coarse calls (the solve command, the algorithms, fits, weight
  LPs, searches, config loads) are kept as spans ``(name, start, end,
  parent)`` in memory. Per-point calls (``ModelPair.eval_*``, the model
  callables, the residual functions and the ODE solves) are aggregated in
  place, because a solve makes tens of thousands of them.

A layer's self time is the time inside its calls minus the time inside
calls of any wrapped function they make. Every wrapper hands its whole
duration to its caller, so the self times over all layers add up to the
time of the root call by construction.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter


def _rebind(old, new) -> None:
    """Point every name bound to ``old`` in a loaded discrimopt module at ``new``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "discrimopt" or name.startswith("discrimopt.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _cost_per_call(wrapped, bare, n: int = 50_000) -> float:
    """Seconds one call of ``wrapped`` takes beyond one call of ``bare``, best of three."""
    best = []
    for fn in (bare, wrapped):
        times = []
        for _ in range(3):
            start = perf()
            for _ in range(n):
                fn(0.0, 0.0)
            times.append(perf() - start)
        best.append(min(times))
    return max(0.0, (best[1] - best[0]) / n)


class Instruments:
    def __init__(self, trace: bool):
        self.trace = trace
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.active: Counter = Counter()
        self.spans: list = []
        self._stack: list = []
        self._alt_evals = [0]

    # -- span machinery ---------------------------------------------------
    def wrap(self, layer: str, name: str, fn, keep: bool = False):
        """Time ``fn`` as a call of ``layer``; keep a span per call if ``keep``."""
        stack, spans, self_s, total_s = self._stack, self.spans, self.self_s, self.total_s
        calls, active = self.calls, self.active

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            index = parent
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                duration = end - start
                self_s[layer] += duration - frame[0]
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans[index] = (name, start, end, parent)

        return traced

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import discrimopt.config

        original_load = discrimopt.config.load_config
        load = self.wrap("config", "config.load_config", original_load, keep=True) if self.trace else original_load

        def load_config(*args, **kwargs):
            return self._instrument_config(load(*args, **kwargs))

        _rebind(original_load, load_config)
        if self.trace:
            self._install_layers()

    def _instrument_config(self, cfg):
        import dataclasses

        pair = cfg.pair
        if self.trace:
            pair = dataclasses.replace(
                pair,
                reference=self._model_callable("ref", pair.reference),
                alternative=self._model_callable("alt", pair.alternative),
            )
        else:
            pair = dataclasses.replace(pair, alternative=self._counted_alternative(pair.alternative))
        return dataclasses.replace(cfg, pair=pair)

    def _counted_alternative(self, fn):
        """Count calls only; ``ModelPair.eval_alternative`` passes one point per call.
        This wrapper runs inside timed solves, so it is kept small: fixed arity,
        a list cell, no helper call."""
        cell = self._alt_evals

        def alternative(x, theta):
            cell[0] += 1
            return fn(x, theta)

        return alternative

    @property
    def alt_evals(self) -> int:
        return self.counts["alt_evals"] if self.trace else self._alt_evals[0]

    def _model_callable(self, kind: str, fn):
        counts, active = self.counts, self.active
        key = f"{kind}_evals"
        traced = self.wrap("models", f"models.{kind}", fn)

        def counted_traced(x, *rest):
            counts[key] += 1
            if kind == "alt" and active["search.maximize_distance"]:
                counts["search_evals"] += 1
            return traced(x, *rest)

        return counted_traced

    def _install_layers(self) -> None:
        import discrimopt.algorithms as algorithms
        import discrimopt.core as core
        import discrimopt.lp as lp
        import discrimopt.lsq as lsq
        import discrimopt.models as models
        import discrimopt.search as search

        counts = self.counts

        for method in ("eval_reference", "eval_alternative"):
            original = getattr(core.ModelPair, method, None)
            if original is not None:
                setattr(core.ModelPair, method, self.wrap("core", f"core.{method}", original))

        # lsq: fits, their least-squares starts and residual calls.
        fit = lsq.fit_parameters
        fit_signature = inspect.signature(fit)
        traced_fit = self.wrap("lsq", "lsq.fit_parameters", fit, keep=True)

        def fit_parameters(*args, **kwargs):
            result = traced_fit(*args, **kwargs)
            warm = fit_signature.bind(*args, **kwargs).arguments.get("warm_start")
            if warm is not None:
                counts["warm_fits"] += 1
                counts["warm_wins"] += getattr(result, "start_index", None) == 0
            return result

        _rebind(fit, fit_parameters)

        solver = lsq.least_squares
        residual_wrap = self.wrap

        def least_squares(fun, *args, **kwargs):
            res = solver(residual_wrap("lsq_resid", "lsq.residuals", fun), *args, **kwargs)
            counts["starts"] += 1
            counts["nfev"] += int(res.nfev or 0)
            counts["njev"] += int(res.njev or 0)
            return res

        _rebind(solver, least_squares)

        # lp: weight LPs and the size of the largest one.
        lp_solve = lp.solve_weight_lp
        traced_lp = self.wrap("lp", "lp.solve_weight_lp", lp_solve, keep=True)

        def solve_weight_lp(instance, *args, **kwargs):
            rows, cols = instance.phi.shape
            counts["lp_max_rows"] = max(counts["lp_max_rows"], rows)
            counts["lp_max_cols"] = max(counts["lp_max_cols"], cols)
            return traced_lp(instance, *args, **kwargs)

        _rebind(lp_solve, solve_weight_lp)

        original = search.maximize_distance
        _rebind(original, self.wrap("search", "search.maximize_distance", original, keep=True))

        # models: ODE solves and the integrate_kinetics calls behind them.
        original = models.solve_ivp
        _rebind(original, self.wrap("models", "models.ode", original))
        integrate = models.integrate_kinetics

        def integrate_kinetics(*args, **kwargs):
            counts["kinetics_calls"] += 1
            return integrate(*args, **kwargs)

        _rebind(integrate, integrate_kinetics)

        # algorithms: solvers, the inner loop and the certificate.
        for name in ("disc_md", "check_optimality"):
            original = getattr(algorithms, name)
            _rebind(original, self.wrap("algorithms", f"algorithms.{name}", original, keep=True))
        original = algorithms.two_adapt_md
        _rebind(original, self._recording(self.wrap("algorithms", "algorithms.two_adapt_md", original, keep=True)))

    def _recording(self, solver):
        """Count outer and inner iterations from the records a solver returns."""
        counts = self.counts

        def solve(*args, **kwargs):
            result = solver(*args, **kwargs)
            phases = Counter(getattr(rec, "phase", None) for rec in getattr(result, "history", ()))
            counts["outer_iters"] += phases["outer"]
            counts["inner_iters"] += phases["disc"]
            return result

        return solve

    # -- results ----------------------------------------------------------

    def root(self, fn):
        """Wrap the command under measurement as the root span."""
        return self.wrap("cli", "cli.main", fn, keep=True)

    def overhead_s(self) -> float:
        """Time the wrappers themselves added to the traced command, estimated.

        Each wrapped call is charged what a wrapped no-op costs beyond a bare
        one, measured after the command in a probe one frame deep, as calls
        inside a solve are. Model callables pass through two wrappers (the
        counter and the timer) and are calibrated as such."""
        probe = Instruments(trace=True)
        probe._stack.append([0.0, None])

        def noop(x, theta):
            return None

        per_wrap = _cost_per_call(probe.wrap("probe", "probe", noop), noop)
        per_model = _cost_per_call(probe._model_callable("alt", noop), noop)
        model_calls = self.calls["models.alt"] + self.calls["models.ref"]
        return (sum(self.calls.values()) - model_calls) * per_wrap + model_calls * per_model

    def per_layer(self) -> dict:
        c, t, s, n = self.counts, self.total_s, self.self_s, self.calls
        return {
            "lsq.fits": n["lsq.fit_parameters"],
            "lsq.fit_s": t["lsq.fit_parameters"],
            "lsq.starts": c["starts"],
            "lsq.nfev": c["nfev"],
            "lsq.njev": c["njev"],
            "lsq.resid_calls": n["lsq.residuals"],
            "lsq.resid_s": t["lsq.residuals"],
            "lsq.self_s": s["lsq"],
            "lsq.resid_self_s": s["lsq_resid"],
            "lsq.warm_wins": c["warm_wins"],
            "lsq.warm_fits": c["warm_fits"],
            "models.alt_evals": c["alt_evals"],
            "models.ref_evals": c["ref_evals"],
            "models.eval_s": t["models.alt"] + t["models.ref"],
            "models.self_s": s["models"],
            "models.ode_solves": n["models.ode"],
            "models.ode_s": t["models.ode"],
            "models.kinetics_calls": c["kinetics_calls"],
            "models.ode_cache_hits": c["kinetics_calls"] - n["models.ode"],
            "core.eval_self_s": s["core"],
            "lp.solves": n["lp.solve_weight_lp"],
            "lp.s": t["lp.solve_weight_lp"],
            "lp.self_s": s["lp"],
            "lp.max_rows": c["lp_max_rows"],
            "lp.max_cols": c["lp_max_cols"],
            "search.calls": n["search.maximize_distance"],
            "search.s": t["search.maximize_distance"],
            "search.self_s": s["search"],
            "search.evals": c["search_evals"],
            "algorithms.outer_iters": c["outer_iters"],
            "algorithms.inner_iters": c["inner_iters"],
            "algorithms.self_s": s["algorithms"],
            "cli.self_s": s["cli"],
            "config.self_s": s["config"],
            "trace.spans": sum(1 for span in self.spans if span is not None),
            "trace.overhead_s": self.overhead_s(),
        }
