"""Command-line front end.

``solve`` runs an algorithm on a problem config and writes design.json,
history.csv, and (for 1-D box spaces) psi_curve.csv.  ``verify`` checks a
design file against the equivalence-theorem criterion.  ``compare`` runs
several algorithms on one problem and tabulates the results.

Exit codes: 0 success/converged, 2 non-converged termination (stall or
iteration limit), 1 error.  The ``DISCRIM_OPT_LOG`` environment variable
(error | info | debug) controls log verbosity.  Each command runs every
OpenBLAS loaded in the process on one thread, and restores its thread count
on return; library callers of :func:`~discrimopt.algorithms.solve` keep their own.
Importing this module stops OpenBLAS's idle worker threads, which it starts
again on its next threaded call.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import locale  # noqa: F401  (argparse's gettext imports it on the first parse, inside a command)
import logging
import os
import sys
import threading
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .algorithms import (
    ALGORITHMS,
    IterationRecord,
    SolveResult,
    SolverError,
    _Run,
    solve,
)
from .config import ConfigError, ProblemConfig, load_config
from .core import Box, Design, DesignError, ModelEvaluationError, squared_distance
from .lsq import FitError

__all__ = ["main", "cmd_solve", "cmd_verify", "cmd_compare"]

log = logging.getLogger("discrimopt")

# Points of the psi curve, equispaced over the 1-D box.
_PSI_GRID = 400

# dlinfo's request for an object's entry in the loader's list of loaded objects.
_RTLD_DI_LINKMAP = 2


class _LinkMap(ctypes.Structure):
    """The public head of ``struct link_map`` (``<link.h>``), one loaded object."""

    _fields_ = [
        ("l_addr", ctypes.c_void_p),
        ("l_name", ctypes.c_char_p),
        ("l_ld", ctypes.c_void_p),
        ("l_next", ctypes.c_void_p),
    ]


def _fmt(value):
    """Serialize numbers at full precision (well above 12 significant digits)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def _write_history(records, path: Path):
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(IterationRecord)])
        writer.writeheader()
        for rec in records:
            writer.writerow({k: _fmt(v) for k, v in asdict(rec).items()})


def _write_design(result: SolveResult, path: Path):
    payload = {
        "support": [[float(c) for c in p] for p in result.design.points],
        "weights": [float(w) for w in result.design.weights],
        "theta_hat": [float(t) for t in result.theta_hat],
        "t_value": result.t_value,
        "accuracy": result.accuracy,
        "iterations": result.iterations,
        "runtime_seconds": result.runtime_seconds,
        "converged": result.converged,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_psi_curve(cfg: ProblemConfig, result: SolveResult, path: Path):
    space = cfg.space
    xs = np.linspace(space.lower[0], space.upper[0], _PSI_GRID)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "psi"])
        psi = squared_distance(cfg.pair, xs[:, None], result.theta_hat) - result.t_value
        writer.writerows([_fmt(float(x)), _fmt(float(p))] for x, p in zip(xs, psi))


def _load_design_file(path: Path, cfg: ProblemConfig) -> tuple[_Run, Design, np.ndarray | None]:
    """A run of the config on the design of a design file, the design and its optional ``theta_hat``."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read design file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "support" not in payload or "weights" not in payload:
        raise ConfigError(f"design file {path} must contain 'support' and 'weights'")
    try:
        design = Design(np.array(payload["support"], dtype=float), np.array(payload["weights"], dtype=float))
        run = _Run(cfg.pair, cfg.space, design, cfg.params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"design file {path}: {exc}") from exc
    raw = payload.get("theta_hat")
    if raw is None:
        return run, design, None
    bounds = cfg.pair.parameter_space.lower
    try:
        theta = np.array(raw, dtype=float)
    except (TypeError, ValueError):
        theta = None
    if theta is None or theta.shape != bounds.shape or not np.all(np.isfinite(theta)):
        raise ConfigError(f"design file {path}: theta_hat must be {len(bounds)} finite numbers, got {raw!r}")
    return run, design, theta


def _solve(cfg: ProblemConfig, history=None) -> SolveResult:
    return solve(cfg.algorithm, cfg.pair, cfg.space, cfg.initial, cfg.params, history=history)


def _out_dir(args, cfg: ProblemConfig) -> Path:
    out = args.out or cfg.output_dir or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.algorithm)
    out = _out_dir(args, cfg)
    history: list = []
    try:
        result = _solve(cfg, history)
    except (FitError, ModelEvaluationError, SolverError) as exc:
        _write_history(history, out / "history.csv")
        log.error("solver failed: %s (history flushed to %s)", exc, out / "history.csv")
        return 1
    _write_design(result, out / "design.json")
    _write_history(result.history, out / "history.csv")
    if cfg.emit_psi_curve and isinstance(cfg.space, Box) and cfg.space.dimension == 1:
        _write_psi_curve(cfg, result, out / "psi_curve.csv")
    print(
        f"{cfg.algorithm}: converged={result.converged} t_value={result.t_value:.6e} "
        f"accuracy={result.accuracy:.3e} iterations={result.iterations} "
        f"support={result.design.n_points} runtime={result.runtime_seconds:.1f}s"
    )
    return 0 if result.converged else 2


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    run, design, theta0 = _load_design_file(Path(args.design), cfg)
    # The criterion value needs the best-fit parameters for *this* design.
    _, reports, _ = run.refit(design, theta0)
    report = reports[-1]
    eps = cfg.params.eps
    verdict = report.is_eps_optimal(eps)
    print(f"max_psi={report.max_psi:.6e}")
    print(f"min_support_gap={report.min_support_gap:.6e}")
    print(f"worst_point={[float(c) for c in report.worst_point]}")
    print(f"eps-T-optimal at eps={eps:g}: {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


def cmd_compare(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ConfigError("compare: the algorithm list must be nonempty")
    configs = [load_config(args.config, name) for name in algorithms]
    out = _out_dir(args, configs[0])
    rows = []
    for cfg in configs:
        result = _solve(cfg)
        rows.append(
            {
                "algorithm": cfg.algorithm,
                "reached_accuracy": _fmt(result.accuracy),
                "t_value": _fmt(result.t_value),
                "runtime_seconds": _fmt(result.runtime_seconds),
                "iterations": result.iterations,
                "support_size": result.design.n_points,
            }
        )
        print(
            f"{cfg.algorithm}: t_value={result.t_value:.6e} accuracy={result.accuracy:.3e} "
            f"runtime={result.runtime_seconds:.1f}s"
        )
    with (out / "comparison.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrimopt",
        description="T-optimal experimental design for model discrimination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a design algorithm on a problem config")
    p_solve.add_argument("--config", required=True, help="problem configuration file")
    p_solve.add_argument("--algorithm", choices=ALGORITHMS, help="override the configured algorithm")
    p_solve.add_argument("--out", help="output directory (default: config's, else cwd)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a design against the optimality criterion")
    p_verify.add_argument("--design", required=True, help="design.json file")
    p_verify.add_argument("--config", required=True, help="problem configuration file")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", help="run several algorithms on one problem")
    p_compare.add_argument("--config", required=True, help="problem configuration file")
    p_compare.add_argument("--algorithms", required=True, help="comma-separated algorithm names")
    p_compare.add_argument("--out", help="output directory")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries loaded in this process; none where the loader has no dlinfo."""
    # On POSIX ctypes.pythonapi wraps dlopen(NULL), the handle of the process itself.
    process, head = ctypes.pythonapi, ctypes.c_void_p()
    try:
        dlinfo = process["dlinfo"]  # a new function object, so the declarations below stay local
    except AttributeError:
        return []
    dlinfo.argtypes = (ctypes.c_void_p, ctypes.c_int, ctypes.POINTER(ctypes.c_void_p))
    dlinfo.restype = ctypes.c_int
    if dlinfo(process._handle, _RTLD_DI_LINKMAP, ctypes.byref(head)) != 0:
        return []
    paths, node = [], head.value
    while node:
        entry = _LinkMap.from_address(node)
        name = entry.l_name
        if name and b"openblas" in name:
            paths.append(os.fsdecode(name))
        node = entry.l_next
    return paths


@contextlib.contextmanager
def _one_blas_thread():
    """Run every loaded OpenBLAS on one thread, then restore each one's count.

    The arrays here are small, so a second BLAS thread does no work, yet it
    spins after the search's L-BFGS-B calls.  The count is OpenBLAS's
    ``blas_cpu_number``, which its threaded calls read, written directly: the
    setter (``openblas_set_num_threads``) would also restart the workers that
    importing this module stopped, and they would spin into the command.  A
    library that cannot be opened, or that does not export the count, is left
    as it is.
    """
    restore = []
    for path in _loaded_openblas():
        try:
            count = ctypes.c_int.in_dll(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), "blas_cpu_number")
        except (OSError, ValueError):
            continue
        restore.append((count, count.value))
        count.value = 1
    try:
        yield
    finally:
        for count, value in reversed(restore):
            count.value = value


def _stop_idle_blas_workers():
    """Stop the worker threads of every loaded OpenBLAS: started when it loads, they busy-wait for
    ~0.2 s, into the first command.  Its next threaded call starts them again; no thread count changes.
    Skipped while another Python thread runs: the stop is not safe against a BLAS call in progress."""
    if threading.active_count() > 1:
        return
    for path in _loaded_openblas():
        try:
            shutdown = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)["blas_thread_shutdown_"]
        except (OSError, AttributeError):
            continue
        shutdown.argtypes, shutdown.restype = (), ctypes.c_int
        shutdown()


def _configure_logging():
    level = os.environ.get("DISCRIM_OPT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _one_blas_thread():
            return args.func(args)
    except (ConfigError, DesignError, FitError, ModelEvaluationError, SolverError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


_stop_idle_blas_workers()

if __name__ == "__main__":
    sys.exit(main())
