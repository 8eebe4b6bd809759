"""Benchmark discrimopt end to end, or per layer with ``--trace 1``.

    python3 benchmarks/run.py --workload mm-2adapt --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a checkout; the program is run from the
checkout's ``src/``. Every solve and every verify runs in a fresh
interpreter, one at a time (a closed loop with one client), with the
BLAS/OpenMP thread variables unset, as a user runs ``discrimopt``.

``--trace 0`` repeats rounds of one ``solve`` and a fixed number of
``verify`` runs of the returned design for ``--seconds`` seconds (at least
one round), counts model evaluations, checks every design against
``checks.py``, and reports medians of the end-to-end metrics. ``--trace 1``
runs one traced solve and reports the per-layer metrics. The inputs are fixed
configs and the program draws no random numbers, so ``--seed`` selects
nothing; it is accepted so that every run names one.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A run must end within 180 s; leave room for the checks after the last process.
RUN_LIMIT_S = 165.0

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    config: Path
    # Single verifies vary by ~30% here, so every solve is followed by
    # several. A kinetics round (a 33-65 s solve) is longer than half a
    # run, so a kinetics run is one round.
    verifies: int  # verifies of the returned design after each solve


WORKLOADS = {
    "mm-2adapt": Workload(SRC / "discrimopt" / "configs" / "mm.config", verifies=2),
    "kinetics-2adapt": Workload(HERE / "kinetics.config", verifies=4),
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_cpu_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "model_evals": "count",
}

# Per-layer metrics of a traced run; counts are exact, times are one sample.
PER_LAYER_TIMES = (
    "config.load_s", "package.import_s", "lsq.import_s", "models.import_s", "lp.import_s",
    "lsq.fit_s", "lsq.resid_s", "lsq.self_s", "lsq.resid_self_s",
    "models.eval_s", "models.self_s", "models.ode_s", "core.eval_self_s",
    "lp.s", "lp.self_s", "search.s", "search.self_s", "algorithms.self_s",
    "cli.self_s", "config.self_s",
    "trace.solve_s", "trace.overhead_s",
)
PER_LAYER_COUNTS = (
    "lsq.fits", "lsq.starts", "lsq.nfev", "lsq.njev", "lsq.resid_calls",
    "lsq.warm_wins", "lsq.warm_fits",
    "models.alt_evals", "models.ref_evals", "models.ode_solves",
    "models.kinetics_calls", "models.ode_cache_hits",
    "lp.solves", "lp.max_rows", "lp.max_cols",
    "search.calls", "search.evals",
    "algorithms.outer_iters", "algorithms.inner_iters", "trace.spans",
)
PER_LAYER = {**{k: "s" for k in PER_LAYER_TIMES}, **{k: "count" for k in PER_LAYER_COUNTS}}


class OperationFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.pop("DISCRIM_OPT_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


class Runner:
    def __init__(self, workload: Workload, run_dir: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.n = 0

    def worker(self, job: dict) -> dict:
        """Run one command in a fresh interpreter; return its measurements."""
        self.attempted += 1
        job = {"config": str(self.workload.config), **job}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                capture_output=True,
                text=True,
                env=self.env,
                cwd=self.run_dir,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            raise OperationFailed(f"{job['op']} did not end before the run's time limit")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.failed += 1
            raise OperationFailed(f"{job['op']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(lines[-1])
        result["setup_s"] = result["setup_end"] - start
        return result

    def solve(self, **extra) -> tuple[dict, dict]:
        self.n += 1
        out = self.run_dir / f"solve-{self.n}"
        result = self.worker({"op": "solve", "out": str(out), **extra})
        if result["code"] != 0:
            raise OperationFailed(f"solve exited {result['code']}: {result['stdout'].strip()}")
        return result, json.loads((out / "design.json").read_text())

    def verify(self, design_path: Path) -> dict:
        result = self.worker({"op": "verify", "design": str(design_path)})
        if result["code"] != 0:
            raise OperationFailed(f"verify rejected the solver's design: {result['stdout'].strip()}")
        return result


def answer(design: dict) -> str:
    """The design as returned, without its run time, for bit-for-bit comparison."""
    return json.dumps({k: v for k, v in design.items() if k != "runtime_seconds"}, sort_keys=True)


def check_answers(workload: str, designs: list) -> list[str]:
    from checks import check_design

    answers = {answer(d) for d in designs}
    errors = [] if len(answers) == 1 else [f"{len(answers)} different designs from {len(designs)} solves"]
    check_errors, facts = check_design(workload, designs[0])
    print("check:", ", ".join(f"{k} {v:.9e}" for k, v in facts.items()))
    return errors + check_errors


def measure(runner: Runner, seconds: float) -> tuple[dict, list]:
    samples = {name: [] for name in END_TO_END}
    designs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # The evaluation counter adds ~0.3 us per model call to the timed
        # solve (README: "Counting model evaluations").
        solved, design = runner.solve(count=True)
        designs.append(design)
        samples["setup_s"].append(solved["setup_s"])
        samples["solve_s"].append(solved["wall_s"])
        samples["solve_cpu_s"].append(solved["cpu_s"])
        samples["peak_rss_mb"].append(solved["max_rss_kb"] * 1024 / 1e6)
        samples["model_evals"].append(solved["alt_evals"])
        for _ in range(runner.workload.verifies):
            verified = runner.verify(runner.run_dir / f"solve-{runner.n}" / "design.json")
            samples["setup_s"].append(verified["setup_s"])
            samples["verify_s"].append(verified["wall_s"])
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    if len(set(samples["model_evals"])) != 1:
        raise OperationFailed(f"model evaluation counts differ: {samples['model_evals']}")
    return samples, designs


def import_times(runner: Runner) -> dict:
    """Cumulative import time of the package and three of its modules, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import discrimopt"],
        capture_output=True, text=True, env=runner.env, cwd=runner.run_dir, timeout=60,
    )
    if proc.returncode != 0:
        raise OperationFailed(f"import failed: {proc.stderr.strip()[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[1].isdigit():
            cumulative[parts[2]] = int(parts[1]) / 1e6
    return {
        "package.import_s": cumulative["discrimopt"],
        "lsq.import_s": cumulative["discrimopt.lsq"],
        "models.import_s": cumulative["discrimopt.models"],
        "lp.import_s": cumulative["discrimopt.lp"],
    }


def trace(runner: Runner) -> tuple[dict, list]:
    imports = import_times(runner)
    traced, design = runner.solve(trace=True, spans=str(runner.run_dir / "spans.json"))
    metrics = {
        "config.load_s": traced["load_s"],
        **imports,
        **traced["per_layer"],
        "trace.solve_s": traced["wall_s"],
    }
    return metrics, [design]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "discrimopt" / "__init__.py").is_file():
        print(f"error: no discrimopt sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(WORKLOADS[args.workload], run_dir, started + RUN_LIMIT_S)
    print(f"workload {args.workload}, seed {args.seed} (inputs are fixed), trace {args.trace}, "
          f"closed loop with one client, outputs in {run_dir}")

    errors = []
    metrics = {}
    try:
        if args.trace:
            values, designs = trace(runner)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        else:
            samples, designs = measure(runner, args.seconds)
            (run_dir / "samples.json").write_text(json.dumps(samples))
            for name, unit in END_TO_END.items():
                # model_evals repeats exactly (measure checks it); keep it whole.
                value = samples[name][0] if name == "model_evals" else statistics.median(samples[name])
                metrics[name] = {"value": value, "unit": unit}
                print(f"{name:>12} {metrics[name]['value']:12.6g} {unit:<5} median of {len(samples[name])}")
        errors = check_answers(args.workload, designs)
    except OperationFailed as exc:
        errors.append(str(exc))
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:>24} {entry['value']:14.6g} {entry['unit']}")
    for error in errors:
        print(f"FAIL: {error}")
    correct = not errors
    print(f"{runner.attempted} operations, {runner.failed} failed, answers "
          f"{'correct' if correct else 'WRONG'}, {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
