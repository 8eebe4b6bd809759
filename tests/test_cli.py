import _ctypes
import ctypes
import csv
import dataclasses
import importlib.resources
import itertools
import json
import logging
import os
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import discrimopt.algorithms as algorithms
import discrimopt.cli as cli
from discrimopt import ALGORITHMS, make_mm_pair
from discrimopt.config import load_config
from discrimopt.lsq import FitError
from discrimopt.models import register_model
from discrimopt.cli import main

from conftest import two_basins

CONFIG_DIR = importlib.resources.files("discrimopt") / "configs"
MM_CONFIG = str(CONFIG_DIR / "mm.config")
KINETICS_CONFIG = str(CONFIG_DIR / "kinetics.config")
KINETICS_BENCH = str(Path(__file__).parent.parent / "benchmarks" / "kinetics.config")
TIME_COLUMNS = {"lp_time", "ls_time", "global_time", "wall_time"}


def _mm_failing_after(params):
    """The mm pair whose model raises from its ``fail_after``-th point evaluation on.

    ``alternative`` and ``alternative_jac`` share one count of evaluated
    points, so the failure reaches fits (which call the Jacobian) and
    searches alike.  Each reports the count so far as ``points_evaluated()``.
    """
    fail_after = int(params.pop("fail_after"))
    pair = make_mm_pair(**params)
    evaluated = 0

    def failing(fn):
        def call(X, theta):
            nonlocal evaluated
            for _ in X:
                if evaluated >= fail_after:
                    raise RuntimeError("injected failure")
                evaluated += 1
            return fn(X, theta)

        call.points_evaluated = lambda: evaluated
        return call

    return dataclasses.replace(
        pair,
        alternative=failing(pair.alternative),
        alternative_jac=failing(pair.alternative_jac),
    )


register_model("mm_failing_after", _mm_failing_after)


def _mm_nan_above(params):
    """The mm pair whose alternative is NaN at design points above ``x_max``."""
    x_max = float(params.pop("x_max"))
    pair = make_mm_pair(**params)

    def alternative_jac(X, theta):
        y, jac = pair.alternative_jac(X, theta)
        return np.where(X > x_max, np.nan, y), np.where(X[:, :, None] > x_max, np.nan, jac)

    return dataclasses.replace(
        pair,
        alternative=lambda X, theta: np.where(X > x_max, np.nan, pair.alternative(X, theta)),
        alternative_jac=alternative_jac,
    )


register_model("mm_nan_above", _mm_nan_above)
register_model("two_basins", lambda params: two_basins())


@pytest.fixture(scope="module")
def mm_solution(tmp_path_factory):
    out = tmp_path_factory.mktemp("mm_solve")
    code = main(["solve", "--config", MM_CONFIG, "--out", str(out)])
    return code, out


def read_design(out):
    return json.loads((out / "design.json").read_text())


def read_history(out):
    with (out / "history.csv").open() as fh:
        return list(csv.DictReader(fh))


def without_times(rows):
    return [{k: v for k, v in r.items() if k not in TIME_COLUMNS} for r in rows]


def write_mm_config(path, model="mm_vs_modmm", params="{}"):
    path.write_text(
        textwrap.dedent(
            f"""
            model:
              name: {model}
              reference_params: {params}
            design_space:
              type: box
              lower: [0.001]
              upper: [5.0]
            initial_design:
              points: [[1.0], [2.0], [3.0], [4.0]]
              weights: [0.25, 0.25, 0.25, 0.25]
            """
        )
    )
    return str(path)


class TestSolve:
    def test_exit_code_and_outputs(self, mm_solution):
        code, out = mm_solution
        assert code == 0
        assert (out / "design.json").exists()
        assert (out / "history.csv").exists()
        assert (out / "psi_curve.csv").exists()

    def test_design_contents(self, mm_solution):
        _, out = mm_solution
        payload = read_design(out)
        assert payload["converged"] is True
        assert payload["t_value"] == pytest.approx(1.1854e-3, abs=2e-5)
        assert len(payload["support"]) == len(payload["weights"])
        assert sum(payload["weights"]) == pytest.approx(1.0, abs=1e-10)

    def test_history_has_phase_timings(self, mm_solution):
        _, out = mm_solution
        with (out / "history.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {"lp_time", "ls_time", "global_time", "wall_time"} <= set(rows[0])
        assert any(r["phase"] == "disc" for r in rows)
        assert any(r["phase"] == "outer" for r in rows)
        walls = [float(r["wall_time"]) for r in rows]
        assert walls == sorted(walls)

    def test_psi_curve_shape(self, mm_solution):
        _, out = mm_solution
        with (out / "psi_curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        psis = [float(r["psi"]) for r in rows]
        assert max(psis) <= 1e-4  # near-optimal design: psi everywhere ~<= 0

    def test_numbers_roundtrip_at_twelve_digits(self, mm_solution):
        _, out = mm_solution
        payload = read_design(out)
        reread = json.loads(json.dumps(payload))
        assert reread["t_value"] == payload["t_value"]
        assert reread["weights"] == payload["weights"]

    def test_invalid_weights_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.config"
        cfg.write_text(
            textwrap.dedent(
                """
                model:
                  name: mm_vs_modmm
                design_space:
                  type: box
                  lower: [0.001]
                  upper: [5.0]
                initial_design:
                  points: [[1.0], [2.0]]
                  weights: [0.5, 0.4]
                """
            )
        )
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "initial_design.weights" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, old, new",
        [
            (MM_CONFIG, "  parameter_space:\n    lower: [1.0e-3, 1.0e-3]\n    upper: [5.0, 5.0]\n", "    parameter_space: [1, 2]\n"),
            (MM_CONFIG, "    F: 0.1\n", "    F: 0.1\n    parameter_space: [1, 2]\n"),
            (KINETICS_CONFIG, "    n3: 1.0\n", "    n3: 1.0\n    tol: 0.001\n"),
        ],
        ids=["mm-parameter-space", "mm-parameter-space-twice", "kinetics-tol"],
    )
    def test_reference_params_hold_only_reference_parameters(self, config, old, new, tmp_path, capsys):
        text = Path(config).read_text()
        assert old in text
        path = tmp_path / "bad.config"
        path.write_text(text.replace(old, new))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "model.reference_params" in errors[0]
        assert "Traceback" not in err

    def test_parameter_space_of_another_dimension_rejected(self, tmp_path, capsys):
        old = "    lower: [1.0e-3, 1.0e-3]\n    upper: [5.0, 5.0]\n"
        text = Path(MM_CONFIG).read_text()
        assert old in text
        path = tmp_path / "bad.config"
        path.write_text(text.replace(old, "    lower: [1.0e-3, 1.0e-3, 1.0e-3]\n    upper: [5.0, 5.0, 5.0]\n"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "model.parameter_space" in errors[0] and "dimension 3" in errors[0] and "has 2 parameters" in errors[0]
        assert "Traceback" not in err

    def test_eps_sip_above_eps_rejected(self, tmp_path, capsys):
        text = Path(MM_CONFIG).read_text()
        assert "  name: 2adapt\n" in text
        path = tmp_path / "bad.config"
        path.write_text(text.replace("  name: 2adapt\n", "  name: 2adapt\n  eps: 1.0e-6\n  eps_sip: 1.0e-5\n"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == ["error: algorithm.eps_sip: eps_sip 1e-05 exceeds eps 1e-06"]
        assert "Traceback" not in err
        assert not (tmp_path / "history.csv").exists()

    def test_no_sobol_starts_rejected(self, tmp_path, capsys):
        text = Path(KINETICS_BENCH).read_text()
        assert "  n_theta_starts: 1\n" in text
        path = tmp_path / "bad.config"
        path.write_text(text.replace("  n_theta_starts: 1\n", "  n_theta_starts: 0\n"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: algorithm.n_theta_starts: n_theta_starts must be >= 1")
        assert "Traceback" not in err
        assert not (tmp_path / "history.csv").exists()

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "x.config")]) == 1

    def test_disc_algorithm(self, tmp_path):
        # DISC on the four initial points cannot reach the box optimum.
        code = main(["solve", "--config", MM_CONFIG, "--algorithm", "disc", "--out", str(tmp_path)])
        assert code == 2
        payload = read_design(tmp_path)
        assert payload["converged"] is False
        assert payload["accuracy"] > 1e-5
        rows = read_history(tmp_path)
        assert {r["phase"] for r in rows} == {"disc"}
        assert len(rows) == payload["iterations"]
        assert {p[0] for p in payload["support"]} <= {1.0, 2.0, 3.0, 4.0}


class TestFailurePaths:
    """Every sub-solver failure exits 1 and flushes the history gathered so far."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_model_failure_flushes_history(self, algorithm, tmp_path, monkeypatch):
        # A full run of the counting pair gives the number of points
        # evaluated before each fit; the failure is injected at the first
        # point of the middle fit, so it does not depend on how many points
        # the solver evaluates, and no search is cut short before it.
        fit_starts = []
        fit_parameters = algorithms.fit_parameters

        def recorded(pair, *args, **kwargs):
            fit_starts.append(pair.alternative.points_evaluated())
            return fit_parameters(pair, *args, **kwargs)

        full_out, out = tmp_path / "full", tmp_path / "failing"
        counting = write_mm_config(tmp_path / "counting.config", "mm_failing_after", "{fail_after: 1.0e+12}")
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "fit_parameters", recorded)
            code = main(["solve", "--config", counting, "--algorithm", algorithm, "--out", str(full_out)])
        assert code in (0, 2)
        fail_after = fit_starts[len(fit_starts) // 2]
        cfg = write_mm_config(tmp_path / "failing.config", "mm_failing_after", f"{{fail_after: {fail_after}}}")
        code = main(["solve", "--config", cfg, "--algorithm", algorithm, "--out", str(out)])
        assert code == 1
        assert not (out / "design.json").exists()
        rows = read_history(out)
        assert rows
        if algorithm == "2adapt":
            # The rows are those of the full solve up to the failure.
            full = read_history(full_out)
            assert len(rows) < len(full)
            assert without_times(rows) == without_times(full[: len(rows)])

    def test_nonfinite_model_output_flushes_history(self, tmp_path, capsys):
        # Every point of the initial design lies above 0.8, so each start of the first fit fails.
        cfg = write_mm_config(tmp_path / "nan.config", "mm_nan_above", "{x_max: 0.8}")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert (tmp_path / "history.csv").exists() and not (tmp_path / "design.json").exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_fit_failure_flushes_history(self, tmp_path, monkeypatch):
        fits = itertools.count()
        original = algorithms.fit_parameters

        def sixth_fails(*args, **kwargs):
            if next(fits) == 5:
                raise FitError("injected fit failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(algorithms, "fit_parameters", sixth_fails)
        assert main(["solve", "--config", MM_CONFIG, "--out", str(tmp_path)]) == 1
        # The initial fit, then four inner or refit fits, each with a record.
        assert len(read_history(tmp_path)) == 4

    def test_lp_failure_flushes_history(self, tmp_path, monkeypatch, caplog):
        lps = itertools.count()
        original = algorithms.solve_weight_lp

        def third_fails(instance):
            return None if next(lps) == 2 else original(instance)

        monkeypatch.setattr(algorithms, "solve_weight_lp", third_fails)
        assert main(["solve", "--config", MM_CONFIG, "--out", str(tmp_path)]) == 1
        assert "weight LP failed" in caplog.text
        assert len(read_history(tmp_path)) >= 2

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("under", [False, True], ids=["at-a-file", "under-a-file"])
    def test_output_directory_that_cannot_be_made(self, command, under, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "out" if under else taken
        algorithms = ["--algorithms", "2adapt,disc"] if command == "compare" else []
        assert main([command, "--config", MM_CONFIG, *algorithms, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: cannot create output directory {out}: ")
        assert "Traceback" not in err


class TestVerify:
    def test_roundtrip_accepts_solver_output(self, mm_solution, capsys):
        _, out = mm_solution
        code = main(["verify", "--design", str(out / "design.json"), "--config", MM_CONFIG])
        captured = capsys.readouterr().out
        assert code == 0
        assert "max_psi" in captured and "yes" in captured

    def test_perturbed_weights_rejected(self, mm_solution, tmp_path):
        _, out = mm_solution
        payload = read_design(out)
        w = payload["weights"]
        w[0] += 0.05
        w[1] -= 0.05
        bad = tmp_path / "perturbed.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--design", str(bad), "--config", MM_CONFIG]) == 1

    def test_single_point_design_rejected(self, tmp_path):
        design = tmp_path / "single.json"
        design.write_text(json.dumps({"support": [[5.0]], "weights": [1.0]}))
        assert main(["verify", "--design", str(design), "--config", MM_CONFIG]) == 1

    def test_each_support_theta_pair_evaluated_once(self, mm_solution, monkeypatch):
        # The certificate takes its support values from the fit's phi, so
        # outside the search no (support point, theta) pair is evaluated
        # twice.  The search is not counted.
        _, out = mm_solution
        cfg = load_config(MM_CONFIG)
        seen = Counter()

        def counted(X, theta):
            for x in X:
                seen[x.tobytes(), theta.tobytes()] += 1
            return cfg.pair.alternative(X, theta)

        search = algorithms.maximize_distance
        monkeypatch.setattr(algorithms, "maximize_distance", lambda _, *a, **k: search(cfg.pair, *a, **k))
        counted_cfg = dataclasses.replace(cfg, pair=dataclasses.replace(cfg.pair, alternative=counted))
        monkeypatch.setattr(cli, "load_config", lambda _: counted_cfg)
        assert main(["verify", "--design", str(out / "design.json"), "--config", MM_CONFIG]) == 0
        assert seen and max(seen.values()) == 1

    def test_nonfinite_weight_rejected(self, tmp_path, capsys):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"support": [[0.4], [2.6], [5.0]], "weights": [float("nan"), 0.6, 0.4]}))
        assert main(["verify", "--design", str(path), "--config", MM_CONFIG]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0] == f"error: design file {path}: weights must be finite"
        assert "Traceback" not in err

    def test_malformed_design_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["verify", "--design", str(bad), "--config", MM_CONFIG]) == 1

    @pytest.mark.parametrize(
        "config, payload, message",
        [
            (MM_CONFIG, {"theta_hat": [1.0]}, "theta_hat"),
            (MM_CONFIG, {"theta_hat": [float("nan"), 1.0]}, "theta_hat"),
            (MM_CONFIG, {"theta_hat": ["fast", 1.0]}, "theta_hat"),
            (MM_CONFIG, {"support": [[1, 2], [3, 4], [2, 1]]}, "outside the design space"),
            (MM_CONFIG, {"support": [[7], [9], [12]]}, "outside the design space"),
            (
                KINETICS_CONFIG,
                {"support": [[0.6, 0.1, 0.0, 2.0], [0.9, 0.3, 0.3, 10.0], [0.5, 0.3, 0.3, 6.0]]},
                "outside the design space",
            ),
        ],
        ids=["short-theta", "nan-theta", "string-theta", "wrong-dimension", "outside-box", "off-lattice"],
    )
    def test_design_not_in_the_config_rejected(self, config, payload, message, tmp_path, capsys):
        design = {"support": [[0.4], [2.6], [5.0]], "weights": [0.4, 0.4, 0.2], **payload}
        path = tmp_path / "design.json"
        path.write_text(json.dumps(design))
        assert main(["verify", "--design", str(path), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        if message == "outside the design space":
            assert errors[0].startswith(f"error: design file {path}: design point ")
        assert "Traceback" not in err

    def test_sobol_start_beating_the_warm_fit_is_certified(self, tmp_path, capsys, caplog):
        # From theta_hat = 0.2, on the local maximum of c, the warm fit of {1: 1} stays there and
        # certifies; a Sobol start reaches c(theta) = 1, whose certificate has psi(0) = 1.
        config = tmp_path / "two_basins.config"
        config.write_text(textwrap.dedent(
            """
            model:
              name: two_basins
            design_space:
              type: box
              lower: [0.0]
              upper: [1.0]
            initial_design:
              points: [[0.0], [1.0]]
              weights: [0.5, 0.5]
            """
        ))
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"support": [[1.0]], "weights": [1.0], "theta_hat": [0.2]}))
        with caplog.at_level(logging.INFO, logger="discrimopt"):
            assert main(["verify", "--design", str(design), "--config", str(config)]) == 1
        assert "beat the warm fit" in caplog.text
        assert "max_psi=1.000000e+00" in capsys.readouterr().out.splitlines()


class TestCompare:
    def test_empty_algorithm_list(self, tmp_path):
        assert main(["compare", "--config", MM_CONFIG, "--algorithms", "", "--out", str(tmp_path)]) == 1

    def test_unknown_algorithm(self, tmp_path):
        assert (
            main(["compare", "--config", MM_CONFIG, "--algorithms", "simplex", "--out", str(tmp_path)])
            == 1
        )

    def test_single_algorithm_row(self, tmp_path):
        code = main(
            ["compare", "--config", MM_CONFIG, "--algorithms", "2adapt", "--out", str(tmp_path)]
        )
        assert code == 0
        with (tmp_path / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "2adapt"
        assert float(rows[0]["t_value"]) == pytest.approx(1.1854e-3, abs=2e-5)
        assert int(rows[0]["support_size"]) >= 2

    def test_two_algorithms(self, tmp_path):
        code = main(
            ["compare", "--config", MM_CONFIG, "--algorithms", "2adapt,disc", "--out", str(tmp_path)]
        )
        assert code == 0
        with (tmp_path / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["algorithm"] for r in rows] == ["2adapt", "disc"]
        assert float(rows[0]["t_value"]) == pytest.approx(1.1854e-3, abs=2e-5)
        assert float(rows[1]["t_value"]) < float(rows[0]["t_value"])


class TestArgumentParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_solve_requires_config(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_threads_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--config", MM_CONFIG, "--threads", "1"])


def _loaded_openblas_threads():
    """Each OpenBLAS mapped into this process, read from /proc/self/maps, with its thread-count functions."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    paths = sorted({p for p in (line.split(None, 5)[-1] for line in lines) if "openblas" in Path(p).name})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for suffix in ("", "64_"):
            for prefix in ("openblas", "scipy_openblas"):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    found[path] = (lib[f"{prefix}_get_num_threads{suffix}"], lib[f"{prefix}_set_num_threads{suffix}"])
        assert path in found, f"{path} has no known thread-count functions"
    return found


@pytest.fixture
def openblas():
    """The loaded OpenBLAS libraries, each set to two threads for the test and restored after it."""
    libs = _loaded_openblas_threads()
    if not libs:
        pytest.skip("no OpenBLAS library is loaded in this process")
    before = {path: get() for path, (get, _) in libs.items()}
    for _, set_threads in libs.values():
        set_threads(2)
    yield lambda: {path: get() for path, (get, _) in libs.items()}
    for path, (_, set_threads) in libs.items():
        set_threads(before[path])


class TestBlasThreads:
    """Each command runs BLAS on one thread and leaves every library's count as it found it."""

    def test_limiter_finds_every_loaded_openblas(self, openblas):
        assert {os.path.realpath(p) for p in cli._loaded_openblas()} == set(openblas())

    def _record(self, monkeypatch, openblas, module, name):
        seen = []
        wrapped = getattr(module, name)

        def recording(*args, **kwargs):
            seen.append(openblas())
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return seen

    def test_solve(self, openblas, monkeypatch, tmp_path):
        seen = self._record(monkeypatch, openblas, cli, "solve")
        assert main(["solve", "--config", MM_CONFIG, "--out", str(tmp_path)]) == 0
        assert [set(counts.values()) for counts in seen] == [{1}]
        assert set(openblas().values()) == {2}

    def test_verify(self, openblas, mm_solution, monkeypatch):
        # The certificate, made once: no Sobol start beats the warm fit of the solver's design.
        seen = self._record(monkeypatch, openblas, algorithms, "check_optimality")
        _, out = mm_solution
        assert main(["verify", "--design", str(out / "design.json"), "--config", MM_CONFIG]) == 0
        assert [set(counts.values()) for counts in seen] == [{1}]
        assert set(openblas().values()) == {2}

    def test_failed_command_restores_counts(self, openblas, tmp_path):
        assert main(["verify", "--design", str(tmp_path / "missing.json"), "--config", MM_CONFIG]) == 1
        assert set(openblas().values()) == {2}

    def test_unloadable_and_symbolless_libraries_skipped(self, openblas, mm_solution, monkeypatch, tmp_path):
        # A path that is not loaded fails RTLD_NOLOAD; the ctypes extension is loaded but is
        # no BLAS.  Each OpenBLAS is listed twice, and still ends at its own count.
        loaded = cli._loaded_openblas()
        extra = [str(tmp_path / "libopenblas_missing.so"), _ctypes.__file__]
        monkeypatch.setattr(cli, "_loaded_openblas", lambda: extra + loaded + extra + loaded)
        # The certificate, made once: no Sobol start beats the warm fit of the solver's design.
        seen = self._record(monkeypatch, openblas, algorithms, "check_optimality")
        _, out = mm_solution
        assert main(["verify", "--design", str(out / "design.json"), "--config", MM_CONFIG]) == 0
        assert [set(counts.values()) for counts in seen] == [{1}]
        assert set(openblas().values()) == {2}
