import csv
import dataclasses
import importlib.resources
import itertools
import json
import textwrap

import numpy as np
import pytest

import discrimopt.algorithms as algorithms
from discrimopt import FitError, WeightLpSolution, make_mm_pair, register_model
from discrimopt.cli import main

CONFIG_DIR = importlib.resources.files("discrimopt") / "configs"
MM_CONFIG = str(CONFIG_DIR / "mm.config")
TIME_COLUMNS = {"lp_time", "ls_time", "global_time", "wall_time"}


def _mm_failing_after(params):
    """The mm pair whose model raises from its ``fail_after``-th call on.

    ``alternative`` and ``alternative_jac`` share one call counter, so the
    failure reaches fits (which call the Jacobian) and searches alike.
    """
    fail_after = int(params.pop("fail_after"))
    pair = make_mm_pair(**params)
    calls = itertools.count()

    def failing(fn):
        def call(x, theta):
            if next(calls) >= fail_after:
                raise RuntimeError("injected failure")
            return fn(x, theta)

        return call

    return dataclasses.replace(
        pair,
        alternative=failing(pair.alternative),
        alternative_jac=failing(pair.alternative_jac),
    )


register_model("mm_failing_after", _mm_failing_after)


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

    @pytest.mark.parametrize("algorithm, fail_after", [("2adapt", 5000), ("vdm", 5000), ("disc", 2000)])
    def test_model_failure_flushes_history(self, algorithm, fail_after, tmp_path, mm_solution):
        cfg = write_mm_config(
            tmp_path / "failing.config", "mm_failing_after", f"{{fail_after: {fail_after}}}"
        )
        code = main(["solve", "--config", cfg, "--algorithm", algorithm, "--out", str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "design.json").exists()
        rows = read_history(tmp_path)
        assert rows
        if algorithm == "2adapt":
            # The rows are those of the full solve up to the failure.
            full = read_history(mm_solution[1])
            assert len(rows) < len(full)
            assert without_times(rows) == without_times(full[: len(rows)])

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
            if next(lps) == 2:
                n = instance.n_points
                return WeightLpSolution(np.full(n, 1.0 / n), 0.0, "infeasible_numerics")
            return original(instance)

        monkeypatch.setattr(algorithms, "solve_weight_lp", third_fails)
        assert main(["solve", "--config", MM_CONFIG, "--out", str(tmp_path)]) == 1
        assert "weight LP failed" in caplog.text
        assert len(read_history(tmp_path)) >= 2


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

    def test_malformed_design_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["verify", "--design", str(bad), "--config", MM_CONFIG]) == 1


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
