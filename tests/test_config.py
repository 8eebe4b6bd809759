import copy
import dataclasses
import importlib.resources
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

import discrimopt
from discrimopt import AlgoParams, Box, Lattice
from discrimopt.cli import main
from discrimopt.config import ConfigError, ProblemConfig, load_config

CONFIG_DIR = importlib.resources.files("discrimopt") / "configs"
ROOT = Path(__file__).parent.parent


def write_config(tmp_path, body):
    path = tmp_path / "problem.config"
    path.write_text(textwrap.dedent(body))
    return path


MINIMAL = """
model:
  name: mm_vs_modmm
design_space:
  type: box
  lower: [0.001]
  upper: [5.0]
initial_design:
  points: [[1.0], [2.0]]
  weights: [0.5, 0.5]
"""


class TestBundledConfigs:
    def test_mm_config_loads(self):
        cfg = load_config(CONFIG_DIR / "mm.config")
        assert isinstance(cfg.space, Box)
        assert cfg.algorithm == "2adapt"
        assert cfg.initial.n_points == 4
        assert cfg.pair.eval_reference([1.0])[0] == pytest.approx(0.6)

    def test_kinetics_config_loads(self):
        cfg = load_config(CONFIG_DIR / "kinetics.config")
        assert isinstance(cfg.space, Lattice)
        assert len(list(cfg.space.enumerate())) == 135
        assert cfg.initial.n_points == 5
        assert cfg.pair.d_y == 3


class TestValidation:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.algorithm == "2adapt"
        assert cfg.params.eps == 1e-5

    def test_weights_not_summing_to_one(self, tmp_path):
        bad = MINIMAL.replace("[0.5, 0.5]", "[0.5, 0.4]")
        with pytest.raises(ConfigError, match="initial_design.weights"):
            load_config(write_config(tmp_path, bad))

    def test_missing_section(self, tmp_path):
        bad = "\n".join(
            line for line in MINIMAL.splitlines() if "initial_design" not in line
        ).replace("  points: [[1.0], [2.0]]\n", "")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "model:\n  name: mm_vs_modmm\n"))

    def test_algorithm_with_every_key_commented_out(self, tmp_path):
        body = MINIMAL + "\nalgorithm:\n  # name: vdm\n  # eps: 1.0e-6\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.algorithm == "2adapt"
        assert cfg.params == load_config(write_config(tmp_path, MINIMAL)).params

    def test_reference_params_with_every_key_commented_out(self, tmp_path):
        body = MINIMAL.replace(
            "  name: mm_vs_modmm\n", "  name: mm_vs_modmm\n  reference_params:\n    # V: 2.0\n"
        )
        default = load_config(write_config(tmp_path, MINIMAL))
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.pair.eval_reference([1.0])[0] == default.pair.eval_reference([1.0])[0]

    def test_output_of_another_type_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="output: expected a mapping, got bool"):
            load_config(write_config(tmp_path, MINIMAL + "\noutput: false\n"))

    def test_unknown_field_named(self, tmp_path):
        bad = MINIMAL + "\nalgorithm:\n  name: 2adapt\n  epsilon: 1.0\n"
        with pytest.raises(ConfigError, match="algorithm"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_keys_of_mixed_types_named(self, tmp_path):
        bad = MINIMAL + "\nalgorithm:\n  name: 2adapt\n  1: 2\n  foo: 3\n"
        with pytest.raises(ConfigError, match=r"^algorithm\.1, algorithm\.foo: unknown field"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_model(self, tmp_path):
        bad = MINIMAL.replace("mm_vs_modmm", "unknown_pair")
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_algorithm_name(self, tmp_path):
        bad = MINIMAL + "\nalgorithm:\n  name: gradient_descent\n"
        with pytest.raises(ConfigError, match="algorithm.name"):
            load_config(write_config(tmp_path, bad))

    def test_point_outside_space(self, tmp_path):
        bad = MINIMAL.replace("[[1.0], [2.0]]", "[[1.0], [7.0]]")
        with pytest.raises(ConfigError, match=r"initial_design.points\[1\]"):
            load_config(write_config(tmp_path, bad))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.config"
        path.write_text("model:\n  name: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    @pytest.mark.parametrize(
        "config",
        [CONFIG_DIR / "mm.config", CONFIG_DIR / "kinetics.config", ROOT / "benchmarks" / "kinetics.config"],
        ids=["mm", "kinetics", "benchmark-kinetics"],
    )
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="pyyaml built without libyaml")
    def test_libyaml_and_python_loaders_agree(self, config):
        # load_config uses libyaml's loader when pyyaml was built with it.
        text = Path(config).read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.config")

    def test_lattice_space(self, tmp_path):
        body = MINIMAL.replace(
            "type: box\n  lower: [0.001]\n  upper: [5.0]",
            "type: lattice\n  levels: [[1.0, 2.0, 3.0]]",
        )
        cfg = load_config(write_config(tmp_path, body))
        assert isinstance(cfg.space, Lattice)

    def test_bad_space_type(self, tmp_path):
        bad = MINIMAL.replace("type: box", "type: sphere")
        with pytest.raises(ConfigError, match="design_space.type"):
            load_config(write_config(tmp_path, bad))


class TestAlgorithmDefaults:
    def test_vdm_gets_its_own_defaults(self, tmp_path):
        body = MINIMAL + "\nalgorithm:\n  name: vdm\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.params.max_iter == 1000
        assert cfg.params.lam == 0.0

    def test_explicit_overrides_beat_vdm_defaults(self, tmp_path):
        body = MINIMAL + "\nalgorithm:\n  name: vdm\n  max_iter: 50\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.params.max_iter == 50

    def test_params_for_other_algorithm(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        assert load_config(path).params.max_iter == 100
        vdm = load_config(path, "vdm")
        assert vdm.algorithm == "vdm"
        assert vdm.params.max_iter == 1000
        assert vdm.params.lam == 0.0

    def test_unknown_algorithm_argument_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown algorithm 'simplex'"):
            load_config(write_config(tmp_path, MINIMAL), "simplex")

    def test_eps_alone_sets_eps_sip(self, tmp_path):
        body = MINIMAL + "\nalgorithm:\n  name: 2adapt\n  eps: 1.0e-6\n"
        path = write_config(tmp_path, body)
        cfg = load_config(path)
        assert cfg.params.eps == cfg.params.eps_sip == 1e-6
        assert load_config(path, "vdm").params.eps_sip == 1e-6

    def test_lambda_key_maps_to_regularizer(self, tmp_path):
        body = MINIMAL + "\nalgorithm:\n  name: 2adapt\n  lambda: 1.0e-6\n"
        cfg = load_config(write_config(tmp_path, body))
        assert cfg.params.lam == 1e-6

    @pytest.mark.parametrize("key, value, message", [
        ("lambda", ".nan", "lam must be finite, got nan"),
        ("lambda", ".inf", "lam must be finite, got inf"),
        ("eps", ".nan", "eps must be finite, got nan"),
        ("eps_sip", ".nan", "eps_sip must be finite, got nan"),
        ("max_iter", "3.0", "max_iter must be an integer, got 3.0"),
        ("n_theta_starts", "2.5", "n_theta_starts must be an integer, got 2.5"),
    ])
    def test_nonfinite_and_noninteger_settings_rejected(self, key, value, message, tmp_path, capsys):
        # Unchecked, each reaches the solver: a scipy traceback, a TypeError mid-solve, or a run that no eps stops.
        path = write_config(tmp_path, MINIMAL + f"\nalgorithm:\n  name: 2adapt\n  {key}: {value}\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: algorithm.{key}: {message}"]
        assert "Traceback" not in err

    def test_bool_count_rejected(self):
        with pytest.raises(TypeError, match="^max_iter_sip must be an integer, got True$"):
            AlgoParams(max_iter_sip=True)
        assert AlgoParams(max_iter=np.int64(3)).max_iter == 3


class TestAcceptedSurface:
    """The keys a config accepts and the names the package exports; a new option is a test edit."""

    # Config section -> its accepted keys, as its unknown-field error lists them.
    SECTIONS = {
        (): ["algorithm", "design_space", "initial_design", "model", "output"],
        ("model",): ["name", "parameter_space", "reference_params"],
        ("model", "parameter_space"): ["lower", "upper"],
        ("design_space",): ["lower", "type", "upper"],
        ("initial_design",): ["points", "weights"],
        ("algorithm",): ["eps", "eps_sip", "lambda", "max_iter", "max_iter_sip", "n_theta_starts", "name"],
        ("output",): ["directory", "emit_psi_curve"],
    }

    def test_accepted_keys_exports_and_fields(self, tmp_path):
        box = yaml.safe_load(MINIMAL)
        box["model"]["parameter_space"] = {"lower": [0.001, 0.001], "upper": [5.0, 5.0]}
        box.update(algorithm={"name": "2adapt"}, output={"emit_psi_curve": False})
        lattice = {**box, "design_space": {"type": "lattice", "levels": [[1.0, 2.0]]}}
        cases = [(box, section, known) for section, known in self.SECTIONS.items()]
        cases.append((lattice, ("design_space",), ["levels", "type"]))
        for i, (base, section, known) in enumerate(cases):
            tree = copy.deepcopy(base)
            node = tree
            for part in section:
                node = node[part]
            node["bogus"] = 1
            path = tmp_path / f"{i}.config"
            path.write_text(yaml.safe_dump(tree))
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value) == f"{''.join(p + '.' for p in section)}bogus: unknown field(s); known: {known}"

        assert sorted(discrimopt.__all__) == [
            "ALGORITHMS", "AlgoParams", "Box", "Design", "Lattice",
            "ModelEvaluationError", "ModelPair", "check_optimality", "disc",
            "make_mm_pair", "pointwise", "solve", "two_adapt_md", "vdm",
        ]
        assert not hasattr(discrimopt, "ParameterSpace")
        names = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                 for cls in (AlgoParams, ProblemConfig)}
        assert names == {
            "AlgoParams": ["eps", "max_iter", "n_theta_starts", "lam", "eps_sip", "max_iter_sip"],
            "ProblemConfig": ["pair", "space", "initial", "algorithm", "params", "emit_psi_curve", "output_dir"],
        }

    @pytest.mark.parametrize("section, key, value", [
        ("algorithm", "vdm_step_rule", "harmonic"),
        ("algorithm", "prune_threshold", 1.0e-6),
        ("algorithm", "tie_rel", 1.0e-6),
        ("algorithm", "local_tol", 1.0e-10),
        ("algorithm", "grid_per_dim", 64),
        ("algorithm", "refine_top", 5),
        ("output", "psi_grid", 400),
    ])
    def test_removed_key_rejected(self, section, key, value, tmp_path, capsys):
        tree = yaml.safe_load(MINIMAL)
        tree[section] = {key: value}
        path = tmp_path / "problem.config"
        path.write_text(yaml.safe_dump(tree))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {section}.{key}: unknown field")
        assert "Traceback" not in err
