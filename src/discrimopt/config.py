"""Problem configuration files.

YAML key-tree with sections ``model``, ``design_space``, ``initial_design``,
``algorithm``, and ``output``.  Validation errors name the offending field by
its dotted path.  The complete schema is documented in the README and in the
two bundled example files under ``discrimopt/configs/``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .algorithms import ALGORITHMS, AlgoParams
from .core import Box, Design, DesignError, DesignSpace, Lattice, ModelPair
from .models import registered_models, registry_lookup

__all__ = ["ConfigError", "ProblemConfig", "load_config"]

# Config key -> AlgoParams field; ``lam`` is spelled ``lambda``.
_ALGO_KEYS = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(AlgoParams)}
# The VDM conventionally runs unregularized (every support point keeps
# positive weight) with a higher iteration budget; explicit settings win.
_VDM_DEFAULTS = {"max_iter": 1000, "lambda": 0.0}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class ProblemConfig:
    pair: ModelPair
    space: DesignSpace
    initial: Design
    algorithm: str
    params: AlgoParams
    emit_psi_curve: bool = True
    output_dir: str | None = None


def _expect_mapping(node, path, optional=False):
    """``node`` as a mapping; an optional section whose keys are all commented out is null, read as empty."""
    if optional and node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node

def _get(node: dict, key: str, path: str, required=True, default=None):
    if key not in node:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    return node[key]


def _reject_unknown(node: dict, known, path: str):
    unknown = sorted(set(node) - set(known), key=str)
    if unknown:
        names = ", ".join(str(k) if path == "<root>" else f"{path}.{k}" for k in unknown)
        raise ConfigError(f"{names}: unknown field(s); known: {sorted(known)}")


def _float_list(node, path):
    try:
        arr = [float(v) for v in node]
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a list of numbers, got {node!r}") from None
    if not arr:
        raise ConfigError(f"{path}: list must be nonempty")
    return arr


def _parse_model(node, path="model") -> ModelPair:
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"name", "reference_params", "parameter_space"}, path)
    name = _get(node, "name", path)
    if not isinstance(name, str):
        raise ConfigError(f"{path}.name: expected a string")
    params = dict(_expect_mapping(node.get("reference_params"), f"{path}.reference_params", optional=True))
    space = None
    if "parameter_space" in node:
        ps = _expect_mapping(node["parameter_space"], f"{path}.parameter_space")
        _reject_unknown(ps, {"lower", "upper"}, f"{path}.parameter_space")
        try:
            space = Box(
                _float_list(_get(ps, "lower", f"{path}.parameter_space"), f"{path}.parameter_space.lower"),
                _float_list(_get(ps, "upper", f"{path}.parameter_space"), f"{path}.parameter_space.upper"),
            )
        except DesignError as exc:
            raise ConfigError(f"{path}.parameter_space: {exc}") from exc
    try:
        return registry_lookup(name, params, space)
    except DesignError as exc:
        raise ConfigError(f"{path}.parameter_space: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        field = "reference_params" if name in registered_models() else "name"
        raise ConfigError(f"{path}.{field}: {exc.args[0] if exc.args else exc}") from exc


def _parse_space(node, path="design_space") -> DesignSpace:
    node = _expect_mapping(node, path)
    kind = _get(node, "type", path)
    if kind == "box":
        _reject_unknown(node, {"type", "lower", "upper"}, path)
        try:
            return Box(
                _float_list(_get(node, "lower", path), f"{path}.lower"),
                _float_list(_get(node, "upper", path), f"{path}.upper"),
            )
        except DesignError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if kind == "lattice":
        _reject_unknown(node, {"type", "levels"}, path)
        levels = _get(node, "levels", path)
        if not isinstance(levels, list) or not levels:
            raise ConfigError(f"{path}.levels: expected a nonempty list of level lists")
        try:
            return Lattice(tuple(_float_list(lv, f"{path}.levels[{i}]") for i, lv in enumerate(levels)))
        except DesignError as exc:
            raise ConfigError(f"{path}.levels: {exc}") from exc
    raise ConfigError(f"{path}.type: must be 'box' or 'lattice', got {kind!r}")


def _parse_initial(node, space: DesignSpace, path="initial_design") -> Design:
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"points", "weights"}, path)
    raw_points = _get(node, "points", path)
    if not isinstance(raw_points, list) or not raw_points:
        raise ConfigError(f"{path}.points: expected a nonempty list of points")
    points = []
    for i, p in enumerate(raw_points):
        coords = p if isinstance(p, list) else [p]
        points.append(_float_list(coords, f"{path}.points[{i}]"))
    weights = _float_list(_get(node, "weights", path), f"{path}.weights")
    try:
        design = Design(np.array(points), np.array(weights))
    except DesignError as exc:
        raise ConfigError(f"{path}.weights: {exc}") from exc
    for i, p in enumerate(design.points):
        if not space.contains(p):
            raise ConfigError(f"{path}.points[{i}]: point {p.tolist()} lies outside the design space")
    return design


def _parse_algorithm(node, algorithm=None, path="algorithm"):
    """The algorithm that will run, ``algorithm`` or else the configured one, and its parameters."""
    node = _expect_mapping(node, path, optional=True)
    _reject_unknown(node, {"name", *_ALGO_KEYS}, path)
    name = node.get("name", "2adapt")
    if name not in ALGORITHMS:
        raise ConfigError(f"{path}.name: must be one of {list(ALGORITHMS)}, got {name!r}")
    if algorithm is not None and algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; known: {list(ALGORITHMS)}")
    name = algorithm or name
    settings = {**(_VDM_DEFAULTS if name == "vdm" else {}), **node}
    try:
        return name, AlgoParams(**{_ALGO_KEYS[key]: v for key, v in settings.items() if key in _ALGO_KEYS})
    except (TypeError, ValueError) as exc:
        # A message that opens with a field's name is about that field.
        key = {target: key for key, target in _ALGO_KEYS.items()}.get(str(exc).split(" ", 1)[0])
        raise ConfigError(f"{path}.{key}: {exc}" if key else f"{path}: {exc}") from exc


def _parse_output(node, path="output"):
    node = _expect_mapping(node, path, optional=True)
    _reject_unknown(node, {"directory", "emit_psi_curve"}, path)
    emit = node.get("emit_psi_curve", True)
    if not isinstance(emit, bool):
        raise ConfigError(f"{path}.emit_psi_curve: expected a boolean")
    directory = node.get("directory")
    if directory is not None and not isinstance(directory, str):
        raise ConfigError(f"{path}.directory: expected a string path")
    return emit, directory


def load_config(path: str | Path, algorithm: str | None = None) -> ProblemConfig:
    """Parse and validate a problem configuration file.

    ``algorithm``, one of :data:`~discrimopt.algorithms.ALGORITHMS`, replaces the configured
    ``algorithm.name``; the parameters are built for the algorithm that will run.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        tree = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error in {path}{where}: {exc}") from exc
    tree = _expect_mapping(tree, "<root>")
    _reject_unknown(tree, {"model", "design_space", "initial_design", "algorithm", "output"}, "<root>")

    pair = _parse_model(_get(tree, "model", "<root>"))
    space = _parse_space(_get(tree, "design_space", "<root>"))
    initial = _parse_initial(_get(tree, "initial_design", "<root>"), space)
    name, params = _parse_algorithm(tree.get("algorithm"), algorithm)
    emit, directory = _parse_output(tree.get("output"))
    return ProblemConfig(
        pair=pair,
        space=space,
        initial=initial,
        algorithm=name,
        params=params,
        emit_psi_curve=emit,
        output_dir=directory,
    )
