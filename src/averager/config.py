"""Run configuration: strict JSON schema with full double precision.

A config file is a single JSON document. Unknown keys are rejected at
every level so that a typo cannot silently fall back to a default, and
numbers survive a parse/emit round trip exactly (JSON floats are emitted
with shortest round-trip precision).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .averaging import QuadratureSpec
from .jerk import SystemParams
from .normal_form import UnfoldingParams
from .shooting import MAX_EPS, IntegratorSpec


class ConfigError(ValueError):
    """The config file is malformed or fails schema validation."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    Exactly one of unfolding (perturbation coefficients) or params (a direct
    (a, b, c) triple) is set; eps and eps_list are mutually exclusive.
    """

    unfolding: Optional[UnfoldingParams]
    params: Optional[SystemParams]
    eps: Optional[float]
    eps_list: Optional[tuple]
    quadrature: QuadratureSpec
    integrator: IntegratorSpec
    output_dir: str


def _require_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(mapping: dict, key: str, where: str, default=None) -> Optional[float]:
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _integer(mapping: dict, key: str, where: str, default: int) -> int:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _construct(cls, where: str, **fields):
    """cls(**fields), reporting the dataclass's own ValueError under where.

    The fields are parsed before the call, so a ConfigError from _number or
    _integer, which already names its full path, passes through unchanged.
    """
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_unfolding(node: dict) -> UnfoldingParams:
    _require_keys(node, {"a1", "a2", "b1", "b2", "c1", "c2", "delta"}, "unfolding")
    return _construct(
        UnfoldingParams, "unfolding",
        a1=_number(node, "a1", "unfolding", 0.0),
        a2=_number(node, "a2", "unfolding", 0.0),
        b1=_number(node, "b1", "unfolding", 0.0),
        b2=_number(node, "b2", "unfolding", 0.0),
        c1=_number(node, "c1", "unfolding", 0.0),
        c2=_number(node, "c2", "unfolding", 0.0),
        delta=_number(node, "delta", "unfolding"),
    )


def _parse_quadrature(node: dict) -> QuadratureSpec:
    _require_keys(node, {"nodes", "inner_nodes"}, "quadrature")
    return _construct(
        QuadratureSpec, "quadrature",
        nodes=_integer(node, "nodes", "quadrature", 64),
        inner_nodes=_integer(node, "inner_nodes", "quadrature", 64),
    )


def _parse_integrator(node: dict) -> IntegratorSpec:
    _require_keys(node, {"abs_tol", "rel_tol", "max_step", "max_steps"}, "integrator")
    return _construct(
        IntegratorSpec, "integrator",
        abs_tol=_number(node, "abs_tol", "integrator", 1e-11),
        rel_tol=_number(node, "rel_tol", "integrator", 1e-11),
        max_step=_number(node, "max_step", "integrator", float("inf")),
        max_steps=_integer(node, "max_steps", "integrator", 1_000_000),
    )


def from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _require_keys(
        doc,
        {"unfolding", "params", "eps", "eps_list", "quadrature", "integrator",
         "output_dir"},
        "config",
    )
    if ("unfolding" in doc) == ("params" in doc):
        raise ConfigError("config: exactly one of 'unfolding' or 'params' is required")
    unfolding = None
    params = None
    if "unfolding" in doc:
        if not isinstance(doc["unfolding"], dict):
            raise ConfigError("unfolding: expected an object")
        unfolding = _parse_unfolding(doc["unfolding"])
    else:
        node = doc["params"]
        if not isinstance(node, dict):
            raise ConfigError("params: expected an object")
        _require_keys(node, {"a", "b", "c"}, "params")
        params = SystemParams(
            a=_number(node, "a", "params"),
            b=_number(node, "b", "params"),
            c=_number(node, "c", "params"),
        )

    if "eps" in doc and "eps_list" in doc:
        raise ConfigError("config: 'eps' and 'eps_list' are mutually exclusive")
    eps = None
    eps_list = None
    if "eps" in doc:
        eps = _number(doc, "eps", "config")
        if not (0.0 < eps <= MAX_EPS):
            raise ConfigError(f"eps: must lie in (0, {MAX_EPS}], got {eps}")
    if "eps_list" in doc:
        raw = doc["eps_list"]
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError("eps_list: expected a list of at least two numbers")
        values = []
        for i, item in enumerate(raw):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"eps_list[{i}]: expected a number, got {item!r}")
            values.append(float(item))
        if any(not (0.0 < e <= MAX_EPS) for e in values):
            raise ConfigError(f"eps_list: entries must lie in (0, {MAX_EPS}]")
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ConfigError("eps_list: entries must be strictly decreasing")
        eps_list = tuple(values)

    quad_node = doc.get("quadrature", {})
    if not isinstance(quad_node, dict):
        raise ConfigError("quadrature: expected an object")
    integ_node = doc.get("integrator", {})
    if not isinstance(integ_node, dict):
        raise ConfigError("integrator: expected an object")
    output_dir = doc.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")

    return RunConfig(
        unfolding=unfolding,
        params=params,
        eps=eps,
        eps_list=eps_list,
        quadrature=_parse_quadrature(quad_node),
        integrator=_parse_integrator(integ_node),
        output_dir=output_dir,
    )


def to_dict(cfg: RunConfig) -> dict:
    """Canonical echo of a RunConfig; from_dict(to_dict(cfg)) == cfg.

    An unbounded max_step, the default, is omitted: JSON has no infinity.
    """
    doc: dict = {}
    if cfg.unfolding is not None:
        u = cfg.unfolding
        doc["unfolding"] = {
            "a1": u.a1, "a2": u.a2, "b1": u.b1, "b2": u.b2,
            "c1": u.c1, "c2": u.c2, "delta": u.delta,
        }
    if cfg.params is not None:
        doc["params"] = {"a": cfg.params.a, "b": cfg.params.b, "c": cfg.params.c}
    if cfg.eps is not None:
        doc["eps"] = cfg.eps
    if cfg.eps_list is not None:
        doc["eps_list"] = list(cfg.eps_list)
    doc["quadrature"] = {
        "nodes": cfg.quadrature.nodes,
        "inner_nodes": cfg.quadrature.inner_nodes,
    }
    doc["integrator"] = {
        "abs_tol": cfg.integrator.abs_tol,
        "rel_tol": cfg.integrator.rel_tol,
        "max_steps": cfg.integrator.max_steps,
    }
    if math.isfinite(cfg.integrator.max_step):
        doc["integrator"]["max_step"] = cfg.integrator.max_step
    doc["output_dir"] = cfg.output_dir
    return doc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file.

    The file must be strict JSON: NaN and Infinity are rejected.
    """
    def reject(name):
        raise ConfigError(f"config {path}: {name} is not a JSON number")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_constant=reject)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(doc)
