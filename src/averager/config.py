"""Run configuration: strict JSON schema with full double precision.

A config file is a single JSON document. Unknown keys are rejected at
every level so that a typo cannot silently fall back to a default, and
numbers survive a parse/emit round trip exactly (JSON floats are emitted
with shortest round-trip precision).
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
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


def _require_keys(mapping: dict, cls, where: str) -> None:
    """Reject the keys of mapping that name no field of the dataclass cls."""
    unknown = set(mapping) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(container, key, where: str) -> float:
    """container[key] as a finite float; container is an object or a list."""
    value = container[key]
    path = f"{where}[{key}]" if isinstance(container, list) else f"{where}.{key}"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    # a literal beyond the double range parses to inf (1e400) or to an
    # integer that float() cannot convert (a 400-digit one)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _integer(mapping: dict, key: str, where: str) -> int:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _parse(cls, node: dict, where: str, required=()):
    """cls built from node, one key per dataclass field.

    node must be an object. Each present key is checked against its
    field's type; an absent key takes the dataclass default, unless the
    field has none or is named in required. The dataclass's own ValueError
    is reported under where; a ConfigError from _number or _integer already
    names its full path.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    _require_keys(node, cls, where)
    values = {}
    for f in fields(cls):
        if f.name in node:
            parse = _integer if f.type == "int" else _number
            values[f.name] = parse(node, f.name, where)
        elif f.name in required or f.default is MISSING:
            raise ConfigError(f"{where}: missing required key '{f.name}'")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def from_dict(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
    _require_keys(doc, RunConfig, "config")
    if ("unfolding" in doc) == ("params" in doc):
        raise ConfigError("config: exactly one of 'unfolding' or 'params' is required")
    unfolding = None
    params = None
    if "unfolding" in doc:
        unfolding = _parse(UnfoldingParams, doc["unfolding"], "unfolding",
                           required=("delta",))
    else:
        params = _parse(SystemParams, doc["params"], "params")

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
        values = [_number(raw, i, "eps_list") for i in range(len(raw))]
        if any(not (0.0 < e <= MAX_EPS) for e in values):
            raise ConfigError(f"eps_list: entries must lie in (0, {MAX_EPS}]")
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ConfigError("eps_list: entries must be strictly decreasing")
        eps_list = tuple(values)

    quadrature = _parse(QuadratureSpec, doc.get("quadrature", {}),
                        "quadrature")
    integrator = _parse(IntegratorSpec, doc.get("integrator", {}),
                        "integrator")
    output_dir = doc.get("output_dir", "results")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")

    return RunConfig(
        unfolding=unfolding,
        params=params,
        eps=eps,
        eps_list=eps_list,
        quadrature=quadrature,
        integrator=integrator,
        output_dir=output_dir,
    )


def to_dict(cfg: RunConfig) -> dict:
    """Canonical echo of a RunConfig; from_dict(to_dict(cfg)) == cfg."""
    doc = {key: value for key, value in asdict(cfg).items() if value is not None}
    if cfg.eps_list is not None:
        doc["eps_list"] = list(cfg.eps_list)
    return doc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file.

    The file must be strict JSON in UTF-8: NaN and Infinity are rejected,
    and so is a number literal beyond the double range.
    """
    def reject(name):
        raise ConfigError(f"config {path}: {name} is not a JSON number")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle, parse_constant=reject)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:  # e.g. an integer literal beyond 4300 digits
        raise ConfigError(f"config {path} cannot be parsed: {exc}") from exc
    return from_dict(doc)
