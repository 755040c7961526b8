"""Run configuration: strict JSON schema with full double precision.

This module, jerk and closed_form are the package's scalar layer: they
import no numpy. So config owns IntegratorSpec, the shooter's spec that
it parses, with its bounds, MAX_EPS, the range of eps that the shooter
accepts, and QuadratureSpec, the averaging engine's rule. The rule is
no config key: the standard form's tables are trigonometric polynomials
of low degree, so every node count in range gives the same means, and
RunConfig.quadrature is always the default rule.

A config file is a single JSON document. Unknown keys are rejected at
every level so that a typo cannot silently fall back to a default, and
numbers survive a parse/emit round trip exactly (JSON floats are emitted
with shortest round-trip precision).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

from .jerk import SystemParams, UnfoldingParams

#: bound on |eps| accepted by the shooter
MAX_EPS = 0.2

#: largest accepted node count. The rule is exact at every count from 16
#: up, since the tables' degrees lie far below half of it; the bound
#: keeps a caller's count to the range it has always had
MAX_NODES = 512

#: smallest tol accepted: an error below 100 units in the last place is
#: lost in the round-off of the Taylor sums
MIN_TOL = 100 * sys.float_info.epsilon

#: largest tol accepted. Newton converges at a looser tol too, to a
#: wrong orbit: on the showcase at eps 0.1 the section point of orbit 0
#: moves from its place at the default tol by 1.3e-6 at tol 1e-6, and,
#: with this bound lifted, by 5.0e-5 at 1e-4 and by 0.15 at 0.5 (largest
#: coordinate)
MAX_TOL = 1e-6


class ConfigError(ValueError):
    """The config file is malformed or fails schema validation."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget for the averages.

    nodes is the size of the equispaced rule that samples the tables, in
    [16, MAX_NODES]; every size in range gives the exact averages, to
    round-off.
    """

    nodes: int = 64

    def __post_init__(self):
        if not 16 <= self.nodes <= MAX_NODES:
            raise ValueError(
                f"node count must lie in [16, {MAX_NODES}], got {self.nodes}"
            )


@dataclass(frozen=True)
class IntegratorSpec:
    """Tolerance of the Taylor integrator.

    tol, in [MIN_TOL, MAX_TOL], sets the order and the step length of
    every step (see the shooting module docstring); beyond MAX_TOL the
    located orbits drift from the true ones while Newton still converges.
    The step budget of a leg is the constant shooting.MAX_STEPS.
    """

    tol: float = 1e-11

    def __post_init__(self):
        if not MIN_TOL <= self.tol <= MAX_TOL:
            raise ValueError(f"tol must be in [{MIN_TOL:.3g}, {MAX_TOL:g}], "
                             f"got {self.tol}")


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
    integrator: IntegratorSpec
    output_dir: str

    #: the averaging rule of cli.cmd_average, and of bench/child.py until
    #: ROADMAP item 1 drops that read; no field, so no config key
    quadrature = QuadratureSpec()


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


def _parse(cls, node: dict, where: str, required=()):
    """cls built from node, one key per dataclass field.

    node must be an object. Each present key is parsed as a number; an
    absent key takes the dataclass default, unless the field has none or
    is named in required. The dataclass's own ValueError is reported
    under where; a ConfigError from _number already names its full path.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    _require_keys(node, cls, where)
    values = {}
    for f in fields(cls):
        if f.name in node:
            values[f.name] = _number(node, f.name, where)
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
