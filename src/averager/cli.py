"""Command-line front end.

Subcommands classify, average, orbits and sweep drive the full pipeline
from a JSON config file. Every command writes a summary.json into the
output directory; a run refused on the hypotheses, or an average whose
quadrature did not converge, records why under "error". average
additionally writes average_table.csv: a header and 400 rows, one per
point of the 20 x 20 (r, w) grid, with every number at 17 significant
digits, the same format as the traces. orbits and sweep additionally
emit orbit_<i>.csv traces with columns t,x,y,z at 17 significant digits,
each the record's trace: the dense output of the return that located
the orbit, sampled at 512 times over one period.
Output is deterministic: re-running a command with the same config
produces byte-identical files.

orbits and sweep both run shooting.sweep_epsilon, which checks the
theorem's hypotheses before it shoots. Where it refuses they exit 2 and
write only summary.json; otherwise they take the case label and the roots
from the prediction it returns.

Exit codes: 0 ok, 1 config error or unwritable output, 2 hypothesis
violation, 3 oracle mismatch or unconverged quadrature, 4 shooting
shortfall.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace
from enum import Enum
from functools import cache
from pathlib import Path

import numpy as np

from .averaging import QuadratureNotConverged, average_first, average_second
from .closed_form import (
    DegeneratePrediction,
    HypothesisViolated,
    OrbitCount,
    f_closed,
    g_closed,
    predicted_roots,
)
from .config import ConfigError, RunConfig, load_config, to_dict
from .jerk import (
    EquilibriumKind,
    NotAnEquilibrium,
    classify_equilibrium,
    equilibria,
)
from .normal_form import jerk_standard_form, unfold
from .shooting import PeriodicOrbitRecord, sweep_epsilon

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_ORACLE = 3
EXIT_SHOOTING = 4

ORACLE_TOL = 1e-8
GRID_R = (0.5, 8.0)
GRID_W = (-2.0, 2.0)
GRID_N = 20


def _jsonable(obj):
    """Recursively convert numbers, arrays and enums to JSON-safe values.

    NaN, which marks a missing value such as a failed sweep entry's
    max_coords, becomes null, and so does an infinity such as an
    overflowed deviation.
    """
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_summary(out_dir: Path, doc: dict, args) -> None:
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    (out_dir / "summary.json").write_text(text, encoding="utf-8")
    if args.json:
        sys.stdout.write(text)


def _say(args, message: str) -> None:
    if not args.quiet and not args.json:
        print(message)


_REFUSAL_TEXT = {"HypothesisViolated": "hypothesis violated",
                 "DegeneratePrediction": "degenerate prediction"}


def _refuse(out_dir: Path, doc: dict, args, exc: HypothesisViolated) -> int:
    """Write a summary recording why the run was refused; exit code 2."""
    kind = type(exc).__name__
    doc["error"] = {"kind": kind, "reason": str(exc)}
    _say(args, f"{_REFUSAL_TEXT[kind]}: {exc}")
    _write_summary(out_dir, doc, args)
    return EXIT_HYPOTHESIS


def _shoot(u, eps_list, spec, out_dir: Path, doc: dict, args):
    """sweep_epsilon with its case label in doc; None once refused."""
    try:
        result = sweep_epsilon(u, eps_list, spec)
    except HypothesisViolated as exc:
        if isinstance(exc, DegeneratePrediction):
            doc["case"] = OrbitCount.DEGENERATE
        _refuse(out_dir, doc, args, exc)
        return None
    doc["case"] = result.prediction.count
    return result


def _write_csv(path: Path, header: str, rows: str, values: list) -> None:
    """The header line, then rows % values.

    rows is the body as a %-template: each row ends in a newline, and each
    number is either a %.17g field, filled in order from values, or a
    string already formatted with %.17g. Either way every number in the
    file has 17 significant digits.
    """
    path.write_text(header + "\n" + rows % tuple(values), encoding="utf-8")


def _write_trace(path: Path, t: np.ndarray, states: np.ndarray) -> None:
    _write_csv(path, "t,x,y,z", "%.17g,%.17g,%.17g,%.17g\n" * len(t),
               np.column_stack([t, states]).ravel().tolist())


def _average_rows(r: list, w: list, f1: list, f2: list) -> str:
    """average_table.csv's template with the one-axis columns baked in.

    Row (i, j) holds r[i], w[j], f1[i] and f2[j], each formatted once with
    %.17g, and a %.17g field for each of the other six columns.
    """
    r, w, f1, f2 = (["%.17g" % v for v in axis] for axis in (r, w, f1, f2))
    return "".join([f"{ri},{wj},%.17g,%.17g,{f1i},{f2j},"
                    "%.17g,%.17g,%.17g,%.17g\n"
                    for ri, f1i in zip(r, f1) for wj, f2j in zip(w, f2)])


def _write_orbit(out_dir: Path, trace: str, rec: PeriodicOrbitRecord) -> dict:
    """Write rec's trace to out_dir / trace; the orbit's summary record."""
    _write_trace(out_dir / trace, *rec.trace)
    return {
        "eps": rec.eps,
        "section_point": rec.section_point,
        "period": rec.period,
        "residual": rec.residual,
        "newton_step": rec.newton_step,
        "floquet": rec.floquet,
        "trivial_multiplier_defect": rec.trivial_multiplier_defect,
        "seed": rec.seed,
        "seed_candidate": rec.seed_candidate,
        "returns": rec.returns,
        "trace": trace,
    }


def _require_unfolding(cfg: RunConfig):
    if cfg.unfolding is None:
        raise ConfigError("this command needs an 'unfolding' block in the config")
    return cfg.unfolding


def cmd_classify(cfg: RunConfig, out_dir: Path, args) -> int:
    doc: dict = {"command": "classify", "config": to_dict(cfg)}
    if cfg.params is not None:
        points = []
        zero_hopf = False
        for point in equilibria(cfg.params):
            try:
                cls = classify_equilibrium(cfg.params, point)
            except NotAnEquilibrium as exc:
                raise ConfigError(
                    f"cannot classify an equilibrium: {exc}") from exc
            zero_hopf = zero_hopf or cls.kind is EquilibriumKind.ZERO_HOPF
            points.append({
                "point": list(cls.point),
                "eigenvalues": cls.eigenvalues,
                "kind": cls.kind,
            })
        doc["equilibria"] = points
        doc["verdict"] = ("zero-Hopf equilibrium at the origin" if zero_hopf
                          else "no zero-Hopf equilibrium")
        _say(args, f"verdict: {doc['verdict']}")
        _write_summary(out_dir, doc, args)
        return EXIT_OK

    u = _require_unfolding(cfg)
    base = unfold(u, 0.0)
    cls = classify_equilibrium(base, (0.0, 0.0, 0.0))
    doc["base_point"] = {
        "params": {"a": base.a, "b": base.b, "c": base.c},
        "eigenvalues": cls.eigenvalues,
        "kind": cls.kind,
    }
    if cfg.eps is not None:
        p = unfold(u, cfg.eps)
        doc["unfolded"] = {"eps": cfg.eps, "a": p.a, "b": p.b, "c": p.c}
    try:
        prediction = predicted_roots(u.a2, u.b2, u.delta)
    except HypothesisViolated as exc:
        return _refuse(out_dir, doc, args, exc)
    doc["case"] = prediction.count
    doc["roots"] = [list(root) for root in prediction.roots]
    doc["jacobian_determinants"] = list(prediction.jac_dets)
    if prediction.degenerate_reason is not None:
        doc["degenerate_reason"] = prediction.degenerate_reason
    _say(args, f"case: {prediction.count.value}, roots: {doc['roots']}")
    _write_summary(out_dir, doc, args)
    return EXIT_OK


def cmd_average(cfg: RunConfig, out_dir: Path, args) -> int:
    u = _require_unfolding(cfg)
    sys_first = jerk_standard_form(u)
    slice_u = replace(u, a1=0.0, b1=0.0)
    sys_second = jerk_standard_form(slice_u)

    doc = {
        "command": "average",
        "config": to_dict(cfg),
        "grid": {"r": [GRID_R[0], GRID_R[1], GRID_N],
                 "w": [GRID_W[0], GRID_W[1], GRID_N]},
    }
    z = np.array(np.meshgrid(np.linspace(*GRID_R, GRID_N),
                             np.linspace(*GRID_W, GRID_N), indexing="ij"))
    try:
        f_num = average_first(sys_first, z, cfg.quadrature)
        g_num = average_second(sys_second, z, cfg.quadrature)
    except QuadratureNotConverged as exc:
        doc["error"] = {"kind": type(exc).__name__, "reason": str(exc)}
        print(f"quadrature not converged: {exc}", file=sys.stderr)
        _write_summary(out_dir, doc, args)
        return EXIT_ORACLE
    f_ref = f_closed(*z, u.a1, u.b1, u.delta)
    g_ref = g_closed(*z, u.a2, u.b2, u.delta)
    dev_first = float(np.max(np.abs(f_num - f_ref)))
    dev_second = float(np.max(np.abs(g_num - g_ref)))
    # r and f1_closed vary along the first grid axis only, w and f2_closed
    # along the second, so _average_rows formats each of them once
    _write_csv(out_dir / "average_table.csv",
               "r,w,f1_num,f2_num,f1_closed,f2_closed,"
               "g1_num,g2_num,g1_closed,g2_closed",
               _average_rows(z[0][:, 0].tolist(), z[1][0].tolist(),
                             f_ref[0][:, 0].tolist(), f_ref[1][0].tolist()),
               np.stack([*f_num, *g_num, *g_ref], axis=-1).ravel().tolist())

    ok = max(dev_first, dev_second) <= ORACLE_TOL
    doc.update({
        "max_abs_dev_first": dev_first,
        "max_abs_dev_second": dev_second,
        "tolerance": ORACLE_TOL,
        "oracle_ok": ok,
        "table": "average_table.csv",
    })
    if u.a1 != 0.0 or u.b1 != 0.0:
        doc["second_order_note"] = (
            "second-order comparison evaluated at a1 = b1 = 0; the closed "
            "form is defined on that slice")
    _say(args, f"max deviation: first {dev_first:.3e}, second {dev_second:.3e} "
               f"(tolerance {ORACLE_TOL:g})")
    _write_summary(out_dir, doc, args)
    return EXIT_OK if ok else EXIT_ORACLE


def cmd_orbits(cfg: RunConfig, out_dir: Path, args) -> int:
    u = _require_unfolding(cfg)
    if cfg.eps is None:
        raise ConfigError("orbits needs 'eps'; use the sweep command for eps_list")
    doc: dict = {"command": "orbits", "config": to_dict(cfg)}
    result = _shoot(u, [cfg.eps], cfg.integrator, out_dir, doc, args)
    if result is None:
        return EXIT_HYPOTHESIS

    prediction = result.prediction
    entry = result.entries[0]
    orbits = []
    for i, root in enumerate(prediction.roots):
        if i in entry.failures:
            kind = entry.failures[i].partition(":")[0]
            _say(args, f"orbit {i}: failed ({kind})")
            continue
        rec = entry.records[i]
        orbits.append(dict(_write_orbit(out_dir, f"orbit_{i}.csv", rec),
                           root=root, jac_det=prediction.jac_dets[i]))
        _say(args, f"orbit {i}: period {rec.period:.12g}, "
                   f"residual {rec.residual:.3e}")

    doc["orbits"] = orbits
    doc["failures"] = entry.failures
    doc["predicted_count"] = len(prediction.roots)
    doc["located_count"] = len(orbits)
    _write_summary(out_dir, doc, args)
    return EXIT_SHOOTING if entry.failures else EXIT_OK


def cmd_sweep(cfg: RunConfig, out_dir: Path, args) -> int:
    u = _require_unfolding(cfg)
    if cfg.eps_list is None:
        raise ConfigError("sweep needs 'eps_list' in the config")
    doc: dict = {"command": "sweep", "config": to_dict(cfg)}
    result = _shoot(u, cfg.eps_list, cfg.integrator, out_dir, doc, args)
    if result is None:
        return EXIT_HYPOTHESIS

    entries = []
    for entry in result.entries:
        eps_dir = f"sweep/{entry.eps}"
        (out_dir / eps_dir).mkdir(parents=True, exist_ok=True)
        records = {i: _write_orbit(out_dir, f"{eps_dir}/orbit_{i}.csv", rec)
                   for i, rec in entry.records.items()}
        entries.append({"eps": entry.eps, "records": records,
                        "failures": entry.failures})
        _say(args, f"eps {entry.eps}: {len(records)} orbit(s), "
                   f"{len(entry.failures)} failure(s)")

    doc["roots"] = result.prediction.roots
    doc["entries"] = entries
    doc["amp_slopes"] = {str(i): s for i, s in result.amp_slopes.items()}
    doc["seed_error_slopes"] = result.seed_error_slopes
    doc["max_coords"] = result.max_coords
    doc["monotone"] = result.monotone
    _say(args, f"amplitude slopes: {doc['amp_slopes']}, "
               f"monotone: {result.monotone}")
    _write_summary(out_dir, doc, args)
    return (EXIT_SHOOTING if any(entry.failures for entry in result.entries)
            else EXIT_OK)


_COMMANDS = {
    "classify": cmd_classify,
    "average": cmd_average,
    "orbits": cmd_orbits,
    "sweep": cmd_sweep,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="averager",
        description="Periodic orbits of a zero-Hopf jerk system by averaging "
                    "and Poincare-section shooting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("classify", "equilibria, eigenvalues, case label and predicted roots"),
        ("average", "numeric averaged functions against the closed forms"),
        ("orbits", "shoot every predicted orbit and emit trace files"),
        ("sweep", "repeat orbit location over a decreasing eps list"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides config output_dir)")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress lines on stdout")
        cmd.add_argument("--json", action="store_true",
                         help="print the summary document to stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    # basicConfig acts only once per process, so the level is set on every
    # call: a --quiet call and a loud one may share an interpreter
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("averager").setLevel(
        logging.WARNING if args.quiet else logging.INFO)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
