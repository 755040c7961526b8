"""Command-line front end.

Subcommands classify, average, orbits and sweep drive the full pipeline
from a JSON config file. A command fills in a summary document and
returns its exit code; main writes the document once, as summary.json in
the output directory, after the command returns or is refused. A run
refused on the hypotheses (exit 2) records why under "error". average
additionally writes average_table.csv: a header and 400 rows, one per
point of the 20 x 20 (r, w) grid, with every number at 17 significant
digits, the same format as the traces. orbits and sweep additionally
emit orbit_<i>.csv traces with columns t,x,y,z at 17 significant digits,
each the record's trace: the dense output of the return that located
the orbit, sampled at 512 times over one period.
Output is deterministic: re-running a command with the same config
produces byte-identical files.

orbits and sweep both run shooting.sweep_epsilon, which checks the
theorem's hypotheses before it shoots. Where it refuses they write only
summary.json, with case degenerate on a collapse boundary; otherwise they
take the case label and the roots from the prediction it returns.

Exit codes: 0 ok, 1 config error or unwritable output, 2 hypothesis
violation, 3 oracle mismatch, 4 shooting shortfall.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from enum import Enum
from functools import cache
from pathlib import Path

import numpy as np

from .averaging import average_first, average_second
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

#: largest deviation of average's numeric means from the closed forms at a
#: grid point, relative to max(1, |closed value|) there
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
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
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


def _fields(obj, *drop: str) -> dict:
    """The dataclass obj's fields by name, without those named in drop."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)
            if f.name not in drop}


def _write_orbit(out_dir: Path, trace: str, rec: PeriodicOrbitRecord) -> dict:
    """Write rec's trace to out_dir / trace; the orbit's summary record:
    every field of rec but mirror_leg, with trace the file's name."""
    _write_trace(out_dir / trace, *rec.trace)
    return dict(_fields(rec, "mirror_leg"), trace=trace)


def _require_unfolding(cfg: RunConfig):
    if cfg.unfolding is None:
        raise ConfigError("this command needs an 'unfolding' block in the config")
    return cfg.unfolding


def cmd_classify(cfg: RunConfig, out_dir: Path, doc: dict, args) -> int:
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
            points.append(_fields(cls))
        doc["equilibria"] = points
        doc["verdict"] = ("zero-Hopf equilibrium at the origin" if zero_hopf
                          else "no zero-Hopf equilibrium")
        _say(args, f"verdict: {doc['verdict']}")
        return EXIT_OK

    u = _require_unfolding(cfg)
    base = unfold(u, 0.0)
    cls = classify_equilibrium(base, (0.0, 0.0, 0.0))
    doc["base_point"] = dict(_fields(cls, "point"), params=_fields(base))
    if cfg.eps is not None:
        doc["unfolded"] = dict(_fields(unfold(u, cfg.eps)), eps=cfg.eps)
    prediction = predicted_roots(u.a2, u.b2, u.delta)
    doc["case"] = prediction.count
    doc["roots"] = [list(root) for root in prediction.roots]
    doc["jacobian_determinants"] = list(prediction.jac_dets)
    if prediction.degenerate_reason is not None:
        doc["degenerate_reason"] = prediction.degenerate_reason
    _say(args, f"case: {prediction.count.value}, roots: {doc['roots']}")
    return EXIT_OK


def _relative_deviation(dev: np.ndarray, closed: np.ndarray) -> float:
    """The largest deviation over the grid relative to max(1, |closed
    value|) at its point: the quantity the oracle holds to ORACLE_TOL.

    dev holds the largest deviation of the components at each point and
    closed the closed values, components first. g grows like delta^-5,
    so an absolute bound would judge a large g by round-off. A NaN ratio
    anywhere, inf / inf included (a finite numeric value against an
    infinite closed one), makes it NaN, which fails the oracle;
    cmd_average calls it with numpy's invalid-value warning off.
    """
    relative = dev / np.maximum(1.0, np.abs(closed).max(axis=0))
    return float(np.max(relative))


def cmd_average(cfg: RunConfig, out_dir: Path, doc: dict, args) -> int:
    u = _require_unfolding(cfg)
    sys_first = jerk_standard_form(u)
    slice_u = replace(u, a1=0.0, b1=0.0)
    sys_second = jerk_standard_form(slice_u)

    doc["grid"] = {"r": [GRID_R[0], GRID_R[1], GRID_N],
                   "w": [GRID_W[0], GRID_W[1], GRID_N]}
    z = np.array(np.meshgrid(np.linspace(*GRID_R, GRID_N),
                             np.linspace(*GRID_W, GRID_N), indexing="ij"))
    f_num = average_first(sys_first, z, cfg.quadrature)
    g_num = average_second(sys_second, z, cfg.quadrature)
    # extreme coefficients (a1 = 1e307) overflow the closed forms or the
    # means, and an infinite value makes a NaN or infinite deviation and
    # ratio (inf - inf, inf / inf): written as null, they fail the oracle
    with np.errstate(over="ignore", invalid="ignore"):
        f_ref = f_closed(*z, u.a1, u.b1, u.delta)
        g_ref = g_closed(*z, u.a2, u.b2, u.delta)
        dev_f = np.abs(f_num - f_ref).max(axis=0)
        dev_g = np.abs(g_num - g_ref).max(axis=0)
        rel_first = _relative_deviation(dev_f, f_ref)
        rel_second = _relative_deviation(dev_g, g_ref)
    dev_first, dev_second = float(dev_f.max()), float(dev_g.max())
    # r and f1_closed vary along the first grid axis only, w and f2_closed
    # along the second, so _average_rows formats each of them once
    _write_csv(out_dir / "average_table.csv",
               "r,w,f1_num,f2_num,f1_closed,f2_closed,"
               "g1_num,g2_num,g1_closed,g2_closed",
               _average_rows(z[0][:, 0].tolist(), z[1][0].tolist(),
                             f_ref[0][:, 0].tolist(), f_ref[1][0].tolist()),
               np.stack([*f_num, *g_num, *g_ref], axis=-1).ravel().tolist())

    ok = rel_first <= ORACLE_TOL and rel_second <= ORACLE_TOL
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
    _say(args, f"max relative deviation: first {rel_first:.3e}, "
               f"second {rel_second:.3e} (tolerance {ORACLE_TOL:g})")
    return EXIT_OK if ok else EXIT_ORACLE


def cmd_orbits(cfg: RunConfig, out_dir: Path, doc: dict, args) -> int:
    u = _require_unfolding(cfg)
    if cfg.eps is None:
        raise ConfigError("orbits needs 'eps'; use the sweep command for eps_list")
    result = sweep_epsilon(u, [cfg.eps], cfg.integrator)
    prediction = result.prediction
    doc["case"] = prediction.count
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
    return EXIT_SHOOTING if entry.failures else EXIT_OK


def cmd_sweep(cfg: RunConfig, out_dir: Path, doc: dict, args) -> int:
    u = _require_unfolding(cfg)
    if cfg.eps_list is None:
        raise ConfigError("sweep needs 'eps_list' in the config")
    result = sweep_epsilon(u, cfg.eps_list, cfg.integrator)
    doc["case"] = result.prediction.count
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

    doc.update(_fields(result, "prediction"), roots=result.prediction.roots,
               entries=entries)
    _say(args, f"amplitude slopes: {_jsonable(result.amp_slopes)}, "
               f"monotone: {result.monotone}")
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
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out if args.out is not None else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = {"command": args.command, "config": to_dict(cfg)}
        try:
            code = _COMMANDS[args.command](cfg, out_dir, doc, args)
        except HypothesisViolated as exc:
            if isinstance(exc, DegeneratePrediction):
                doc["case"] = OrbitCount.DEGENERATE
            doc["error"] = {"kind": type(exc).__name__, "reason": str(exc)}
            _say(args, f"{_REFUSAL_TEXT[type(exc).__name__]}: {exc}")
            code = EXIT_HYPOTHESIS
        _write_summary(out_dir, doc, args)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
