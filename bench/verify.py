"""Per-operation correctness gates.

Every gate uses the bound of the acceptance suite (tests/test_acceptance.py)
or a stricter one, and none is ever loosened:

- shooting residual below 1e-10 (criterion 5);
- period within 5% of 2 pi / delta (criterion 5);
- located count equal to predicted count, each orbit within 25% of its
  seed eps * (w, r) (criterion 5);
- numeric averages within 1e-9 of the closed forms (criterion 2);
- find_roots roots within 1e-6 of the predicted roots, with matching
  Jacobian determinant signs (criteria 3 and 7);
- sweep amplitude slopes in [0.9, 1.1], seed-error slopes above 1 and
  every orbit shrinking monotonically (criterion 6).

A gate returns a list of failure messages; an empty list means the
operation passed. The verified count is the number of orbits, or of grid
points, that passed every gate.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import workloads as W

RESIDUAL_TOL = 1e-10
PERIOD_REL = 0.05
SEED_DIST_REL = 0.25
ORACLE_TOL = 1e-9
ROOT_TOL = 1e-6
AMP_SLOPE = (0.9, 1.1)
SEED_ERROR_SLOPE_MIN = 1.0
TRACE_SAMPLES = 512


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _match_root(root, expected):
    """Index of the expected root equal to root, or None."""
    for i, (r, w) in enumerate(expected):
        if _close(root[0], r, 1e-9) and _close(root[1], w, 1e-9):
            return i
    return None


def _check_trace(path: Path, section_point, period) -> list[str]:
    """The trace is 512 finite samples over one period from the section."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["t", "x", "y", "z"] or len(rows) != TRACE_SAMPLES + 1:
        return [f"{path.name}: bad header or {len(rows) - 1} samples"]
    values = [[float(v) for v in row] for row in rows[1:]]
    if not all(math.isfinite(v) for row in values for v in row):
        return [f"{path.name}: non-finite sample"]
    t0, x0, y0, z0 = values[0]
    if (abs(t0) > 1e-12 or not _close(values[-1][0], period, 1e-12)
            or not _close(x0, section_point[0], 1e-12)
            or not _close(y0, section_point[1], 1e-12) or abs(z0) > 1e-12):
        return [f"{path.name}: does not start on the section point "
                f"or does not span one period"]
    return []


def _check_orbit(orbit: dict, delta: float, eps: float, root, out: Path,
                 label: str) -> list[str]:
    errors = []
    if not orbit["residual"] < RESIDUAL_TOL:
        errors.append(f"{label}: residual {orbit['residual']:.3e}")
    period0 = 2.0 * math.pi / delta
    if not abs(orbit["period"] - period0) <= PERIOD_REL * period0:
        errors.append(f"{label}: period {orbit['period']!r} vs {period0!r}")
    target = (eps * root[1], eps * root[0])
    dist = math.dist(orbit["section_point"], target)
    if not dist < SEED_DIST_REL * math.hypot(*target):
        errors.append(f"{label}: section point {dist:.3e} from its seed")
    errors += _check_trace(out / orbit["trace"], orbit["section_point"],
                           orbit["period"])
    return errors


def check_orbits(op: dict, out: Path, code: int):
    expected = op["expect"]["roots"]
    if code != 0:
        return [f"exit code {code}"], 0
    doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    u = op["config"]["unfolding"]
    errors = []
    if doc["predicted_count"] != len(expected):
        errors.append(f"predicted {doc['predicted_count']}, "
                      f"closed form gives {len(expected)}")
    if doc["located_count"] != len(expected) or doc["failures"]:
        errors.append(f"located {doc['located_count']} of {len(expected)}")
    seen = set()
    for k, orbit in enumerate(doc["orbits"]):
        i = _match_root(orbit["root"], expected)
        if i is None or i in seen:
            errors.append(f"orbit {k}: root {orbit['root']} not predicted")
            continue
        seen.add(i)
        errors += _check_orbit(orbit, u["delta"], op["config"]["eps"],
                               expected[i], out, f"orbit {k}")
    return errors, (len(seen) if not errors else 0)


def check_sweep(op: dict, out: Path, code: int):
    expected = op["expect"]["roots"]
    if code != 0:
        return [f"exit code {code}"], 0
    doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    u = op["config"]["unfolding"]
    eps_list = op["config"]["eps_list"]
    errors = []
    roots = [tuple(r) for r in doc["roots"]]
    if len(roots) != len(expected) or any(
            _match_root(r, expected) != i for i, r in enumerate(roots)):
        errors.append(f"roots {roots} differ from the closed form")
        return errors, 0
    if [e["eps"] for e in doc["entries"]] != eps_list:
        errors.append("sweep entries do not follow eps_list")
        return errors, 0
    verified = 0
    for entry in doc["entries"]:
        if entry["failures"] or len(entry["records"]) != len(expected):
            errors.append(f"eps {entry['eps']}: {len(entry['records'])} of "
                          f"{len(expected)} orbits, {entry['failures']}")
            continue
        for key, rec in entry["records"].items():
            errors += _check_orbit(rec, u["delta"], entry["eps"],
                                   expected[int(key)], out,
                                   f"eps {entry['eps']} orbit {key}")
            verified += 1
    for i in range(len(expected)):
        amp = doc["amp_slopes"].get(str(i))
        if amp is None or not AMP_SLOPE[0] <= amp <= AMP_SLOPE[1]:
            errors.append(f"orbit {i}: amplitude slope {amp}")
        slope = doc["seed_error_slopes"].get(str(i))
        if slope is None or not slope > SEED_ERROR_SLOPE_MIN:
            errors.append(f"orbit {i}: seed-error slope {slope}")
    if doc["monotone"] is not True:
        errors.append("orbit extents do not shrink monotonically")
    return errors, (verified if not errors else 0)


def _check_table(path: Path, unfolding: dict) -> list[str]:
    u = {k: unfolding.get(k, 0.0) for k in ("a1", "a2", "b1", "b2", "delta")}
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != W.GRID_N * W.GRID_N:
        return [f"average_table.csv: {len(rows)} rows"]
    errors = []
    bad, worst = 0, (0.0, None)
    for row in rows:
        r, w = float(row["r"]), float(row["w"])
        f_ref = W.f_oracle(r, w, u["a1"], u["b1"], u["delta"])
        g_ref = W.g_oracle(r, w, u["a2"], u["b2"], u["delta"])
        got = [float(row[k]) for k in ("f1_num", "f2_num", "g1_num", "g2_num")]
        dev = max(abs(a - b) for a, b in zip(got, f_ref + g_ref))
        if not dev <= ORACLE_TOL:
            bad += 1
            if not dev <= worst[0]:
                worst = (dev, (r, w))
    if bad:
        errors.append(f"{bad} grid points off the closed forms, worst "
                      f"{worst[0]:.3e} at {worst[1]}")
    r_axis = sorted({float(row["r"]) for row in rows})
    w_axis = sorted({float(row["w"]) for row in rows})
    if (len(r_axis) != W.GRID_N or len(w_axis) != W.GRID_N
            or not _close(r_axis[0], W.GRID_R[0], 1e-12)
            or not _close(r_axis[-1], W.GRID_R[1], 1e-12)
            or not _close(w_axis[0], W.GRID_W[0], 1e-12)
            or not _close(w_axis[-1], W.GRID_W[1], 1e-12)):
        errors.append("average_table.csv: grid differs from the 20x20 box")
    return errors


def _check_find_roots(path: Path, expected, dets) -> list[str]:
    found = json.loads(path.read_text(encoding="utf-8"))
    if len(found) != len(expected):
        return [f"find_roots: {len(found)} roots, predicted {len(expected)}"]
    errors = []
    for (r, w), det in zip(expected, dets):
        near = [f for f in found
                if max(abs(f["z"][0] - r), abs(f["z"][1] - w)) <= ROOT_TOL]
        if len(near) != 1:
            errors.append(f"find_roots: no unique root near ({r}, {w})")
        elif math.copysign(1.0, near[0]["jac_det"]) != math.copysign(1.0, det):
            errors.append(f"find_roots: determinant sign at ({r}, {w})")
    return errors


def check_average(op: dict, out: Path, code: int):
    if code != 0:
        return [f"exit code {code}"], 0
    doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    errors = []
    for key in ("max_abs_dev_first", "max_abs_dev_second"):
        if not doc[key] <= ORACLE_TOL:
            errors.append(f"{key} = {doc[key]:.3e}")
    errors += _check_table(out / "average_table.csv", op["config"]["unfolding"])
    if op["find_roots"]:
        errors += _check_find_roots(out / "find_roots.json",
                                    op["expect"]["roots"],
                                    op["expect"]["jac_dets"])
    return errors, (W.GRID_N * W.GRID_N if not errors else 0)


CHECKS = {"orbits": check_orbits, "sweep": check_sweep,
          "average": check_average}


def check(op: dict, out: Path, code: int):
    """(failure messages, verified units) for one operation's outputs."""
    try:
        return CHECKS[op["command"]](op, out, code)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], 0
