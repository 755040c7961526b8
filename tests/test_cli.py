"""Command-line behavior: exit codes, outputs, determinism."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import averager
from averager import cli, closed_form, shooting
from averager.cli import (
    _average_rows,
    _jsonable,
    _write_csv,
    _write_trace,
    main,
)
from averager.config import from_dict
from averager.jerk import MAX_DELTA, MIN_DELTA, EquilibriumClass, SystemParams
from averager.shooting import PeriodicOrbitRecord, SweepResult

THREE_ORBIT_DOC = {
    "unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0},
    "eps": 0.1,
}
C1_DOC = {
    "unfolding": {"a2": 1.0, "b2": 5.0, "c1": 0.5, "c2": -0.3, "delta": 2.0},
    "eps": 0.1,
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, command, doc, extra=()):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), "--quiet",
                 *extra])
    return code, out


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))


def test_classify_three_orbit_case(tmp_path):
    code, out = run(tmp_path, "classify", THREE_ORBIT_DOC)
    assert code == 0
    doc = read_summary(out)
    assert doc["case"] == "three"
    assert doc["base_point"]["kind"] == "zero-hopf"
    assert doc["unfolded"]["a"] == pytest.approx(0.01)
    assert doc["unfolded"]["b"] == pytest.approx(0.05)
    assert doc["unfolded"]["c"] == pytest.approx(-4.0)
    assert len(doc["roots"]) == 3
    assert doc["roots"][0] == [4.0, 0.0]
    assert doc["jacobian_determinants"][0] == pytest.approx(3.0 / 64.0)


def test_classify_direct_params_mode(tmp_path):
    code, out = run(tmp_path, "classify",
                    {"params": {"a": 3.6, "b": 1.3, "c": 0.1}})
    assert code == 0
    doc = read_summary(out)
    assert doc["verdict"] == "no zero-Hopf equilibrium"
    assert len(doc["equilibria"]) == 1


def test_classify_params_mode_far_from_the_origin(tmp_path, capsys):
    """At b = -2e12 the equilibria (+-sqrt(-b), 0, 0) leave a field
    residual of 512 from rounding alone; all three still classify. At
    b = -1e300 the field overflows to NaN at (1e150, 0, 0), and the run is
    refused as a config error that names the point."""
    code, out = run(tmp_path, "classify",
                    {"params": {"a": 0.0, "b": -2e12, "c": 1.0}})
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    points = read_summary(out)["equilibria"]
    root = math.sqrt(2e12)
    assert [p["point"] for p in points] == [[0.0, 0.0, 0.0], [root, 0.0, 0.0],
                                            [-root, 0.0, 0.0]]
    assert all(p["kind"] == "hyperbolic" for p in points)

    (tmp_path / "overflow").mkdir()
    code, out = run(tmp_path / "overflow", "classify",
                    {"params": {"a": 0.0, "b": -1e300, "c": 1.0}})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "[1e+150, 0.0, 0.0]" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("params", [{"a": 0.0, "b": -1e300, "c": -1.0},
                                    {"a": 1e308, "b": -1e308, "c": 1e308}])
def test_classify_refuses_an_overflowing_equilibrium(tmp_path, capsys,
                                                     params):
    """x^3 leaves the double range at x = sqrt(-b) = 1e150 and 1e154: the
    field's residual is NaN, and classify exits 1 with the config error
    line alone on stderr, no traceback or warning."""
    code, out = run(tmp_path, "classify", {"params": params})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot classify an equilibrium")
    assert err.endswith("has field residual nan\n") and err.count("\n") == 1
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("delta", [1e-9] + [
    pytest.param(delta, marks=pytest.mark.xfail(
        strict=True, reason="_kind_of bounds the pair's imaginary parts, "
                            "+-delta, by the absolute TOL_EIG = 1e-10"))
    for delta in (1e-10, 1e-11, 1e-20)])
def test_classify_base_point_is_zero_hopf_at_small_delta(tmp_path, delta):
    """The base point (0, 0, -delta^2) of an unfolding is zero-Hopf at
    every delta. From delta = 1e-10 down classify reads it as
    other-nonhyperbolic, a known defect pinned by the strict xfails so
    that a change of the classifier shows; its mending conflicts with
    acceptance criterion 1's absolute rule |a|, |b| < 1e-10 and needs a
    change of its own."""
    code, out = run(tmp_path, "classify",
                    {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": delta}})
    assert code == 0
    assert read_summary(out)["base_point"]["kind"] == "zero-hopf"


def test_classify_zero_hopf_params_mode(tmp_path):
    code, out = run(tmp_path, "classify",
                    {"params": {"a": 0.0, "b": 0.0, "c": -4.0}})
    assert code == 0
    assert read_summary(out)["verdict"] == "zero-Hopf equilibrium at the origin"


def test_classify_hypothesis_violation_exit_code(tmp_path):
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 3.0**0.5}}
    code, out = run(tmp_path, "classify", doc)
    assert code == 2
    assert read_summary(out)["error"]["kind"] == "HypothesisViolated"


def test_classify_degenerate_boundary_is_reported_not_fatal(tmp_path):
    doc = {"unfolding": {"a2": 1.0, "b2": 1.0, "delta": 1.0}}
    code, out = run(tmp_path, "classify", doc)
    assert code == 0
    summary = read_summary(out)
    assert summary["case"] == "degenerate"
    assert summary["roots"] == []
    assert "degenerate_reason" in summary


COLLAPSE = {"a2": 1.0, "b2": 1.0, "delta": 1.0}


@pytest.mark.parametrize("command, doc, expected, kind", [
    ("orbits", {"unfolding": COLLAPSE, "eps": 0.1}, 2, "DegeneratePrediction"),
    ("sweep", {"unfolding": COLLAPSE, "eps_list": [0.1, 0.05]}, 2,
     "DegeneratePrediction"),
    ("classify", {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 3.0**0.5}},
     2, "HypothesisViolated"),
    ("orbits", {"unfolding": {"a1": -0.3, "a2": 0.25, "b2": -1.5,
                              "delta": 1.3}, "eps": 0.1},
     2, "HypothesisViolated"),
    ("average", {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0,
                               "c1": 1e5}}, 3, None),
], ids=["orbits", "sweep", "classify-delta2-3",
        "orbits-a1", "average-unconverged"])
def test_collapse_boundary_is_refused_as_degenerate(tmp_path, capsys, command,
                                                    doc, expected, kind):
    """classify reports the collapse boundary as degenerate; shooting
    refuses it, and --json prints the refusal's summary.json. Every refused
    run, and an average that fails its oracle, goes through the same
    write: stdout is exactly summary.json, and stderr is empty. A refusal
    records why under error; the failed oracle (kind None, at c1 = 1e5,
    where the c1^2 terms of the means cancel to round-off of 1.5e-7
    relative) records oracle_ok false and no error."""
    code, out = run(tmp_path, command, doc, extra=["--json"])
    assert code == expected
    text = (out / "summary.json").read_text(encoding="utf-8")
    assert capsys.readouterr() == (text, "")
    summary = json.loads(text)
    assert summary["command"] == command
    if kind is None:
        assert "error" not in summary
        assert summary["oracle_ok"] is False
        return
    assert summary["error"]["kind"] == kind
    assert summary["error"]["reason"]
    if kind == "DegeneratePrediction":
        assert summary["case"] == "degenerate"


@pytest.mark.parametrize("command", ["orbits", "sweep"])
def test_nonzero_first_order_coefficients_are_refused(tmp_path, command):
    """Off a1 = b1 = 0 the predicted roots are no orbits: exit 2, no shot."""
    eps = {"orbits": {"eps": 0.1}, "sweep": {"eps_list": [0.1, 0.05]}}
    doc = {"unfolding": {"a1": -0.3, "b1": 0.5, "a2": 0.25, "b2": -1.5,
                         "delta": 1.3}, **eps[command]}
    code, out = run(tmp_path, command, doc)
    assert code == 2
    summary = read_summary(out)
    assert summary["error"]["kind"] == "HypothesisViolated"
    assert "a1 = b1 = 0" in summary["error"]["reason"]
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


def near_boundary(boundary, a2, b2, delta, offset):
    """(a2, b2, delta) at offset from boundary of closed_form._degeneracies:
    0 is delta^2 = 3, 1 is 2*a2*delta^2 = b2, 2 is a2*delta^2 = b2 and 3
    is a2*delta^2 = -2*b2; the offset is that boundary's quantity."""
    d2 = delta ** 2
    if boundary == 0:
        return a2, b2, math.sqrt(3.0 - offset)
    b2 = {1: 2.0 * a2 * d2 - offset, 2: a2 * d2 - offset,
          3: 0.5 * (offset - a2 * d2)}[boundary]
    return a2, b2, delta


@pytest.mark.parametrize("boundary", range(4))
@settings(max_examples=5)
@given(a2=st.floats(-3.0, 3.0), b2=st.floats(-5.0, 5.0),
       delta=st.floats(0.5, 2.5), sign=st.sampled_from([-1.0, 1.0]),
       decade=st.floats(-12.0, -3.0))
def test_orbits_and_sweep_near_a_boundary_exit_cleanly(boundary, a2, b2,
                                                       delta, sign, decade):
    """Within 1e-12 to 1e-3 of a boundary, orbits and sweep either refuse
    (exit 2, summary.json alone), locate or fail to locate orbits (exit 0
    or 4); the summary is strict JSON either way."""
    unfolding = dict(zip(("a2", "b2", "delta"), near_boundary(
        boundary, a2, b2, delta, sign * 10.0 ** decade)))
    runs = [("orbits", {"eps": 0.05}), ("sweep", {"eps_list": [0.05, 0.025]})]
    for command, eps in runs:
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run(Path(tmp), command,
                            {"unfolding": unfolding, **eps})
            text = (out / "summary.json").read_text(encoding="utf-8")
            summary = json.loads(text, parse_constant=_reject_constant)
            assert code in (0, 2, 4), (command, unfolding, code)
            if code == 2:
                assert summary["error"]["kind"] in ("HypothesisViolated",
                                                    "DegeneratePrediction")
                assert sorted(p.name for p in out.iterdir()) == ["summary.json"]



@settings(max_examples=20)
@given(decade=st.floats(-16.0, 1.0),
       max_steps=st.one_of(st.none(), st.integers(1, 40)))
@example(decade=-11.0, max_steps=2)  # every leg fails: exit 4
def test_orbits_with_a_drawn_integrator_block_exits_cleanly(decade,
                                                            max_steps):
    """Whatever tol in [1e-16, 10] the integrator block holds, with
    shooting.MAX_STEPS as it is or cut to 1 to 40 steps, orbits on the
    showcase refuses the config (exit 1), locates or fails to locate
    orbits (exit 0 or 4), and never raises; past the config check,
    summary.json is strict JSON."""
    integrator = {"tol": 10.0 ** decade}
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patched:
        if max_steps is not None:
            patched.setattr(shooting, "MAX_STEPS", max_steps)
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stderr(stderr):
                code, out = run(Path(tmp), "orbits",
                                dict(THREE_ORBIT_DOC, integrator=integrator))
            assert code in (0, 1, 4), (integrator, code)
            assert "Traceback" not in stderr.getvalue()
            if code != 1:
                text = (out / "summary.json").read_text(encoding="utf-8")
                json.loads(text, parse_constant=_reject_constant)


def assert_row_by_row_table(out_dir):
    """average_table.csv has its header and 400 rows, each the same bytes
    as its ten numbers formatted one by one with %.17g; the rows run over
    the r-w grid, and each closed form sits beside its numeric value."""
    lines = (out_dir / "average_table.csv").read_text(
        encoding="utf-8").split("\n")
    assert lines[0] == ("r,w,f1_num,f2_num,f1_closed,f2_closed,"
                        "g1_num,g2_num,g1_closed,g2_closed")
    assert len(lines) == 1 + 20 * 20 + 1 and lines[-1] == ""
    for row in lines[1:-1]:
        assert row == ",".join("%.17g" % float(v) for v in row.split(","))
    table = np.loadtxt(lines[1:-1], delimiter=",")
    grid = np.meshgrid(np.linspace(0.5, 8.0, 20), np.linspace(-2.0, 2.0, 20),
                       indexing="ij")
    assert np.array_equal(table[:, :2], np.reshape(grid, (2, -1)).T)
    num, closed = table[:, [2, 3, 6, 7]], table[:, [4, 5, 8, 9]]
    assert np.max(np.abs(num - closed)) < 1e-8


def test_average_oracle_match(tmp_path, capsys, recwarn):
    """At the default nodes and at 512, where each pass is evaluated in
    chunks, average matches the closed forms and says nothing on stderr:
    no message and no warning."""
    for i, config in enumerate([
            THREE_ORBIT_DOC, dict(THREE_ORBIT_DOC, quadrature={"nodes": 512})]):
        (tmp_path / str(i)).mkdir()
        code, out = run(tmp_path / str(i), "average", config)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert not recwarn.list
        doc = read_summary(out)
        assert doc["oracle_ok"] is True
        assert doc["max_abs_dev_first"] < 1e-9
        assert doc["max_abs_dev_second"] < 1e-9
        assert_row_by_row_table(out)


def test_average_notes_first_order_slice(tmp_path):
    """Off a1 = b1 = 0, on the config orbits refuses too, average still
    matches the closed forms and notes the slice."""
    for i, unfolding in enumerate([
            {"a1": 0.5, "b1": -0.4, "a2": 1.0, "b2": 5.0, "delta": 2.0},
            {"a1": -0.3, "b1": 0.5, "a2": 0.25, "b2": -1.5, "delta": 1.3}]):
        (tmp_path / str(i)).mkdir()
        code, out = run(tmp_path / str(i), "average", {"unfolding": unfolding})
        assert code == 0
        summary = read_summary(out)
        assert summary["oracle_ok"] is True
        assert "second_order_note" in summary
        assert_row_by_row_table(out)


def test_orbits_three_traces(tmp_path):
    """Three traces, with and without c1 and c2; the -w orbit alone is
    seeded from its mirrored partner and accepted on its first return."""
    for i, config in enumerate([THREE_ORBIT_DOC, C1_DOC]):
        (tmp_path / str(i)).mkdir()
        code, out = run(tmp_path / str(i), "orbits", config)
        assert code == 0
        doc = read_summary(out)
        assert doc["predicted_count"] == 3
        assert doc["located_count"] == 3
        assert doc["failures"] == {}
        for j in range(3):
            lines = (out / f"orbit_{j}.csv").read_text(encoding="utf-8")
            rows = lines.strip().split("\n")
            assert rows[0] == "t,x,y,z"
            assert len(rows) == 1 + 512
        for orbit in doc["orbits"]:
            assert orbit["residual"] < 1e-10
        mirror = [orbit["returns"] for orbit in doc["orbits"]
                  if orbit["seed_candidate"] == "mirror"]
        assert mirror == [1]


def test_orbits_zero_case_writes_summary_only(tmp_path):
    doc = {"unfolding": {"a2": 1.0, "b2": -10.0, "delta": 2.0}, "eps": 0.1}
    code, out = run(tmp_path, "orbits", doc)
    assert code == 0
    summary = read_summary(out)
    assert summary["case"] == "zero"
    assert summary["orbits"] == []
    assert not list(out.glob("orbit_*.csv"))


def test_orbits_requires_eps(tmp_path):
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0}}
    code, _ = run(tmp_path, "orbits", doc)
    assert code == 1


def test_sweep_outputs(tmp_path, capsys):
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0},
           "eps_list": [0.1, 0.05]}
    out = tmp_path / "out"
    code = main(["sweep", "--config", write_config(tmp_path, doc),
                 "--out", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "eps 0.1: 3 orbit(s), 0 failure(s)" in lines
    assert "eps 0.05: 3 orbit(s), 0 failure(s)" in lines
    summary = read_summary(out)
    assert summary["monotone"] is True
    assert set(summary["amp_slopes"]) == {"0", "1", "2"}
    for eps in ("0.1", "0.05"):
        for i in range(3):
            assert (out / "sweep" / eps / f"orbit_{i}.csv").exists()


def test_a_sweep_over_eps_values_one_ulp_apart_has_null_slopes(tmp_path,
                                                               capsys):
    """eps values whose logs the least-squares fit cannot tell apart give
    no slope: the fit's rank is below 2, and its slopes are written as
    null, with nothing on stderr. A rank-deficient fit warned and wrote
    slopes of about 0.07 and -0.09 where the scaling gives 1."""
    doc = {"unfolding": THREE_ORBIT_DOC["unfolding"],
           "eps_list": [0.2, 0.19999999999999998]}
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
    assert code == 0
    assert not caught
    printed = capsys.readouterr()
    assert printed.err == ""
    assert ("amplitude slopes: {'0': None, '1': None, '2': None}, "
            "monotone: False") in printed.out.splitlines()
    summary = read_summary(out)
    nulls = {"0": None, "1": None, "2": None}
    assert summary["amp_slopes"] == summary["seed_error_slopes"] == nulls


def test_orbits_equals_first_sweep_entry(tmp_path):
    """orbits at eps is the first entry of a sweep that starts at eps."""
    sweep_doc = {"unfolding": THREE_ORBIT_DOC["unfolding"],
                 "eps_list": [0.1, 0.05]}
    (tmp_path / "orbits").mkdir()
    (tmp_path / "sweep").mkdir()
    code, orbits_out = run(tmp_path / "orbits", "orbits", THREE_ORBIT_DOC)
    assert code == 0
    code, sweep_out = run(tmp_path / "sweep", "sweep", sweep_doc)
    assert code == 0
    orbits = read_summary(orbits_out)["orbits"]
    entry = read_summary(sweep_out)["entries"][0]
    assert entry["eps"] == 0.1
    assert len(orbits) == len(entry["records"]) == 3
    for i, orbit in enumerate(orbits):
        rec = entry["records"][str(i)]
        for key in ("eps", "section_point", "period", "residual", "floquet",
                    "seed", "newton_step", "trivial_multiplier_defect",
                    "seed_candidate", "returns"):
            assert orbit[key] == rec[key], key
        trace = f"orbit_{i}.csv"
        assert ((orbits_out / trace).read_bytes()
                == (sweep_out / "sweep" / "0.1" / trace).read_bytes())


def test_orbit_records_say_how_they_were_found(tmp_path):
    """Each orbit record names its converged seed candidate, the returns it
    cost, its trivial multiplier defect and its last Newton step; the -w
    orbit of the showcase pair is seeded from its +w partner."""
    sweep_doc = {"unfolding": THREE_ORBIT_DOC["unfolding"],
                 "eps_list": [0.1, 0.05]}
    code, out = run(tmp_path, "sweep", sweep_doc)
    assert code == 0
    text = (out / "summary.json").read_text(encoding="utf-8")
    assert text.count('"seed_candidate": "mirror"') == 2
    entries = json.loads(text)["entries"]
    candidates = [[entry["records"][str(i)]["seed_candidate"]
                   for i in range(3)] for entry in entries]
    assert candidates == [["section-image", "section-image", "mirror"]] * 2
    for entry in entries:
        assert entry["records"]["2"]["returns"] == 1
        for rec in entry["records"].values():
            assert isinstance(rec["returns"], int) and rec["returns"] >= 1
            assert 0.0 <= rec["trivial_multiplier_defect"] < 1e-6
            assert 0.0 <= rec["newton_step"] < 1e-8


def test_an_orbit_located_for_two_roots_counts_once(tmp_path, monkeypatch):
    """Shot as its +w partner, the -w root of the showcase lands on the +w
    orbit again; it fails as a duplicate of orbit 1, and orbits exits 4
    with two orbits located and no trace for root 2."""
    original = shooting.shoot_orbit

    def minus_w_as_plus_w(u, eps, seed, spec, *args):
        return original(u, eps, (seed[0], abs(seed[1])), spec)

    monkeypatch.setattr(shooting, "shoot_orbit", minus_w_as_plus_w)
    code, out = run(tmp_path, "orbits", THREE_ORBIT_DOC)
    assert code == 4
    summary = read_summary(out)
    assert summary["located_count"] == 2
    assert summary["failures"] == {"2": "duplicate of orbit 1"}
    assert not (out / "orbit_2.csv").exists()


@pytest.mark.parametrize("eps", [5e-7, 1e-7])
def test_distinct_orbits_at_small_eps_are_not_duplicates(tmp_path, eps):
    """Distinct orbits lie about eps |(w - w', r - r')| apart, so at small
    eps the showcase's three section points are closer than any fixed
    distance; each is still its own orbit."""
    code, out = run(tmp_path, "orbits", dict(THREE_ORBIT_DOC, eps=eps))
    assert code == 0
    summary = read_summary(out)
    assert summary["failures"] == {}
    assert summary["located_count"] == 3


def record_fields(cls, *drop):
    return {f.name for f in fields(cls)} - set(drop)


def test_orbit_records_hold_the_record_fields(tmp_path):
    """An orbit's summary record is every field of PeriodicOrbitRecord but
    mirror_leg; orbits adds the root and its Jacobian determinant. The
    sweep summary is every field of SweepResult but prediction, with the
    command, its config, the case and the roots."""
    expected = record_fields(PeriodicOrbitRecord, "mirror_leg")
    (tmp_path / "orbits").mkdir()
    (tmp_path / "sweep").mkdir()
    code, out = run(tmp_path / "orbits", "orbits", THREE_ORBIT_DOC)
    assert code == 0
    orbits = read_summary(out)["orbits"]
    assert len(orbits) == 3
    for orbit in orbits:
        assert set(orbit) == expected | {"root", "jac_det"}
    sweep_doc = {"unfolding": THREE_ORBIT_DOC["unfolding"],
                 "eps_list": [0.1, 0.05]}
    code, out = run(tmp_path / "sweep", "sweep", sweep_doc)
    assert code == 0
    summary = read_summary(out)
    assert set(summary) == (record_fields(SweepResult, "prediction")
                            | {"command", "config", "case", "roots"})
    records = [rec for entry in summary["entries"]
               for rec in entry["records"].values()]
    assert len(records) == 6
    for rec in records:
        assert set(rec) == expected


def test_classify_writes_the_result_fields(tmp_path):
    """A params-mode equilibrium is every field of EquilibriumClass, and
    the base point's and the unfolded system's parameters are the fields
    of SystemParams."""
    (tmp_path / "params").mkdir()
    code, out = run(tmp_path / "params", "classify",
                    {"params": {"a": 0.0, "b": -4.0, "c": -4.0}})
    assert code == 0
    points = read_summary(out)["equilibria"]
    assert len(points) == 3
    for point in points:
        assert set(point) == record_fields(EquilibriumClass)
    code, out = run(tmp_path, "classify", THREE_ORBIT_DOC)
    assert code == 0
    doc = read_summary(out)
    assert set(doc["base_point"]["params"]) == record_fields(SystemParams)
    assert set(doc["unfolded"]) == record_fields(SystemParams) | {"eps"}


@pytest.mark.parametrize("command, eps", [
    ("orbits", {"eps": 0.1}), ("sweep", {"eps_list": [0.1, 0.05]})])
def test_an_extreme_valid_direction_fails_without_numpy_warnings(
        tmp_path, capsys, command, eps):
    """At (a2, b2, delta) = (1e300, 5, 2) the roots lie near 1e150, where
    the higher averages behind the section-image corrections overflow:
    the corrections are NaN, shoot_orbit drops the shift, and every leg
    from eps (w, r) fails with StepUnderflow. At (1e300, -1e300, 1e10) Dg
    overflows too, and the roots are infinite: every seed is SeedInvalid.
    At delta = 1.4318e-36 and c2 = -2.7278e18 a step's transition system
    is singular, which fails the leg with StepUnderflow too. In the last
    two directions the corrections are finite, but the shift they give
    is longer than MAX_SEED_SHIFT * r by 56 and 102 orders of magnitude,
    and is dropped as one too long. Either way the command exits 4 with
    an empty stderr, no numpy warning on it."""
    for unfolding, failure in [
            ({"a2": 1e300, "b2": 5.0, "delta": 2.0}, "StepUnderflow"),
            ({"a2": 1e300, "b2": -1e300, "delta": 1e10}, "SeedInvalid"),
            ({"a2": 2.171, "b2": -7.004, "delta": 1.4318e-36,
              "c2": -2.7278e18}, "StepUnderflow"),
            ({"a2": 5.0027e58, "b2": 8.82e-11, "delta": 8.862e42},
             "StepUnderflow"),
            ({"a2": 7.2029, "b2": -4.3745, "delta": 2.9076, "c2": 2.72e105},
             "StepUnderflow")]:
        code, out = run(tmp_path, command, {"unfolding": unfolding, **eps})
        assert code == 4
        assert capsys.readouterr().err == ""
        assert failure in json.dumps(read_summary(out))


#: a direction whose one root has a Dg that rounds to an exactly singular
#: matrix, though |2 a2 delta^2 - b2| = 1.5e-8 lies above DEGENERACY_TOL
SINGULAR_DG = {"a2": 12500000.0, "b2": 100000000.00000001, "delta": 2.0}


def test_a_root_with_a_singular_dg_is_shot_from_eps_w_r(tmp_path, capsys):
    """classify predicts one orbit at SINGULAR_DG, with jac_det -0.0116,
    but its seed corrections solve with the rounded, singular Dg: both
    are NaN, and the section-image seed is eps (w, r). At eps 1e-4 orbits
    locates the orbit and exits 0; at eps 0.01 it exits 0 or 4, each
    failure labelled with its error type. stderr stays empty."""
    code, out = run(tmp_path, "orbits", {"unfolding": SINGULAR_DG,
                                         "eps": 1e-4})
    assert capsys.readouterr().err == ""
    assert code == 0
    assert read_summary(out)["located_count"] == 1
    code, out = run(tmp_path, "orbits", {"unfolding": SINGULAR_DG,
                                         "eps": 0.01})
    assert capsys.readouterr().err == ""
    assert code in (0, 4)
    summary = read_summary(out)
    failures = summary["failures"].values()
    assert summary["located_count"] + len(failures) == 1
    assert all(re.match(r"[A-Za-z]+: ", text) for text in failures)


def test_a_hopeless_leg_ends_at_the_step_budget(tmp_path, capsys):
    """At (a2, b2, delta, c2) = (1.9667e25, -0.9054, 8.98e-36, -0.1397)
    the legs from the seeds never reach the mirrored section. Each ends
    after MAX_STEPS steps with StepLimitExceeded, within seconds, and
    orbits exits 4 with an empty stderr."""
    code, out = run(tmp_path, "orbits", {
        "unfolding": {"a2": 1.9667e25, "b2": -0.9054, "delta": 8.98e-36,
                      "c2": -0.1397}, "eps": 0.1})
    assert code == 4
    assert capsys.readouterr().err == ""
    assert "StepLimitExceeded" in json.dumps(read_summary(out))


@pytest.mark.parametrize("unfolding, eps", [
    ({"a2": 1.0, "b2": -1.0, "delta": 0.02}, 5e-4),
    ({"a2": 1.0, "b2": -1.0, "delta": 0.01}, 2e-4),
    ({"a2": -1.813916486886403, "b2": -0.6167547886382092,
      "delta": 0.0063058675665241684, "c2": 1.294906295102943}, 1e-8)])
def test_orbits_below_delta_pi_over_100_locate_every_orbit(tmp_path,
                                                           unfolding, eps):
    """A half return flies about pi / delta, beyond t = 100 at these
    deltas; its legs are bounded by their step count alone, so orbits
    locates all three predicted orbits and exits 0."""
    code, out = run(tmp_path, "orbits", {"unfolding": unfolding, "eps": eps})
    assert code == 0
    assert read_summary(out)["located_count"] == 3


@pytest.mark.parametrize("unfolding", [
    {"a2": 0.0, "b2": 1e300, "delta": 1e-50, "c2": 1e300},
    {"a2": -1.0, "b2": -1e6, "delta": 1e-50, "c1": -1e300, "c2": -0.3}])
def test_an_overflowing_average_fails_with_one_labelled_line(
        tmp_path, capsys, unfolding):
    """Where the tables or the monomials of the means overflow, the
    non-finite mean fails the oracle: average exits 3 with oracle_ok
    false, its one progress line reads nan for the failing order, and
    stderr is empty, no numpy warning on it."""
    out = tmp_path / "out"
    code = main(["average", "--config",
                 write_config(tmp_path, {"unfolding": unfolding}),
                 "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    (line,) = captured.out.splitlines()
    assert line.startswith("max relative deviation: ") and "nan" in line
    summary = read_summary(out)
    assert summary["oracle_ok"] is False and "error" not in summary


def extreme_magnitude(rng):
    """+-10^U(-300, 300) or U(-10, 10), each with probability 1/2."""
    if rng.random() < 0.5:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
    return rng.uniform(-10.0, 10.0)


def extreme_direction(rng):
    """(unfolding, eps): a2 and b2 extreme magnitudes, delta 10^U(-50, 50)
    or U(0.1, 5), c1 and c2 each an extreme magnitude with probability
    1/2, and eps one of 0.2, 0.1, 0.01 and 1e-6."""
    unfolding = {"a2": extreme_magnitude(rng), "b2": extreme_magnitude(rng),
                 "delta": (10.0 ** rng.uniform(-50.0, 50.0)
                           if rng.random() < 0.5 else rng.uniform(0.1, 5.0))}
    for key in ("c1", "c2"):
        if rng.random() < 0.5:
            unfolding[key] = extreme_magnitude(rng)
    return unfolding, rng.choice((0.2, 0.1, 0.01, 1e-6))


#: the inputs whose numpy warnings leaked to stderr until they were
#: mended: the higher averages behind root_corrections overflowing, Dg
#: (g_jacobian) overflowing too, the closed f at a1 = 1e307, the
#: non-finite Phi of seeds near 1e14 and the overflowing means of
#: average_first and average_second; and SINGULAR_DG, whose singular Dg
#: raised numpy's LinAlgError out of orbits and sweep
MENDED_INPUTS = [
    ({"a2": 1e300, "b2": 5.0, "delta": 2.0}, 0.1),
    ({"a2": 1e300, "b2": -1e300, "delta": 1e10}, 0.1),
    ({"a1": 1e307, "a2": 1.0, "b2": 5.0, "delta": 2.0}, 0.1),
    ({"a2": 1.0, "b2": 5.0, "delta": 1e15}, 0.1),
    ({"a2": 0.0, "b2": 1e300, "delta": 1e-50, "c2": 1e300}, 0.1),
    ({"a2": -1.0, "b2": -1e6, "delta": 1e-50, "c1": -1e300, "c2": -0.3},
     0.1),
    (SINGULAR_DG, 1e-4)]


def test_a_corpus_of_extreme_directions_ends_in_labelled_exits(tmp_path,
                                                                capsys):
    """classify, average, orbits and sweep over 40 seeded extreme
    directions and the mended inputs: no exception escapes main (the
    suite turns every numpy warning into one), each exits 0, 2, 3 or 4,
    and stderr is empty."""
    rng = random.Random(101)
    corpus = [extreme_direction(rng) for _ in range(40)] + MENDED_INPUTS
    for unfolding, eps in corpus:
        for command, extra in [("classify", {}), ("average", {}),
                               ("orbits", {"eps": eps}),
                               ("sweep", {"eps_list": [eps, eps / 2.0]})]:
            code, _ = run(tmp_path, command, {"unfolding": unfolding, **extra})
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (command, unfolding, eps, code)
            assert err == "", (command, unfolding, err)


def test_sweep_requires_eps_list(tmp_path):
    code, _ = run(tmp_path, "sweep", THREE_ORBIT_DOC)
    assert code == 1


def test_config_errors_exit_one(tmp_path, capsys):
    code, _ = run(tmp_path, "classify", {"unfolding": {"delta": 2.0},
                                         "bogus": 1})
    assert code == 1
    code, _ = run(tmp_path, "classify", {"unfolding": {"delta": 2.0},
                                         "eps": 0.5})
    assert code == 1
    missing = str(tmp_path / "missing.json")
    assert main(["classify", "--config", missing]) == 1
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"unfolding": {"a2": 1e400, "b2": 5.0, "delta": 2.0}}',
                        encoding="utf-8")
    assert main(["classify", "--config", str(overflow),
                 "--out", str(tmp_path / "out")]) == 1
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"unfolding": {"a2": %s, "b2": 5.0, "delta": 2.0}}'
                        % ("1" * 5000), encoding="utf-8")
    assert main(["classify", "--config", str(long_int),
                 "--out", str(tmp_path / "out")]) == 1
    huge_eps = tmp_path / "huge_eps.json"
    huge_eps.write_text('{"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0}, '
                        '"eps_list": [0.1, %s]}' % ("1" + "0" * 400),
                        encoding="utf-8")
    assert main(["sweep", "--config", str(huge_eps),
                 "--out", str(tmp_path / "out")]) == 1
    code, _ = run(tmp_path, "average", {"unfolding": {"delta": 2.0},
                                        "quadrature": {"inner_nodes": 64}})
    assert code == 1
    capsys.readouterr()
    params = {"params": {"a": 0.0, "b": 0.0, "c": -4.0}}
    no_unfolding = "this command needs an 'unfolding' block in the config"
    refusals = [
        ("average", params, no_unfolding),
        ("orbits", params, no_unfolding),
        ("sweep", params, no_unfolding),
        ("classify", [THREE_ORBIT_DOC],
         "config root must be an object, got list"),
        ("sweep", {"unfolding": {"delta": 2.0}, "eps_list": [0.3, 0.1]},
         "eps_list: entries must lie in (0, 0.2]"),
        ("classify", dict(THREE_ORBIT_DOC, output_dir=5),
         "output_dir: expected a string, got 5"),
    ]
    for command, doc, message in refusals:
        code, _ = run(tmp_path, command, doc)
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_unconverged_quadrature_exits_three(tmp_path, capsys):
    """At c1 = 1e5 the c1^2 terms of the means cancel to a round-off that
    leaves g 1.5e-7 from g_closed, relative: the oracle fails, average
    exits 3, and the run writes a strict-JSON summary with oracle_ok
    false and no error block, and nothing to stderr."""
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0, "c1": 1e5}}
    code, out = run(tmp_path, "average", doc)
    assert code == 3
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    assert summary["command"] == "average"
    assert summary["oracle_ok"] is False
    assert "error" not in summary
    # the second average fails, the first, zero on the slice, does not
    assert summary["max_abs_dev_first"] <= summary["tolerance"]
    assert summary["max_abs_dev_second"] > summary["tolerance"]


def test_a_nan_deviation_fails_the_oracle(tmp_path, monkeypatch):
    """A NaN deviation fails the verdict (exit 3), as max(0.0, nan) = 0.0
    once let it pass: here the closed g2 is NaN at one grid point. At
    delta = 1e-60 the coefficient tables gave such NaNs, and that delta is
    now refused (test_delta_outside_its_range_is_a_config_error)."""
    g_closed = closed_form.g_closed

    def nan_at_one_point(*args):
        value = g_closed(*args)
        value[1, 3, 7] = math.nan
        return value

    monkeypatch.setattr(closed_form, "g_closed", nan_at_one_point)
    code, out = run(tmp_path, "average", THREE_ORBIT_DOC)
    assert code == 3
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    assert summary["max_abs_dev_first"] < 1e-9
    assert summary["max_abs_dev_second"] is None
    assert summary["oracle_ok"] is False


@pytest.mark.parametrize("delta, factor, expected", [
    pytest.param(0.1, None, 0, id="delta-0.1"),
    pytest.param(0.3, None, 0, id="delta-0.3"),
    pytest.param(2.0, 1.0 + 1e-7, 3, id="closed-g2-off-by-1e-7"),
    pytest.param(2.0, math.inf, 3, id="closed-g2-infinite"),
])
def test_average_judges_each_point_relative_to_its_closed_value(
        tmp_path, capsys, monkeypatch, delta, factor, expected):
    """Each grid point passes when its deviation is at most ORACLE_TOL
    times max(1, |closed value|). g grows like delta^-5: at delta = 0.1
    |g| reaches 1.9e7 and the numeric g deviates by 1.4e-7, round-off,
    which passes. The closed g2 scaled by 1 + 1e-7 at one point, 0.32
    there, fails; so does an infinite closed g2 against the finite
    numeric one, an inf / inf ratio. The progress line prints the
    largest relative deviations, the numbers the verdict compares, so a
    pass prints both within the printed tolerance and a failure does
    not."""
    if factor is not None:
        g_closed = closed_form.g_closed

        def scaled_at_one_point(*args):
            value = g_closed(*args)
            value[1, 3, 7] *= factor
            return value

        monkeypatch.setattr(closed_form, "g_closed", scaled_at_one_point)
    cfg = write_config(tmp_path,
                       {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": delta}})
    out = tmp_path / "out"
    assert main(["average", "--config", cfg, "--out", str(out)]) == expected
    printed = capsys.readouterr()
    assert printed.err == ""
    assert_progress("average", printed.out)
    first, second, tolerance = map(float, re.fullmatch(
        r"max relative deviation: first (\S+), second (\S+) "
        r"\(tolerance (\S+)\)\n", printed.out).groups())
    assert tolerance == cli.ORACLE_TOL
    assert (first <= tolerance and second <= tolerance) is (expected == 0)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    assert summary["oracle_ok"] is (expected == 0)
    assert summary["tolerance"] == cli.ORACLE_TOL


#: the eps keys each command takes beside the showcase's a2 = 1, b2 = 5
DELTA_RUNS = {"classify": {}, "average": {}, "orbits": {"eps": 0.1},
              "sweep": {"eps_list": [0.1, 0.05]}}


def run_at_delta(command, delta):
    """(exit code, stderr) of command at delta; past the config check
    summary.json is strict JSON."""
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": delta},
           **DELTA_RUNS[command]}
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stderr(stderr):
            code, out = run(Path(tmp), command, doc)
        if code != 1:
            json.loads((out / "summary.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
    return code, stderr.getvalue()


@pytest.mark.parametrize("command", DELTA_RUNS)
@pytest.mark.parametrize("delta", [
    np.nextafter(MIN_DELTA, 0.0), np.nextafter(MAX_DELTA, math.inf),
    # the NaN tables of average, and the first tracebacks of each command
    1e-60, 1e52, 1e62, 1e-66, 1e-300])
def test_delta_outside_its_range_is_a_config_error(command, delta):
    code, err = run_at_delta(command, float(delta))
    assert code == 1
    assert err == (f"config error: unfolding: delta must be in [1e-50, "
                   f"1e+50], got {float(delta)}\n")


@pytest.mark.parametrize("command", DELTA_RUNS)
@pytest.mark.parametrize("delta", [MIN_DELTA, 1e15, MAX_DELTA])
def test_delta_in_its_range_runs(command, delta):
    """At the bounds, and at 1e15, where the seeds lie so far out that
    the variational series overflow and every candidate fails with
    StepUnderflow, each command exits with a labelled code, and stderr
    is empty."""
    code, err = run_at_delta(command, delta)
    assert code in (0, 3, 4)
    assert err == ""


@settings(max_examples=10)
@given(decade=st.floats(-300.0, 300.0))
def test_a_drawn_delta_exits_cleanly(decade):
    """Whatever delta in [1e-300, 1e300], each command exits with a code
    in 0..4, and never with a traceback; 1, a config error, exactly where
    delta is outside [MIN_DELTA, MAX_DELTA]."""
    delta = 10.0 ** decade
    for command in DELTA_RUNS:
        code, err = run_at_delta(command, delta)
        assert code in range(5) and "Traceback" not in err
        assert (code == 1) == (not MIN_DELTA <= delta <= MAX_DELTA)


def test_overflowed_deviation_is_written_as_null(tmp_path, capsys):
    """The closed f overflows at a1 = 1e307: the oracle fails, and numpy
    prints no overflow warning on stderr."""
    doc = {"unfolding": {"a1": 1e307, "a2": 1.0, "b2": 5.0, "delta": 2.0}}
    code, out = run(tmp_path, "average", doc)
    assert code == 3
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    assert summary["max_abs_dev_first"] is None
    assert summary["oracle_ok"] is False


def test_unwritable_output_exits_one(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    cfg = write_config(tmp_path, THREE_ORBIT_DOC)
    assert main(["classify", "--config", cfg, "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:")
    assert "Traceback" not in err


@pytest.mark.parametrize("integrator, outcome", [
    pytest.param({"max_step": 0.5}, "unknown keys ['max_step']",
                 id="max_step"),
    pytest.param({"abs_tol": 1e-9}, "unknown keys ['abs_tol']", id="abs_tol"),
    pytest.param({"max_steps": 10}, "unknown keys ['max_steps']",
                 id="max_steps"),
    pytest.param({"tol": 1.0}, "integrator: tol must be", id="tol-1.0"),
    pytest.param({"tol": 0.5}, "integrator: tol must be", id="tol-0.5"),
    pytest.param({"tol": 1e-12}, 3, id="tol-1e-12"),
    pytest.param({"tol": 1e-6}, 3, id="tol-1e-6"),
    pytest.param({"tol": 2.3e-14}, 3, id="tol-2.3e-14"),
])
def test_orbits_integrator_block(tmp_path, capsys, integrator, outcome):
    """The integrator block holds tol alone: the integrator has no step
    cap and one tolerance, and its step budget is the constant
    shooting.MAX_STEPS, so max_step, abs_tol and max_steps are unknown
    keys, and a tol above MAX_TOL is refused. Each refusal exits 1 and
    says why on stderr. At tol 1e-6 (order 8, the loosest accepted),
    1e-12 and 2.3e-14 (order 17) orbits locates all three showcase
    orbits."""
    code, out = run(tmp_path, "orbits",
                    dict(THREE_ORBIT_DOC, integrator=integrator))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if isinstance(outcome, str):
        assert code == 1
        assert outcome in err, err
    else:
        assert code == 0
        assert read_summary(out)["located_count"] == outcome


def run_fresh(probe):
    """The completed run of the Python source probe in a new interpreter
    that imports averager from this tree."""
    src = str(Path(averager.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)


def test_orbits_and_sweep_run_without_scipy(tmp_path):
    """The Taylor integrator needs numpy only: importing the CLI, shooting
    and the c1 seed corrections never load scipy."""
    runs = [("orbits", THREE_ORBIT_DOC), ("orbits", C1_DOC),
            ("sweep", {"unfolding": THREE_ORBIT_DOC["unfolding"],
                       "eps_list": [0.1, 0.05]})]
    argvs = [[command, "--config", write_config(tmp_path, doc, f"{i}.json"),
              "--out", str(tmp_path / str(i)), "--quiet"]
             for i, (command, doc) in enumerate(runs)]
    done = run_fresh(
        "import sys\n"
        "from averager.cli import main\n"
        f"codes = [main(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m.partition('.')[0] == 'scipy'))\n"
    )
    assert done.stdout.strip() == "[0, 0, 0] []"
    for i in (0, 1):
        assert read_summary(tmp_path / str(i))["located_count"] == 3


def test_classify_runs_without_numpy(tmp_path):
    """jerk and config, the scalar layer, import no numpy, and neither do
    the package root and the CLI, which import the batching modules where
    they are used: in a new interpreter, numpy stays unloaded after
    importing averager, after importing averager.cli, and after each of
    classify on a params config, classify on an unfolding config with
    eps, a refused config (exit 1), and --help."""
    docs = [{"params": {"a": 0.0, "b": 0.0, "c": -1.0}},
            {"unfolding": THREE_ORBIT_DOC["unfolding"], "eps": 0.1},
            {"params": {"a": 0.0, "b": -1e300, "c": -1.0}}]
    argvs = [["classify", "--config", write_config(tmp_path, doc, f"{i}.json"),
              "--out", str(tmp_path / str(i)), "--quiet"]
             for i, doc in enumerate(docs)]
    argvs += [["--help"], ["classify", "--help"]]
    done = run_fresh(
        "import contextlib, io, sys\n"
        "steps = []\n"
        "import averager\n"
        "steps.append('numpy' in sys.modules)\n"
        "import averager.cli\n"
        "steps.append('numpy' in sys.modules)\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = averager.cli.main(argv)\n"
        "    steps.append([code, 'numpy' in sys.modules])\n"
        "print(steps)\n"
    )
    assert done.stdout == ("[False, False, [0, False], [0, False], "
                           "[1, False], [0, False], [0, False]]\n")
    assert read_summary(tmp_path / "0")["verdict"] == (
        "zero-Hopf equilibrium at the origin")
    assert read_summary(tmp_path / "1")["case"] == "three"
    assert not (tmp_path / "2" / "summary.json").exists()


def test_importing_the_cli_builds_no_taylor_kernel():
    """The Taylor kernel of each order is generated at its first use, so
    a fresh import of the CLI, the benchmark's set-up, pays for none."""
    done = run_fresh(
        "import averager.cli\n"
        "from averager import shooting\n"
        "print(shooting._taylor_kernel.cache_info().currsize)\n"
    )
    assert done.stdout == "0\n"


#: the stdout progress lines of each command on the showcase, as patterns
PROGRESS_LINES = {
    "classify": [r"case: three, roots: \[\[4\.0, 0\.0\], .*\]"],
    "average": [r"max relative deviation: first \S+, second \S+ "
                r"\(tolerance 1e-08\)"],
    "orbits": [rf"orbit {i}: period \S+, residual \S+" for i in range(3)],
    "sweep": [r"eps 0\.1: 3 orbit\(s\), 0 failure\(s\)",
              r"eps 0\.05: 3 orbit\(s\), 0 failure\(s\)",
              r"amplitude slopes: \{.*\}, monotone: True"],
}


def assert_progress(command, out):
    lines = out.splitlines()
    assert len(lines) == len(PROGRESS_LINES[command]), lines
    for pattern, line in zip(PROGRESS_LINES[command], lines):
        assert re.fullmatch(pattern, line), line


def test_loud_runs_leave_stderr_empty(tmp_path):
    """Without --quiet, each command on the showcase exits 0, prints its
    progress lines on stdout and writes nothing to stderr. The four run
    in a new interpreter, as the console script does, so anything any
    layer writes to the process's stderr shows."""
    docs = {command: {"unfolding": THREE_ORBIT_DOC["unfolding"], **eps}
            for command, eps in DELTA_RUNS.items()}
    argvs = [[command, "--config",
              write_config(tmp_path, docs[command], f"{command}.json"),
              "--out", str(tmp_path / command)]
             for command in PROGRESS_LINES]
    done = run_fresh(
        "import contextlib, io, json\n"
        "from averager.cli import main\n"
        "runs = []\n"
        f"for argv in {argvs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(runs))\n"
    )
    assert done.stderr == ""
    runs = json.loads(done.stdout)
    for command, (code, out) in zip(PROGRESS_LINES, runs):
        assert code == 0, command
        assert_progress(command, out)


def test_quiet_holds_for_each_call_in_one_process(tmp_path, capsys):
    """--quiet silences only its own call, whatever ran before it.

    A quiet, a loud and a quiet orbits call share one interpreter; only
    the loud one prints its three progress lines, and none writes to
    stderr.
    """
    cfg = write_config(tmp_path, THREE_ORBIT_DOC)
    for quiet in (True, False, True):
        code = main(["orbits", "--config", cfg, "--out", str(tmp_path / "out"),
                     *["--quiet"] * quiet])
        assert code == 0
        out, err = capsys.readouterr()
        assert err == ""
        if quiet:
            assert out == ""
        else:
            assert_progress("orbits", out)


def test_csv_matches_row_by_row_formatting(tmp_path):
    """Special values come out as %.17g formats them one by one, whether
    a %.17g field of the template formats them or the average table bakes
    them into its template."""
    values = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1,
              -2.5, 1.0 / 3.0]
    path = tmp_path / "table.csv"
    states = np.reshape(values, (3, 3))
    _write_trace(path, np.array(values[:3]), states)
    rows = ["t,x,y,z"] + [",".join("%.17g" % v for v in [t, *state])
                          for t, state in zip(values, states.tolist())]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
    _write_trace(path, np.empty(0), np.empty((0, 3)))
    assert path.read_bytes() == b"t,x,y,z\n"

    # a 9 x 9 grid whose four axes and six other columns all hold them
    r, w = values, values[::-1]
    f1, f2 = values[1:] + values[:1], values[2:] + values[:2]
    cells = values * 6 * len(w)
    _write_csv(path, "h", _average_rows(r, w, f1, f2), cells)
    rows = ["h"] + [
        ",".join("%.17g" % v for v in [ri, wj, *k[:2], f1i, f2j, *k[2:]])
        for (ri, f1i, wj, f2j), k in zip(
            [(ri, f1i, wj, f2j) for ri, f1i in zip(r, f1)
             for wj, f2j in zip(w, f2)],
            np.reshape(cells, (-1, 6)).tolist())]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_usage_errors_map_to_config_exit(capsys):
    assert main(["classify"]) == 1  # --config required
    assert main(["frobnicate", "--config", "x"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_json_flag_prints_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, THREE_ORBIT_DOC)
    out = tmp_path / "out"
    code = main(["classify", "--config", cfg, "--out", str(out), "--json"])
    assert code == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["case"] == "three"
    assert printed == (out / "summary.json").read_text(encoding="utf-8")


def test_summary_config_echo_reparses_identically(tmp_path):
    code, out = run(tmp_path, "classify", THREE_ORBIT_DOC)
    assert code == 0
    echoed = read_summary(out)["config"]
    assert from_dict(echoed) == from_dict(dict(THREE_ORBIT_DOC))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_is_strict_json(tmp_path):
    """No Infinity or NaN: summary.json parses under RFC 8259."""
    code, out = run(tmp_path, "classify", THREE_ORBIT_DOC)
    assert code == 0
    text = (out / "summary.json").read_text(encoding="utf-8")
    doc = json.loads(text, parse_constant=_reject_constant)
    assert "max_step" not in doc["config"]["integrator"]
    for value, safe in [
            ({"0": [0.5, math.nan]}, {"0": [0.5, None]}),
            (complex(math.nan, 1.0), [None, 1.0]),
            (complex(1.0, -math.inf), [1.0, None]),
            (np.complex128(complex(math.inf, math.nan)), [None, None])]:
        assert _jsonable(value) == safe


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, THREE_ORBIT_DOC)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["orbits", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        blob = {
            "summary": (out / "summary.json").read_bytes(),
            "traces": [(out / f"orbit_{i}.csv").read_bytes()
                       for i in range(3)],
        }
        outputs.append(blob)
    assert outputs[0] == outputs[1]
