"""Command-line behavior: exit codes, outputs, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import averager
from averager.averaging import QuadratureAccuracyWarning
from averager.cli import _jsonable, main
from averager.config import from_dict

THREE_ORBIT_DOC = {
    "unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0},
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


@pytest.mark.parametrize("command", ["orbits", "sweep"])
def test_collapse_boundary_is_refused_as_degenerate(tmp_path, command):
    """classify reports this boundary as degenerate; shooting refuses it."""
    eps = {"orbits": {"eps": 0.1}, "sweep": {"eps_list": [0.1, 0.05]}}
    doc = {"unfolding": {"a2": 1.0, "b2": 1.0, "delta": 1.0}, **eps[command]}
    code, out = run(tmp_path, command, doc)
    assert code == 2
    summary = read_summary(out)
    assert summary["case"] == "degenerate"
    assert summary["error"]["kind"] == "DegeneratePrediction"


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


def test_average_oracle_match(tmp_path):
    code, out = run(tmp_path, "average", THREE_ORBIT_DOC)
    assert code == 0
    doc = read_summary(out)
    assert doc["oracle_ok"] is True
    assert doc["max_abs_dev_first"] < 1e-9
    assert doc["max_abs_dev_second"] < 1e-9
    table = (out / "average_table.csv").read_text(encoding="utf-8")
    lines = table.strip().split("\n")
    assert lines[0].startswith("r,w,f1_num")
    assert len(lines) == 1 + 20 * 20


def test_average_notes_first_order_slice(tmp_path):
    doc = {"unfolding": {"a1": 0.5, "b1": -0.4, "a2": 1.0, "b2": 5.0,
                         "delta": 2.0}}
    code, out = run(tmp_path, "average", doc)
    assert code == 0
    summary = read_summary(out)
    assert summary["oracle_ok"] is True
    assert "second_order_note" in summary


def test_orbits_three_traces(tmp_path):
    code, out = run(tmp_path, "orbits", THREE_ORBIT_DOC)
    assert code == 0
    doc = read_summary(out)
    assert doc["predicted_count"] == 3
    assert doc["located_count"] == 3
    assert doc["failures"] == {}
    for i in range(3):
        lines = (out / f"orbit_{i}.csv").read_text(encoding="utf-8")
        rows = lines.strip().split("\n")
        assert rows[0] == "t,x,y,z"
        assert len(rows) == 1 + 512
    for orbit in doc["orbits"]:
        assert orbit["residual"] < 1e-10


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


def test_sweep_outputs(tmp_path):
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0},
           "eps_list": [0.1, 0.05]}
    code, out = run(tmp_path, "sweep", doc)
    assert code == 0
    summary = read_summary(out)
    assert summary["monotone"] is True
    assert set(summary["amp_slopes"]) == {"0", "1", "2"}
    for eps in ("0.1", "0.05"):
        for i in range(3):
            assert (out / "sweep" / eps / f"orbit_{i}.csv").exists()


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
                    "seed"):
            assert orbit[key] == rec[key], key
        trace = f"orbit_{i}.csv"
        assert ((orbits_out / trace).read_bytes()
                == (sweep_out / "sweep" / "0.1" / trace).read_bytes())


def test_sweep_requires_eps_list(tmp_path):
    code, _ = run(tmp_path, "sweep", THREE_ORBIT_DOC)
    assert code == 1


def test_config_errors_exit_one(tmp_path):
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
    code, _ = run(tmp_path, "orbits",
                  dict(THREE_ORBIT_DOC, integrator={"max_steps": 0}))
    assert code == 1


def test_unconverged_quadrature_exits_three(tmp_path, capsys):
    doc = {"unfolding": {"a2": 1.0, "b2": 5.0, "delta": 2.0, "c1": 1e5}}
    with pytest.warns(QuadratureAccuracyWarning):
        code, _ = run(tmp_path, "average", doc)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature not converged: average_second")
    assert "Traceback" not in err


def test_overflowed_deviation_is_written_as_null(tmp_path):
    doc = {"unfolding": {"a1": 1e307, "a2": 1.0, "b2": 5.0, "delta": 2.0}}
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out = run(tmp_path, "average", doc)
    assert code == 3
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


def test_orbits_rejects_max_step_as_unknown_key(tmp_path, capsys):
    """The integrator has no step cap; max_step is an unknown key."""
    doc = dict(THREE_ORBIT_DOC, integrator={"max_step": 0.5})
    code, _ = run(tmp_path, "orbits", doc)
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown keys ['max_step']" in err
    assert "Traceback" not in err


def test_cli_import_leaves_the_integrator_unloaded():
    """classify and average never integrate, so they skip scipy.integrate."""
    src = str(Path(averager.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, averager.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_orbits_and_sweep_run_without_scipy(tmp_path):
    """The Taylor integrator needs numpy only: shooting never loads scipy."""
    src = str(Path(averager.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    orbits = write_config(tmp_path, THREE_ORBIT_DOC, "orbits.json")
    sweep = write_config(tmp_path, {"unfolding": THREE_ORBIT_DOC["unfolding"],
                                    "eps_list": [0.1, 0.05]}, "sweep.json")
    probe = (
        "import sys\n"
        "from averager.cli import main\n"
        f"codes = [main(['orbits', '--config', {orbits!r}, '--out', "
        f"{str(tmp_path / 'orbits')!r}, '--quiet']),\n"
        f"         main(['sweep', '--config', {sweep!r}, '--out', "
        f"{str(tmp_path / 'sweep')!r}, '--quiet'])]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m.partition('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[0, 0] []"
    assert len(read_summary(tmp_path / "orbits")["orbits"]) == 3


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
    assert _jsonable({"0": [0.5, math.nan]}) == {"0": [0.5, None]}


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
