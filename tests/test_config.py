"""Config schema: strict validation, defaults, round trip."""

import json

import pytest

from averager.averaging import QuadratureSpec
from averager.config import ConfigError, from_dict, load_config, to_dict
from averager.shooting import MAX_TOL, IntegratorSpec


def minimal_doc():
    return {"unfolding": {"delta": 2.0, "a2": 1.0, "b2": 5.0}, "eps": 0.1}


def test_minimal_config_fills_defaults():
    cfg = from_dict(minimal_doc())
    assert cfg.unfolding.delta == 2.0
    assert cfg.unfolding.a1 == 0.0
    assert cfg.eps == 0.1
    assert cfg.eps_list is None
    assert cfg.quadrature.nodes == 64
    assert cfg.integrator.tol == 1e-11
    assert cfg.quadrature == QuadratureSpec()
    assert cfg.integrator == IntegratorSpec()
    assert cfg.output_dir == "results"


def test_direct_params_mode():
    cfg = from_dict({"params": {"a": 3.6, "b": 1.3, "c": 0.1}})
    assert cfg.params.a == 3.6
    assert cfg.unfolding is None


def test_round_trip_identity():
    doc = {
        "unfolding": {"a1": 0.25, "b1": -1.5, "a2": 1.0, "b2": 5.0,
                      "c1": 0.5, "c2": -0.75, "delta": 2.0},
        "eps": 0.1,
        "quadrature": {"nodes": 32},
        "integrator": {"tol": 1e-9},
        "output_dir": "out",
    }
    cfg = from_dict(doc)
    assert from_dict(to_dict(cfg)) == cfg
    # and through an actual JSON encode/decode cycle
    assert from_dict(json.loads(json.dumps(to_dict(cfg)))) == cfg


def test_unknown_keys_rejected_at_every_level():
    doc = minimal_doc()
    doc["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        from_dict(doc)
    doc = minimal_doc()
    doc["unfolding"]["epsilon"] = 0.1
    with pytest.raises(ConfigError, match="epsilon"):
        from_dict(doc)
    doc = minimal_doc()
    doc["quadrature"] = {"node": 64}
    with pytest.raises(ConfigError, match="node"):
        from_dict(doc)
    doc = minimal_doc()
    doc["integrator"] = {"abs_tol": 1e-9}
    with pytest.raises(ConfigError, match="abs_tol"):
        from_dict(doc)
    doc = minimal_doc()
    doc["integrator"] = {"rel_tol": 1e-9}
    with pytest.raises(ConfigError, match="rel_tol"):
        from_dict(doc)
    doc = minimal_doc()
    doc["integrator"] = {"method": "rk45"}
    with pytest.raises(ConfigError, match="method"):
        from_dict(doc)
    doc = minimal_doc()
    doc["quadrature"] = {"rule": "gauss-legendre"}
    with pytest.raises(ConfigError, match="rule"):
        from_dict(doc)
    doc = minimal_doc()
    doc["seed"] = 0
    with pytest.raises(ConfigError, match="seed"):
        from_dict(doc)
    doc = minimal_doc()
    doc["quadrature"] = {"inner_nodes": 64}
    with pytest.raises(ConfigError, match="inner_nodes"):
        from_dict(doc)
    doc = minimal_doc()
    doc["integrator"] = {"max_step": 0.5}
    with pytest.raises(ConfigError, match="max_step"):
        from_dict(doc)


def test_unfolding_and_params_are_exclusive():
    doc = minimal_doc()
    doc["params"] = {"a": 0.0, "b": 0.0, "c": -4.0}
    with pytest.raises(ConfigError, match="exactly one"):
        from_dict(doc)
    with pytest.raises(ConfigError, match="exactly one"):
        from_dict({"eps": 0.1})


def test_eps_validation():
    doc = minimal_doc()
    doc["eps"] = 0.0
    with pytest.raises(ConfigError, match="eps"):
        from_dict(doc)
    doc["eps"] = 0.3
    with pytest.raises(ConfigError, match="eps"):
        from_dict(doc)
    doc = minimal_doc()
    doc["eps_list"] = [0.1, 0.05]
    with pytest.raises(ConfigError, match="mutually exclusive"):
        from_dict(doc)


def test_eps_list_must_decrease():
    doc = {"unfolding": {"delta": 2.0}, "eps_list": [0.05, 0.1]}
    with pytest.raises(ConfigError, match="decreasing"):
        from_dict(doc)
    doc["eps_list"] = [0.1]
    with pytest.raises(ConfigError, match="at least two"):
        from_dict(doc)
    doc["eps_list"] = [0.1, 0.05, 0.025]
    assert from_dict(doc).eps_list == (0.1, 0.05, 0.025)


def test_type_errors_have_path_context():
    cases = [
        ("unfolding", "delta", "two", "unfolding.delta"),
        ("integrator", "tol", "tight", "integrator.tol"),
        ("quadrature", "nodes", 1.5, "quadrature.nodes"),
    ]
    for section, key, value, path in cases:
        doc = minimal_doc()
        doc.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError) as info:
            from_dict(doc)
        message = str(info.value)
        assert message.startswith(path + ":"), message
        assert message.count(section) == 1, message


@pytest.mark.parametrize("block", ["unfolding", "params", "quadrature",
                                   "integrator"])
def test_a_block_that_is_not_an_object_is_rejected(block):
    doc = minimal_doc()
    if block == "params":
        del doc["unfolding"]
    doc[block] = [1.0, 2.0]
    with pytest.raises(ConfigError) as info:
        from_dict(doc)
    assert str(info.value) == f"{block}: expected an object"


def test_unrunnable_integrator_budgets_rejected():
    """tol below 100 machine epsilons asks for steps that would only
    resolve round-off, and tol above MAX_TOL locates orbits that drift
    from the true ones. The step budget is the constant
    shooting.MAX_STEPS, so max_steps is an unknown key, whatever its
    value."""
    for value in (1.0, 2.0, 0.5, 2.0 * MAX_TOL, 1e-20, 2e-14):
        doc = minimal_doc()
        doc["integrator"] = {"tol": value}
        with pytest.raises(ConfigError, match="^integrator: tol must be"):
            from_dict(doc)
    for value in (0, -3, 1, 1.5):
        doc = minimal_doc()
        doc["integrator"] = {"max_steps": value, "tol": 2.3e-14}
        with pytest.raises(ConfigError, match=r"^integrator: unknown keys "
                           r"\['max_steps'\]$"):
            from_dict(doc)
    doc = minimal_doc()
    doc["integrator"] = {"tol": 2.3e-14}
    assert from_dict(doc).integrator == IntegratorSpec(tol=2.3e-14)
    doc["integrator"] = {"tol": MAX_TOL}
    assert from_dict(doc).integrator.tol == MAX_TOL


def test_invalid_delta_is_config_error():
    with pytest.raises(ConfigError):
        from_dict({"unfolding": {"delta": -1.0}})
    with pytest.raises(ConfigError):
        from_dict({"unfolding": {"a2": 1.0}})  # delta required


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_doc()), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.unfolding.b2 == 5.0
    with pytest.raises(ConfigError, match="not valid JSON"):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    nonfinite = tmp_path / "nonfinite.json"
    nonfinite.write_text('{"unfolding": {"delta": 2.0}, '
                         '"integrator": {"tol": Infinity}}',
                         encoding="utf-8")
    with pytest.raises(ConfigError, match="Infinity"):
        load_config(nonfinite)
    # number literals beyond the double range parse to inf or a huge int
    for key, literal in [("a2", "1e400"), ("a2", "1" + "0" * 400),
                         ("b2", "-1e400")]:
        overflow = tmp_path / "overflow.json"
        overflow.write_text('{"unfolding": {"delta": 2.0, "%s": %s}}'
                            % (key, literal), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unfolding.{key}: .*finite"):
            load_config(overflow)
    huge_tol = tmp_path / "huge_tol.json"
    huge_tol.write_text('{"unfolding": {"delta": 2.0}, '
                        '"integrator": {"tol": 1e999}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="integrator.tol"):
        load_config(huge_tol)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"output_dir": "r\xe9sultats"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(latin1)
    # beyond Python's 4300-digit limit on int parsing
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"unfolding": {"delta": 2.0, "a2": %s}}'
                        % ("1" * 5000), encoding="utf-8")
    with pytest.raises(ConfigError, match="long_int.json cannot be parsed"):
        load_config(long_int)
    huge_eps = tmp_path / "huge_eps.json"
    huge_eps.write_text('{"unfolding": {"delta": 2.0}, "eps_list": [0.1, %s]}'
                        % ("1" + "0" * 400), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"eps_list\[1\]: .*finite"):
        load_config(huge_eps)
