"""Config parsing, manifests, exit codes, and artifact determinism."""

import ast
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from contactflow import ConfigError
from contactflow.cli import (
    PARAM_SCHEMA,
    ExperimentConfig,
    _closedness_exact,
    _contact_invariance_residual,
    _validate_param,
    load_config,
    main,
    run,
)
from helpers import constant_roof_flow, load_strict_json


def _config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_flow_key_is_named_in_error():
    with pytest.raises(ConfigError, match="flow.tua_minus"):
        ExperimentConfig.from_json_dict(
            {"experiment": "verify", "flow": {"tua_minus": 1.0}})


def test_unknown_parameter_key_is_named_in_error():
    with pytest.raises(ConfigError, match="parameters.n_contacts"):
        ExperimentConfig.from_json_dict(
            {"experiment": "verify", "parameters": {"n_contacts": 10}})


def test_defaults_resolved_and_round_trip():
    cfg = ExperimentConfig.from_json_dict({"experiment": "correlate"})
    assert cfg.parameters["n_samples"] == 1000000
    assert cfg.parameters["t_step"] == 0.5
    back = ExperimentConfig.from_json_dict(json.loads(cfg.canonical_json()))
    assert back == cfg
    assert back.canonical_json() == cfg.canonical_json()
    assert back.config_hash() == cfg.config_hash()


def test_seed_changes_hash():
    base = ExperimentConfig.from_json_dict({"experiment": "verify"})
    other = ExperimentConfig.from_json_dict({"experiment": "verify",
                                             "seed": 1})
    assert base.config_hash() != other.config_hash()


def test_experiment_subcommand_mismatch():
    with pytest.raises(ConfigError, match="subcommand"):
        ExperimentConfig.from_json_dict({"experiment": "ulam"},
                                        experiment="verify")


def test_epsilon_forbidden_for_unperturbed_map():
    with pytest.raises(ConfigError, match="flow.epsilon"):
        ExperimentConfig.from_json_dict(
            {"experiment": "verify", "flow": {"map": "f0", "epsilon": 0.01}})


@pytest.mark.parametrize("experiment", ["verify", "complexity"])
def test_exact_only_experiments_reject_perturbed_flow(tmp_path, capsys,
                                                      experiment):
    out = tmp_path / "out"
    path = _config(tmp_path, {"experiment": experiment, "out": str(out),
                              "flow": {"map": "perturbed", "epsilon": 0.02}})
    assert main([experiment, "--config", path]) == 2
    assert "flow.map" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flow,key", [
    ({"map": "perturbed", "epsilon": 0.1}, "flow.epsilon"),
    ({"map": "perturbed", "epsilon": -0.01}, "flow.epsilon"),
    ({"map": "perturbed", "epsilon": float("nan")}, "flow.epsilon"),
    ({"tau_minus": float("nan")}, "flow.tau_minus"),
])
def test_out_of_range_flow_is_config_error(tmp_path, capsys, flow, key):
    # the perturbed family is defined for 0 <= epsilon <= 0.05 and the roof
    # floor must be positive; anything else is a config error (exit 2)
    # before an output directory exists
    out = tmp_path / "out"
    path = _config(tmp_path, {"experiment": "resolvent", "out": str(out),
                              "flow": flow})
    assert main(["resolvent", "--config", path]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,parameters", [
    ("complexity", {"n_max": 0}), ("complexity", {"n_max": 2}),
    ("complexity", {"n_max": 13}), ("ulam", {"nx": 0}), ("ulam", {"ny": -1}),
    ("ulam", {"nz": 0}), ("ulam", {"samples_per_cell": 50}),
])
def test_out_of_range_size_is_config_error(tmp_path, capsys, experiment, parameters):
    # complexity compares at least two rates and refines at most 12 levels;
    # an Ulam grid needs a cell per axis and 100 samples a cell.  Outside
    # that, a run is a config error (exit 2) before an output directory exists
    out = tmp_path / "out"
    path = _config(tmp_path, {"experiment": experiment, "out": str(out),
                              "parameters": parameters})
    assert main([experiment, "--config", path]) == 2
    assert f"parameters.{next(iter(parameters))}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment,parameters", [
    ("complexity", {"n_max": 3}), ("complexity", {"n_max": 12}),
    ("ulam", {"nx": 1, "ny": 1, "nz": 1, "samples_per_cell": 100}),
])
def test_size_bounds_are_inclusive(experiment, parameters):
    cfg = ExperimentConfig.from_json_dict({"experiment": experiment, "parameters": parameters})
    assert {k: cfg.parameters[k] for k in parameters} == parameters


TESTS = Path(__file__).resolve().parent
WORKLOADS = TESTS.parent / "perfbench" / "workloads.py"

# (experiment, parameter) -> the test whose config sets it, for parameters no
# benchmark workload sends.  Any other value is a constant in its runner.
SET_BY_TESTS = {
    ("correlate", "n_boot"):
        "test_acceptance.py::test_numeric_artifacts_identical_across_same_seed_reruns",
    ("normcheck", "r_prime"):
        "test_cli.py::test_normcheck_records_violated_symbol_hypotheses",
    ("normcheck", "n_per_axis"):
        "test_cli.py::test_normcheck_records_violated_symbol_hypotheses",
    ("normcheck", "grid_n"):
        "test_cli.py::test_normcheck_records_violated_symbol_hypotheses",
    ("normcheck", "parseval_n"):
        "test_cli.py::test_normcheck_records_violated_symbol_hypotheses",
    ("normcheck", "mult_ns"):
        "test_cli.py::test_normcheck_records_violated_symbol_hypotheses",
    ("leafstats", "ell_max"): "test_cli.py::test_main_leafstats_exit_zero",
    ("leafstats", "piece_cap"): "test_cli.py::test_domain_error_becomes_failed_check",
}


def _dict_keys_in_test(test_id: str) -> set:
    """String keys of the dict literals in one test, decorators included."""
    filename, name = test_id.split("::")
    tree = ast.parse((TESTS / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return {k.value for d in ast.walk(node) if isinstance(d, ast.Dict)
                    for k in d.keys if isinstance(k, ast.Constant)}
    raise AssertionError(f"{test_id}: no such test")


def test_every_parameter_has_a_caller():
    # a parameter that neither a benchmark workload nor a test sets has one
    # value in use: it belongs in its runner as a constant
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sent = {(exp, key) for wl in workloads.WORKLOADS.values()
            for exp, params in wl["ops"] for key in params}
    schema = {(exp, key) for exp, keys in PARAM_SCHEMA.items() for key in keys}
    assert sorted(schema - sent - set(SET_BY_TESTS)) == []
    # an allowance for a removed key, or for one a workload sends, is stale
    assert sorted(set(SET_BY_TESTS) - schema) == []
    assert sorted(set(SET_BY_TESTS) & sent) == []
    unset = [(key, test) for (_, key), test in SET_BY_TESTS.items()
             if key not in _dict_keys_in_test(test)]
    assert unset == []


def test_every_parameter_kind_has_a_user():
    # a kind _validate_param accepts (kind == "x" or kind.startswith("x"))
    # that no schema entry uses is dead validation code
    equal, prefix = set(), set()
    for node in ast.walk(ast.parse(inspect.getsource(_validate_param))):
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                and node.left.id == "kind"):
            equal.update(c.value for c in node.comparators)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "startswith"
              and getattr(node.func.value, "id", None) == "kind"):
            prefix.update(a.value for a in node.args)
    used = {kind for schema in PARAM_SCHEMA.values() for kind, _ in schema.values()}
    assert "intlist" in equal  # the parse sees the branches
    assert sorted(equal - used) == []
    assert [p for p in prefix if not any(k.startswith(p) for k in used)] == []


def test_seed_validation():
    for bad in (-1, 2 ** 64, True, 1.5):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_json_dict({"experiment": "verify",
                                             "seed": bad})


def test_unknown_tolerance_name_rejected():
    # check bounds are declared in cli.TOLERANCES; no config key moves them
    with pytest.raises(ConfigError, match="tolerances: unknown key"):
        ExperimentConfig.from_json_dict(
            {"experiment": "leafstats",
             "tolerances": {"growth_log_increment": 1.0}})


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        load_config(tmp_path / "absent.json")
    assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_perturbed_flow_construction():
    cfg = ExperimentConfig.from_json_dict(
        {"experiment": "resolvent",
         "flow": {"map": "perturbed", "epsilon": 0.02}})
    flow = cfg.build_flow()
    assert flow.tau_minus == 1.0


# ---------------------------------------------------------------------------
# runs, manifests, exit codes
# ---------------------------------------------------------------------------


def _leafstats_config(tmp_path, out, **extra):
    data = {"experiment": "leafstats", "out": str(tmp_path / out),
            "parameters": {"ell_max": 6}}
    data.update(extra)
    return ExperimentConfig.from_json_dict(data)


def test_run_writes_manifest_and_artifacts(tmp_path):
    cfg = _leafstats_config(tmp_path, "run1")
    manifest = run(cfg)
    assert manifest.all_passed
    assert manifest.experiment == "leafstats"
    assert manifest.config_hash == cfg.config_hash()
    assert "manifest.json" in manifest.artifacts
    for name in manifest.artifacts:
        assert (tmp_path / "run1" / name).is_file()
    on_disk = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    assert on_disk == manifest.to_json_dict()
    assert on_disk["all_passed"] is True
    assert sorted(on_disk["artifacts"]) == on_disk["artifacts"]
    # the manifest holds the resolved config it hashes
    back = ExperimentConfig.from_json_dict(on_disk["config"])
    assert back == cfg
    assert back.config_hash() == on_disk["config_hash"]


def test_main_leafstats_exit_zero(tmp_path, capsys):
    path = _config(tmp_path, {"experiment": "leafstats",
                              "parameters": {"ell_max": 6},
                              "out": str(tmp_path / "out")})
    assert main(["leafstats", "--config", path]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_impossible_tolerance_fails_run(tmp_path, capsys):
    # a piece cap of 2 cannot hold the decomposition: exit 1, and the
    # manifest names the failed check
    path = _config(tmp_path, {"experiment": "leafstats",
                              "parameters": {"ell_max": 20, "piece_cap": 2},
                              "out": str(tmp_path / "out")})
    assert main(["leafstats", "--config", path]) == 1
    assert "[FAIL] runtime_PieceExplosion" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    failed = [c for c in manifest["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["runtime_PieceExplosion"]
    assert manifest["all_passed"] is False


def test_domain_error_becomes_failed_check(tmp_path):
    cfg = _leafstats_config(tmp_path, "boom",
                            parameters={"ell_max": 20, "piece_cap": 2})
    manifest = run(cfg)
    assert not manifest.all_passed
    names = [c.name for c in manifest.checks]
    assert "runtime_PieceExplosion" in names
    assert (tmp_path / "boom" / "manifest.json").is_file()


def test_normcheck_records_violated_symbol_hypotheses(tmp_path):
    # r' = 0.5 breaks the exponent window r' < r; the named check must fail
    # in the manifest rather than the run ending in a runtime error
    cfg = ExperimentConfig.from_json_dict(
        {"experiment": "normcheck", "out": str(tmp_path / "nc"),
         "parameters": {"r_prime": 0.5, "parseval_n": 8, "n_per_axis": 9,
                        "grid_n": 32, "iter_n": 32, "mult_ns": [16, 32]}})
    manifest = run(cfg)
    by_name = {c.name: c for c in manifest.checks}
    assert not any(name.startswith("runtime_") for name in by_name)
    sym = by_name["symbol_hypotheses"]
    assert not sym.passed
    assert "need r' < r" in sym.detail
    report = json.loads((tmp_path / "nc" / "normcheck_report.json").read_text())
    assert report["symbol"]["hypothesis_ok"] is False


def test_normcheck_json_artifacts_are_strict_json(tmp_path):
    # a multiplier row has no bound: JSON null and an empty CSV cell, never
    # a bare NaN token
    out = tmp_path / "nc"
    run(ExperimentConfig.from_json_dict(
        {"experiment": "normcheck", "out": str(out),
         "parameters": {"parseval_n": 8, "n_per_axis": 9, "grid_n": 32,
                        "iter_n": 32, "mult_ns": [16, 32]}}))
    docs = {p.name: load_strict_json(p) for p in sorted(out.glob("*.json"))}
    assert sorted(docs) == ["manifest.json", "normcheck_report.json",
                            "symbol_report.json"]
    report = docs["normcheck_report.json"]
    rows = (report["multiplier_admissible"]["rows"]
            + report["multiplier_growth"]["rows"])
    assert len(rows) == 6 and all(row["bound"] is None for row in rows)
    lines = (out / "multiplier_sweep.csv").read_text().splitlines()[2:]
    assert len(lines) == 6 and all(line.endswith(",") for line in lines)


def test_closedness_fails_on_roof_without_quadratic_keys():
    # a constant roof stores only "const"; the missing quadratic keys read as
    # 0, which differs from every pinned value of the standard map
    control = constant_roof_flow()
    ok, detail = _closedness_exact(control)
    assert not ok
    for piece in control.base.pieces:
        for key in ("qxx", "qxy", "qyy"):
            assert f"piece {piece.name}: {key} != pinned value" in detail


def test_contact_invariance_tells_the_constant_roof_apart(flow):
    # the constant-roof suspension does not preserve alpha = dz - y dx, so
    # verify's finite-difference check must fail there and pass on the
    # standard flow (verify's defaults, seed 7)
    control, used_c = _contact_invariance_residual(constant_roof_flow(), 10000, 7, 0.5, 5.0)
    standard, used_s = _contact_invariance_residual(flow, 10000, 7, 0.5, 5.0)
    assert min(used_c, used_s) >= 10000
    assert control > 1.0
    assert standard < 1e-6


def test_rerun_same_seed_byte_identical(tmp_path):
    a = run(_leafstats_config(tmp_path, "a"))
    b = run(_leafstats_config(tmp_path, "b"))
    assert a.all_passed and b.all_passed
    csv_a = (tmp_path / "a" / "leafstats.csv").read_bytes()
    csv_b = (tmp_path / "b" / "leafstats.csv").read_bytes()
    assert csv_a == csv_b


def test_seed_override_changes_artifacts(tmp_path):
    run(_leafstats_config(tmp_path, "s0"))
    cfg1 = _leafstats_config(tmp_path, "s1", seed=1)
    run(cfg1)
    csv_0 = (tmp_path / "s0" / "leafstats.csv").read_bytes()
    csv_1 = (tmp_path / "s1" / "leafstats.csv").read_bytes()
    assert csv_0 != csv_1
