"""Config parsing, manifests, exit codes, and artifact determinism."""

import json

import pytest

from contactflow import ConfigError
from contactflow.cli import ExperimentConfig, load_config, main, run


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
    cfg = ExperimentConfig.from_json_dict({"experiment": "verify"})
    assert cfg.parameters["n_contact"] == 10000
    assert cfg.parameters["aperture"] == 0.01
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


def test_seed_validation():
    for bad in (-1, 2 ** 64, True, 1.5):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_json_dict({"experiment": "verify",
                                             "seed": bad})


def test_unknown_tolerance_name_rejected():
    with pytest.raises(ConfigError, match="tolerances.no_such"):
        ExperimentConfig.from_json_dict({"experiment": "verify",
                                         "tolerances": {"no_such": 1.0}})


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
        {"experiment": "verify",
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


def test_main_leafstats_exit_zero(tmp_path, capsys):
    path = _config(tmp_path, {"experiment": "leafstats",
                              "parameters": {"ell_max": 6},
                              "out": str(tmp_path / "out")})
    assert main(["leafstats", "--config", path]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_impossible_tolerance_fails_run(tmp_path, capsys):
    path = _config(tmp_path, {"experiment": "leafstats",
                              "parameters": {"ell_max": 4},
                              "out": str(tmp_path / "out"),
                              "tolerances": {"kernel_residual": -1.0}})
    assert main(["leafstats", "--config", path]) == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    failed = [c for c in manifest["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["kernel_residual"]


def test_domain_error_becomes_failed_check(tmp_path):
    cfg = _leafstats_config(tmp_path, "boom",
                            parameters={"ell_max": 20, "piece_cap": 2})
    manifest = run(cfg)
    assert not manifest.all_passed
    names = [c.name for c in manifest.checks]
    assert "runtime_PieceExplosion" in names
    assert (tmp_path / "boom" / "manifest.json").is_file()


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
