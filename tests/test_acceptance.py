"""End-to-end runs of every experiment at its shipped default budget.

Each test drives one experiment through the runner exactly as the command
line would, then asserts the domain checks and the wall-clock budget the
defaults are sized for.  The module suites exercise the same code paths at
toy sizes; these runs are the slow, full-size ones.
"""

import json

import numpy as np
import pytest

from contactflow import (
    Cone2,
    CorrelationSeries,
    check_cone_invariance,
    expansion_constants,
    fit_decay,
    standard_map,
)
from contactflow.cli import ExperimentConfig, run

pytestmark = pytest.mark.acceptance


def _run(tmp_path, experiment, out, parameters=None, seed=0):
    data = {"experiment": experiment, "out": str(tmp_path / out),
            "seed": seed}
    if parameters:
        data["parameters"] = parameters
    cfg = ExperimentConfig.from_json_dict(data)
    manifest = run(cfg)
    detail = {c.name: (c.passed, c.value, c.detail) for c in manifest.checks}
    assert manifest.all_passed, f"failed checks: {detail}"
    return manifest


def _names(manifest):
    return {c.name for c in manifest.checks}


def test_flow_foundations_verified_within_budget(tmp_path):
    manifest = _run(tmp_path, "verify", "verify")
    assert _names(manifest) == {
        "closedness", "roof_gradient", "contact_invariance", "volume_box_z",
        "semigroup", "inversion", "chart_residual", "cone_aperture",
        "expansion_rel",
    }
    assert manifest.wall_time_s < 120.0


def test_cone_field_contracts_and_expansion_constants_converge():
    report = check_cone_invariance(standard_map(), Cone2(1.0), n_rays=10000)
    assert report.max_image_aperture <= 0.25 + 1e-9
    lam_u, lam_s, big_lam = expansion_constants(standard_map(), Cone2(0.01))
    assert abs(lam_u - 2.0) / 2.0 <= 0.01
    assert abs(lam_s - 0.5) / 0.5 <= 0.01
    assert big_lam >= lam_u


def test_resolvent_identities_within_budget(tmp_path):
    manifest = _run(tmp_path, "resolvent", "resolvent")
    assert _names(manifest) == {
        "constant_identity", "generator_identity", "nested_agreement",
        "modulus_bound",
    }
    assert manifest.wall_time_s < 60.0


def test_ulam_spectrum_stable_under_refinement(tmp_path):
    manifest = _run(tmp_path, "ulam", "ulam")
    assert _names(manifest) == {
        "ulam_leading", "ulam_second", "ulam_residual", "ulam_refine_rel",
    }
    by_name = {c.name: c.value for c in manifest.checks}
    assert by_name["ulam_leading"] <= 1e-12
    assert by_name["ulam_second"] < 1.0
    assert manifest.wall_time_s < 300.0


def test_correlation_decay_detected_against_control(tmp_path):
    control = _run(tmp_path, "correlate", "control",
                   parameters={"psi2": "one"}, seed=7)
    headline = _run(tmp_path, "correlate", "headline", seed=5)

    fit = json.loads((tmp_path / "headline" / "decay_fit.json").read_text())
    assert fit["sigma_hat"] > 0.0
    assert fit["ci_low"] > 0.0
    assert fit["ci_low"] <= fit["sigma_hat"] <= fit["ci_high"]

    # planted-rate recovery on synthetic series with matched noise level
    t = np.arange(0.0, 30.0 + 1e-9, 0.5)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        values = 0.5 * np.exp(-0.3 * t) + rng.normal(0.0, 1e-4, t.size)
        series = CorrelationSeries(
            t=t, values=values.astype(complex),
            stderr=np.full(t.size, 1e-4), n_samples=10_000, seed=seed,
            n_batches=64)
        assert abs(fit_decay(series, seed=seed).sigma_hat - 0.3) <= 0.02

    assert control.wall_time_s + headline.wall_time_s <= 600.0


def test_transform_norm_package_within_budget(tmp_path):
    manifest = _run(tmp_path, "normcheck", "normcheck")
    assert _names(manifest) == {
        "parseval", "symbol_hypotheses", "k_drift", "composition_bound",
        "multiplier_drift", "multiplier_growth",
    }
    assert manifest.wall_time_s < 180.0


def test_oscillatory_cancellation_beats_trivial_bound(tmp_path):
    manifest = _run(tmp_path, "dolgopyat", "dolgopyat")
    assert _names(manifest) == {
        "anchor_identity", "ratio_monotone", "gamma0_positive",
        "budget_fraction", "baseline_no_decay",
    }
    by_name = {c.name: c.value for c in manifest.checks}
    assert by_name["gamma0_positive"] > 0.0
    assert by_name["budget_fraction"] < 0.1
    assert manifest.wall_time_s <= 600.0


def test_complexity_growth_subexponential_with_control(tmp_path):
    manifest = _run(tmp_path, "complexity", "complexity")
    assert _names(manifest) == {"rates_decreasing", "control_single_piece"}
    assert manifest.wall_time_s < 180.0


@pytest.mark.parametrize("experiment,parameters", [
    ("correlate", {"n_samples": 200000, "t_max": 10.0, "t_step": 1.0,
                   "n_boot": 200}),
    ("ulam", {"nx": 12, "ny": 12, "nz": 4, "samples_per_cell": 100,
              "refine": False}),
])
def test_numeric_artifacts_identical_across_same_seed_reruns(
        tmp_path, experiment, parameters):
    outputs = []
    for rerun in range(2):
        out = f"{experiment}_{rerun}"
        cfg = ExperimentConfig.from_json_dict(
            {"experiment": experiment, "out": str(tmp_path / out),
             "parameters": parameters})
        manifest = run(cfg)
        blobs = {}
        for name in manifest.artifacts:
            if name == "manifest.json":  # carries wall time, nothing numeric
                continue
            blobs[name] = (tmp_path / out / name).read_bytes()
        outputs.append(blobs)
    assert outputs[0]  # at least one numeric artifact per experiment
    assert outputs[0] == outputs[1]
