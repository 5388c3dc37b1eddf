"""End-to-end runs of every experiment at its shipped default budget.

Each test drives one experiment through the runner exactly as the command
line would, then asserts the domain checks and the wall-clock budget the
defaults are sized for.  The module suites exercise the same code paths at
toy sizes; these runs are the slow, full-size ones.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from contactflow import (
    Cone2,
    CorrelationSeries,
    check_cone_invariance,
    expansion_constants,
    fit_decay,
    standard_map,
)
from contactflow.cli import ExperimentConfig, run
from helpers import COMPLEXITY_ROWS, load_strict_json

pytestmark = pytest.mark.acceptance


def _run(tmp_path, experiment, out, parameters=None, seed=0, flow=None):
    data = {"experiment": experiment, "out": str(tmp_path / out),
            "seed": seed}
    if parameters:
        data["parameters"] = parameters
    if flow:
        data["flow"] = flow
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
        "semigroup", "inversion", "cone_aperture", "expansion_rel",
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


def test_correlation_decay_detected_and_planted_rate_recovered(tmp_path):
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

    assert headline.wall_time_s <= 600.0


def test_transform_norm_package_within_budget(tmp_path):
    manifest = _run(tmp_path, "normcheck", "normcheck")
    assert _names(manifest) == {
        "parseval", "symbol_hypotheses", "k_drift", "composition_bound",
        "multiplier_drift", "multiplier_growth",
    }
    assert manifest.wall_time_s < 180.0


NORMCHECK_PIN = Path(__file__).with_name("normcheck_pin.json")


def _csv_rows(path):
    lines = path.read_text().splitlines()[1:]  # after the transform comment
    return [{k: float(v) if v else None for k, v in row.items()}
            for row in csv.DictReader(lines)]


def _leaves(obj, path=""):
    """(path, value) for every scalar of a parsed JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}/{i}")
    else:
        yield path, obj


def test_normcheck_numbers_match_recorded_values(tmp_path):
    # normcheck at the exact benchmark workload's size, against the values
    # the dense N^3 FFT norm gave (an absent bound recorded as null); the
    # folded transform moves the bytes at the last-ulp level, so compare
    # every number to 1e-12 relative.  parseval_rel is left out: its random
    # input is a plane times a line, no longer an N^3 cube.
    _run(tmp_path, "normcheck", "nc", {"iter_n": 128}, seed=7)
    out = tmp_path / "nc"
    report = load_strict_json(out / "normcheck_report.json")
    del report["parseval_rel"]
    got = dict(_leaves({
        "composition_sweep.csv": _csv_rows(out / "composition_sweep.csv"),
        "multiplier_sweep.csv": _csv_rows(out / "multiplier_sweep.csv"),
        "normcheck_report.json": report}))
    want = dict(_leaves(load_strict_json(NORMCHECK_PIN)))
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert got[key] == value, key


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
    report = json.loads((tmp_path / "complexity" / "complexity_report.json").read_text())
    assert [(r["n"], r["D_b"], r["D_e"], r["cells_b"], r["cells_e"])
            for r in report["rows"]] == COMPLEXITY_ROWS
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


# sha256 of the numeric artifacts of the benchmark's sampling operations at
# seed 7, recorded before the Ulam sampler, the column max, the forward
# stepper and the bump were batched (NumPy 2.4.6, SciPy 1.17.1, x86-64).
# Those kernels promise the same bits, so any change here is a defect.
SAMPLING_SHA256 = {
    "ulam": {
        "ulam_report.json": "16e9b935b71fd0b2540e0cc2c7fe2c84d4bc10178c06bf0699e3c651caaa1af4",
        "ulam_spectrum.csv": "718e0b917639d090c2af86c8285a0b2dad40b33571dcd37ebeb539271af781b4",
    },
    "correlate": {
        "correlation.csv": "04945a47f29da35f473b70e080a47c7f5e0cb12f730b42468463e663c11500c3",
        "decay_fit.json": "9084cba20139e51ccc655f3fa2e2f58427e1f415c053fd9ae2d6dea85a991100",
    },
}
SAMPLING_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}


# sha256 of the numeric artifacts of the benchmark's perturbed operations
# (epsilon 0.02) at seed 7, recorded before the line-integral roof stopped
# evaluating the whole lift at every quadrature node (same versions and
# machine as above).  The roof promises the same bits.
PERTURBED_SHA256 = {
    "resolvent": {
        "resolvent_points.csv": "8a026c9f258898b08b805c3fe59466080df0af13ec575d5be765af96df0a9929",
        "resolvent_report.json": "84704d3819884a3315bad336f30958ed021f60c08dd8b95a938cf5b68865ee10",
    },
    "ulam": {
        "ulam_report.json": "f720a719ffe1faca8ceaa0c92dd679403672b3c374f62f2b8875c4661cbcaac2",
        "ulam_spectrum.csv": "436f62dd2cd5b53a74128f180903ded646ce2a773202faaae850433c356f455f",
    },
    "correlate": {
        "correlation.csv": "a7a34f32e391a9e24e03b71d96ff71675fe4a18692c4a779255e8452ee9f2582",
        "decay_fit.json": "503e07865596094d6914240c4bf93c009ad13fbd9c0b0320d7a8e455ba573c48",
    },
}
PERTURBED_FLOW = {"map": "perturbed", "epsilon": 0.02, "tau_minus": 1.0}


def _artifact_sha256(tmp_path, experiment, parameters, flow=None):
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != SAMPLING_VERSIONS:
        pytest.skip(f"hashes recorded with {SAMPLING_VERSIONS}, running {versions}")
    manifest = _run(tmp_path, experiment, experiment, parameters=parameters,
                    seed=7, flow=flow)
    return {name: hashlib.sha256((tmp_path / experiment / name).read_bytes()).hexdigest()
            for name in manifest.artifacts if name != "manifest.json"}


@pytest.mark.parametrize("experiment,parameters", [
    ("ulam", {"refine": False}),
    ("correlate", {"n_samples": 100000}),
])
def test_sampling_artifacts_match_recorded_sha256(tmp_path, experiment, parameters):
    assert _artifact_sha256(tmp_path, experiment, parameters) == SAMPLING_SHA256[experiment]


@pytest.mark.parametrize("experiment,parameters", [
    ("resolvent", {"n_points": 5, "n_nested": 0}),
    ("ulam", {"nx": 8, "ny": 8, "nz": 4, "samples_per_cell": 100,
              "refine": False}),
    ("correlate", {"n_samples": 8000, "t_max": 5.0, "t_step": 0.25}),
])
def test_perturbed_artifacts_match_recorded_sha256(tmp_path, experiment, parameters):
    got = _artifact_sha256(tmp_path, experiment, parameters, PERTURBED_FLOW)
    assert got == PERTURBED_SHA256[experiment]
