"""Workload table: which CLI experiments each workload runs, at what size,
and what counts as a correct result.

Every operation is one experiment run in a fresh process through the
config-file command line.  Parameters not listed here take the CLI defaults.
The workload seed reaches the program only as the config ``seed``.
"""

from __future__ import annotations

STANDARD = {"map": "f0", "epsilon": 0.0, "tau_minus": 1.0}
PERTURBED = {"map": "perturbed", "epsilon": 0.02, "tau_minus": 1.0}

# name -> flow, ordered operations (experiment, parameters), why, and
# optionally the number of set-up probes per run (default 3).  The first
# operation is the one each timed run repeats.
WORKLOADS: dict[str, dict] = {
    "sampling": {
        "flow": STANDARD,
        "ops": [
            ("ulam", {"refine": False}),
            ("correlate", {"n_samples": 100000}),
        ],
        "why": "batch flow kernels (piece lookup, roof, map steps, event "
               "stepping) and bump evaluation over every sample; exact "
               "column roof max and the per-cell RNG loop of Ulam",
    },
    "orbits": {
        "flow": STANDARD,
        "ops": [
            ("leafstats", {}),
            ("dolgopyat", {"eval_points": 20}),
            ("resolvent", {}),
        ],
        "why": "per-point scalar backward-orbit walks, per-call quadrature "
               "panel rebuilds and leaf averaging; batch stepping idle",
    },
    "exact": {
        "flow": STANDARD,
        "ops": [
            ("verify", {}),
            ("complexity", {"n_max": 5}),
            ("normcheck", {"iter_n": 128}),
        ],
        "why": "exact Fraction clipping and containment tests, 3-D FFT "
               "norms and cone certificates; flow stepping only in verify",
    },
    "perturbed": {
        "flow": PERTURBED,
        "ops": [
            ("resolvent", {"n_points": 5, "n_nested": 0}),
            ("ulam", {"nx": 8, "ny": 8, "nz": 4, "samples_per_cell": 100,
                      "refine": False}),
            ("correlate", {"n_samples": 8000, "t_max": 5.0, "t_step": 0.25}),
            ("leafstats", {}),
        ],
        "setup_probes": 2,
        "why": "same flow and transfer layers through the 64-node line-"
               "integral roof and shear-labelled pieces; float column probe "
               "instead of exact clipping",
    },
}

# Failures the program has today, reported in `failed` but not treated as a
# wrong result.  Each entry matches one operation: the workload, the
# experiment and either the escaping exception (type and message start) or
# the set of checks allowed to fail.
KNOWN_DEFECTS = [
    {
        "workload": "perturbed", "experiment": "leafstats",
        "exception": "ValueError",
        "message": "wrap indices outside the registered piece set",
        "note": "a NaN preimage reaches PerturbedTorusMap.piece_of_arrays; "
                "the exception escapes cli.run and no manifest is written",
    },
    {
        "workload": "orbits", "experiment": "leafstats",
        "checks": ["growth_log_increment", "seed_interval_mass"],
        "note": "at the default parameters some seeds fail the late-step "
                "piece-count increment (above 0.45) and, when the seed leaf "
                "is clipped at the flow-box boundary, the seed interval's "
                "boundary mass (above r / delta)",
    },
]


def known_defect(workload: str, experiment: str, exc_type: str | None,
                 exc_message: str, failed_checks: list[str]) -> str | None:
    """The note of the known defect this failure matches, or None."""
    for d in KNOWN_DEFECTS:
        if d["workload"] != workload or d["experiment"] != experiment:
            continue
        if "exception" in d:
            if exc_type == d["exception"] and exc_message.startswith(d["message"]):
                return d["note"]
        elif exc_type is None and failed_checks and set(failed_checks) <= set(d["checks"]):
            return d["note"]
    return None


# Headline values: (workload, experiment) -> name -> (file, json path,
# reference, tolerance, kind).  "band": |value - reference| <= tolerance;
# "max": value <= reference + tolerance; "exact": value == reference.
# References are medians over seeds 0-9 ("band", "exact") or the largest
# value over those seeds ("max", with a tolerance of 99 times it, so an
# error may grow a hundredfold).  Band tolerances cover the seed-to-seed
# spread seen (seeds 0-29 for sampling's sigma_hat) with room; a fixed seed
# reproduces its value exactly.
_RESOLVENT = {
    "constant_identity": ("resolvent_report.json", "constant_identity",
                          5.5e-15, 5.445e-13, "max"),
    "generator_identity": ("resolvent_report.json", "generator_identity",
                           2.2e-07, 2.178e-05, "max"),
    "modulus_excess": ("resolvent_report.json", "modulus_excess",
                       -0.121, 0.05, "band"),
}
HEADLINES: dict[tuple[str, str], dict[str, tuple]] = {
    ("sampling", "ulam"): {
        "second_modulus": ("ulam_report.json", "second_modulus",
                           0.4911, 0.03, "band")},
    ("sampling", "correlate"): {
        "sigma_hat": ("decay_fit.json", "sigma_hat", 0.3, 0.3, "band")},
    ("orbits", "dolgopyat"): {
        "gamma0_hat": ("dolgopyat_report.json", "gamma0_hat",
                       2.46, 0.8, "band")},
    ("orbits", "resolvent"): dict(_RESOLVENT, nested_agreement=(
        "resolvent_report.json", "nested_agreement", 2.2e-07, 2.178e-05,
        "max")),
    ("exact", "complexity"): {
        f"{key}_n{n + 1}": ("complexity_report.json", f"rows.{n}.{key}",
                            value, 0, "exact")
        for n, pair in enumerate([(4, 4), (9, 7), (11, 9), (13, 11), (15, 13)])
        for key, value in zip(("D_b", "D_e"), pair)},
    ("perturbed", "ulam"): {
        "second_modulus": ("ulam_report.json", "second_modulus",
                           0.3617, 0.06, "band")},
    ("perturbed", "correlate"): {
        "sigma_hat": ("decay_fit.json", "sigma_hat", 0.75, 0.3, "band")},
    ("perturbed", "resolvent"): dict(_RESOLVENT, generator_identity=(
        "resolvent_report.json", "generator_identity", 4.3e-08, 4.257e-06,
        "max")),
}

# Spread of the end-to-end metrics, (q3 - q1) / median over ten runs, in
# two sets (seeds 10-19, then 20-29) measured on a 2-core shared VM when the
# benchmark was defined, next to the spread of one experiment process
# between single runs seen while sizing the workloads.  The machine's speed
# shifts by about a third over minutes; it sets the larger values.
_SINGLE_RUN = "9-20% between single runs of one experiment while sizing"
MEASURED_SPREAD: dict[str, dict] = {
    "sampling": {"wall_s": [0.054, 0.195], "setup_s": [0.255, 0.121],
                 "peak_rss_mb": [0.001, 0.001], "single_run": _SINGLE_RUN},
    "orbits": {"wall_s": [0.043, 0.149], "setup_s": [0.109, 0.280],
               "peak_rss_mb": [0.002, 0.002], "single_run": _SINGLE_RUN},
    "exact": {"wall_s": [0.298, 0.098], "setup_s": [0.349, 0.118],
              "peak_rss_mb": [0.0004, 0.001], "single_run": _SINGLE_RUN},
    "perturbed": {"wall_s": [0.116, 0.057], "setup_s": [0.135, 0.115],
                  "peak_rss_mb": [0.004, 0.004], "single_run": _SINGLE_RUN},
}


def config_for(workload: str, experiment: str, parameters: dict, seed: int,
               out: str) -> dict:
    return {
        "flow": dict(WORKLOADS[workload]["flow"]),
        "experiment": experiment,
        "parameters": dict(parameters),
        "seed": int(seed),
        "out": out,
    }
