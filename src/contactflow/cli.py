"""Config-driven experiment runner with reproducible seeds and artifacts.

Each subcommand reads one JSON config file, runs a single experiment, writes
machine-readable artifacts (CSV tables, JSON reports) plus ``manifest.json``
into the output directory, and exits 0 only if every check passed.

Config schema (all keys optional; unknown keys are rejected, the error names
the full key path)::

    {
      "flow":       {"map": "f0" | "perturbed", "epsilon": 0.0,
                     "tau_minus": 1.0},
      "experiment": "verify",          # must match the subcommand if present
      "parameters": { ... },           # per-experiment, see PARAM_SCHEMA
      "seed":       0,                 # 64-bit
      "out":        "runs/verify"
    }

``epsilon`` lies in [0, 0.05] and must be 0 for ``f0``.  The parameters
each experiment accepts (``PARAM_RANGES`` bounds ``n_max`` to [3, 12],
``nx``, ``ny`` and ``nz`` to at least 1 and ``samples_per_cell`` to at
least 100):

    verify      none
    correlate   t_max, t_step, n_samples, n_boot
    resolvent   n_points, n_nested
    ulam        nx, ny, nz, samples_per_cell, refine
    dolgopyat   eval_points
    complexity  n_max
    normcheck   r_prime, n_per_axis, grid_n, iter_n, parseval_n, mult_ns
    leafstats   ell_max, piece_cap

Every other experiment size is a constant in its runner.  Each check's bound
is its entry in ``TOLERANCES``; a bound changes only by a code change
recorded in CHANGES.md.

Command line::

    contactflow <subcommand> [--config FILE] [--seed N] [--out DIR]

Exit codes: 0 every check passed, 1 at least one check failed, 2 config
error.  All randomness flows from the single config seed through splittable
counter-based streams, so a rerun with the same (config, seed) writes
byte-identical numeric artifacts; only ``manifest.json`` differs (wall
time).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from contactflow import __version__
from contactflow import aniso
from contactflow import averaging
from contactflow import transfer
from contactflow._quadrature import fmt17, wrap_delta
from contactflow._rng import spawn_rng
from contactflow.errors import ConfigError, ContactFlowError
from contactflow.flow import (
    EPSILON_MAX,
    SuspensionFlow,
    build_perturbed_map,
    build_roof,
    single_piece_map,
    standard_flow,
)
from contactflow.hyperbolicity import (
    Cone2,
    check_cone_invariance,
    complexity_counts,
    expansion_constants,
)

EXPERIMENTS = (
    "verify", "correlate", "resolvent", "ulam", "dolgopyat",
    "complexity", "normcheck", "leafstats",
)

# Per-experiment parameter schema: name -> (kind, default).  Kinds double as
# validators; defaults double as documentation and as the resolved values a
# config round-trips through.  Only values some benchmark workload or test
# sets are parameters; every other experiment size is a constant at its use.
PARAM_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "verify": {},
    "correlate": {
        "t_max": ("float", 30.0),
        "t_step": ("float", 0.5),
        "n_samples": ("int", 1000000),
        "n_boot": ("int", 1000),
    },
    "resolvent": {
        "n_points": ("int", 200),
        "n_nested": ("int", 5),
    },
    "ulam": {
        "nx": ("int", 24),
        "ny": ("int", 24),
        "nz": ("int", 8),
        "samples_per_cell": ("int", 200),
        "refine": ("bool", True),
    },
    "dolgopyat": {
        "eval_points": ("int", 200),
    },
    "complexity": {
        "n_max": ("int", 8),
    },
    "normcheck": {
        "r_prime": ("float", 0.1),
        "n_per_axis": ("int", 33),
        "grid_n": ("int", 128),
        "iter_n": ("int", 192),
        "parseval_n": ("int", 32),
        "mult_ns": ("intlist", [64, 128]),
    },
    "leafstats": {
        "ell_max": ("int", 40),
        "piece_cap": ("int", 1000000),
    },
}

# Inclusive (lo, hi) bounds of the parameters that have them, hi None for
# none: complexity compares at least two rates and refines at most 12 levels
# (complexity_counts), and ulam_build needs a cell per axis and at least 100
# samples a cell.
PARAM_RANGES: dict[str, dict[str, tuple[int, int | None]]] = {
    "ulam": {"nx": (1, None), "ny": (1, None), "nz": (1, None),
             "samples_per_cell": (100, None)},
    "complexity": {"n_max": (3, 12)},
}

# Check name -> tolerance.  A bound changes only by a code change recorded
# in CHANGES.md; no config can move it.
TOLERANCES: dict[str, float] = {
    "closedness": 0.0,
    "roof_gradient": 1e-10,
    "contact_invariance": 1e-6,
    "volume_box_z": 3.0,
    "semigroup": 1e-10,
    "inversion": 1e-10,
    "cone_aperture": 0.25 + 1e-9,
    "expansion_rel": 0.01,
    "decay_positive": 0.0,
    "decay_ci": 0.0,
    "constant_identity": 1e-8,
    "generator_identity": 1e-4,
    "nested_agreement": 1e-3,
    "modulus_bound": 1e-8,
    "ulam_leading": 1e-12,
    "ulam_second": 1.0,
    "ulam_residual": 0.1,
    "ulam_refine_rel": 0.2,
    "anchor_identity": 1.0,
    "ratio_monotone": 1.0,
    "gamma0_positive": 0.0,
    "budget_fraction": 0.1,
    "baseline_no_decay": 0.0,
    "parseval": 1e-10,
    "symbol_hypotheses": 0.0,
    "k_drift": 0.05,
    "composition_bound": 0.0,
    "multiplier_drift": 0.05,
    "multiplier_growth": 0.02,
    "kernel_residual": 1e-10,
    "seed_interval_mass": 1e-12,
    "growth_log_increment": 0.45,
    "boundary_mass_ratio": 100.0,
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _validate_param(path: str, kind: str, value):
    """Coerce one parameter value to its schema kind or raise ConfigError."""
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true/false")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if kind == "intlist":
        if (not isinstance(value, list) or not value
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           for v in value)):
            raise ConfigError(f"{path}: expected a nonempty list of integers")
        return list(value)
    raise AssertionError(f"unknown schema kind {kind}")


@dataclass(frozen=True, eq=True)
class ExperimentConfig:
    """One experiment's fully resolved inputs; round-trips through JSON."""

    experiment: str
    flow_map: str = "f0"
    epsilon: float = 0.0
    tau_minus: float = 1.0
    parameters: dict = field(default_factory=dict)
    seed: int = 0
    out: str = ""

    @classmethod
    def from_json_dict(cls, data: dict, experiment: str | None = None
                       ) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root: expected a JSON object")
        for key in data:
            if key not in ("flow", "experiment", "parameters", "seed", "out"):
                raise ConfigError(f"{key}: unknown key")
        exp = data.get("experiment", experiment)
        if exp is None:
            raise ConfigError("experiment: missing (no subcommand given)")
        if exp not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown experiment {exp!r}")
        if experiment is not None and exp != experiment:
            raise ConfigError(
                f"experiment: config says {exp!r} but the subcommand is "
                f"{experiment!r}")

        fdata = data.get("flow", {})
        if not isinstance(fdata, dict):
            raise ConfigError("flow: expected a JSON object")
        for key in fdata:
            if key not in ("map", "epsilon", "tau_minus"):
                raise ConfigError(f"flow.{key}: unknown key")
        fmap = fdata.get("map", "f0")
        if fmap not in ("f0", "perturbed"):
            raise ConfigError("flow.map: expected \"f0\" or \"perturbed\"")
        eps = _validate_param("flow.epsilon", "float", fdata.get("epsilon", 0.0))
        if fmap == "f0" and eps != 0.0:
            raise ConfigError("flow.epsilon: must be 0 when flow.map is f0")
        if not 0.0 <= eps <= EPSILON_MAX:
            raise ConfigError(f"flow.epsilon: must lie in [0, {EPSILON_MAX}]")
        # closedness and complexity read the exact rational pieces of f0
        if fmap == "perturbed" and exp in ("verify", "complexity"):
            raise ConfigError(f"flow.map: {exp} needs the exact map \"f0\"")
        tau_minus = _validate_param("flow.tau_minus", "float",
                                    fdata.get("tau_minus", 1.0))
        if not tau_minus > 0:
            raise ConfigError("flow.tau_minus: must be positive")

        schema = PARAM_SCHEMA[exp]
        pdata = data.get("parameters", {})
        if not isinstance(pdata, dict):
            raise ConfigError("parameters: expected a JSON object")
        params = {}
        for key, (kind, default) in schema.items():
            if key in pdata:
                params[key] = _validate_param(f"parameters.{key}", kind,
                                              pdata[key])
            else:
                params[key] = json.loads(json.dumps(default))
        for key in pdata:
            if key not in schema:
                raise ConfigError(f"parameters.{key}: unknown key")
        for key, (lo, hi) in PARAM_RANGES.get(exp, {}).items():
            if params[key] < lo or (hi is not None and params[key] > hi):
                bound = f"lie in [{lo}, {hi}]" if hi is not None else f"be at least {lo}"
                raise ConfigError(f"parameters.{key}: must {bound}")

        seed = data.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("seed: expected an integer")
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("seed: must fit in 64 bits")

        out = data.get("out", f"runs/{exp}")
        if not isinstance(out, str) or not out:
            raise ConfigError("out: expected a nonempty string")

        return cls(experiment=exp, flow_map=fmap, epsilon=eps,
                   tau_minus=tau_minus, parameters=params, seed=seed, out=out)

    def to_json_dict(self) -> dict:
        return {
            "flow": {"map": self.flow_map, "epsilon": self.epsilon,
                     "tau_minus": self.tau_minus},
            "experiment": self.experiment,
            "parameters": self.parameters,
            "seed": self.seed,
            "out": self.out,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def build_flow(self) -> SuspensionFlow:
        if self.flow_map == "perturbed":
            return build_perturbed_map(self.epsilon, self.tau_minus)
        return standard_flow(self.tau_minus)


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    """Parse a JSON config file; IO and syntax problems become ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON ({exc})") from exc
    return ExperimentConfig.from_json_dict(data, experiment=experiment)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "value": self.value, "tolerance": self.tolerance,
                "detail": self.detail}


def _check(checks: list, name: str, value, detail: str = "",
           passes=operator.le) -> None:
    """Record check name as passes(value, TOLERANCES[name])."""
    tol = TOLERANCES[name]
    checks.append(CheckResult(name, passes(value, tol), value, tol, detail))


@dataclass
class RunManifest:
    experiment: str
    config: dict
    config_hash: str
    code_version: str
    wall_time_s: float
    checks: list
    artifacts: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "config_hash": self.config_hash,
            "code_version": self.code_version,
            "wall_time_s": self.wall_time_s,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "artifacts": sorted(self.artifacts),
        }


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex to JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


class ArtifactWriter:
    """Writes files under the run directory and records every path."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.paths: list[str] = []

    def path(self, name: str) -> Path:
        self.paths.append(name)
        return self.outdir / name

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, name: str, header: list[str], rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for row in rows:
                wr.writerow([_fmt(v) for v in row])


def _fmt(v) -> str:
    return fmt17(v) if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# verify experiment
# ---------------------------------------------------------------------------


def _closedness_exact(flow: SuspensionFlow) -> tuple[bool, str]:
    """Exact rational check that each piece's roof 1-form is closed.

    The gradient is pinned to (y - f2*df1/dx, -f2*df1/dy); the mixed-partial
    gap of that 1-form is 1 - det, and the stored quadratic must carry
    exactly the pinned coefficients (a missing key reads as 0).
    """
    problems = []
    for i, piece in enumerate(flow.base.pieces):
        if piece.det() != 1:
            problems.append(f"piece {piece.name}: det {piece.det()} != 1")
        m = piece.matrix
        coeff = flow.roof.coeffs[i]
        want = {
            "qxx": -m[0][0] * m[1][0] / 2,
            "qxy": Fraction(1) - m[0][0] * m[1][1],
            "qyy": -m[0][1] * m[1][1] / 2,
        }
        for key, val in want.items():
            if Fraction(coeff.get(key, 0)) != val:
                problems.append(f"piece {piece.name}: {key} != pinned value")
    return not problems, "; ".join(problems)


def _roof_gradient_residual(flow: SuspensionFlow, n: int, seed: int) -> float:
    rng = spawn_rng(seed, 11)
    x = rng.uniform(size=n)
    y = rng.uniform(size=n)
    pid = flow.base.piece_of_arrays(x, y)
    h = 1e-4  # central differences are exact for quadratics; h only sets roundoff
    keep = np.ones(n, dtype=bool)
    for dx, dy in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
        keep &= flow.base.piece_of_arrays((x + dx) % 1.0, (y + dy) % 1.0) == pid
    x, y, pid = x[keep], y[keep], pid[keep]
    gx, gy = flow.roof.grad_arrays(x, y, pid)
    fx = (flow.roof.tau_arrays(x + h, y, pid)
          - flow.roof.tau_arrays(x - h, y, pid)) / (2 * h)
    fy = (flow.roof.tau_arrays(x, y + h, pid)
          - flow.roof.tau_arrays(x, y - h, pid)) / (2 * h)
    return float(max(np.abs(gx - fx).max(), np.abs(gy - fy).max()))


def _contact_invariance_residual(flow: SuspensionFlow, n_valid: int,
                                 seed: int, t_lo: float, t_hi: float
                                 ) -> tuple[float, int]:
    """Worst |alpha(DPhi_t v) - alpha(v)| over directional FD samples.

    Samples whose +-h endpoints change itinerary (piece id or a macroscopic
    endpoint jump) are dropped; h = 1e-6 against a 1e-4 margin keeps the
    stencil on one smooth branch.
    """
    rng = spawn_rng(seed, 12)
    h = 1e-6
    margin = 1e-4
    worst = 0.0
    used = 0
    for _ in range(8):
        if used >= n_valid:
            break
        m = max(4096, int((n_valid - used) * 1.7))
        x = rng.uniform(size=m)
        y = rng.uniform(size=m)
        pid = flow.base.piece_of_arrays(x, y)
        tau = flow.roof.tau_arrays(x, y, pid)
        z = rng.uniform(size=m) * tau
        pre = (z > margin) & (z < tau - margin)
        t = t_lo + rng.uniform(size=m) * (t_hi - t_lo)
        v = rng.normal(size=(3, m))
        v /= np.linalg.norm(v, axis=0, keepdims=True)

        xc, yc, zc, pc = flow.forward_arrays(x, y, z, pid, t)
        ends = []
        for sgn in (1.0, -1.0):
            xs = (x + sgn * h * v[0]) % 1.0
            ys = (y + sgn * h * v[1]) % 1.0
            zs = z + sgn * h * v[2]
            ps = flow.base.piece_of_arrays(xs, ys)
            ends.append(flow.forward_arrays(xs, ys, np.clip(zs, 0.0, None),
                                            ps, t))
        (xp, yp, zp, pp), (xm, ym, zm, pm) = ends

        tau_e = flow.roof.tau_arrays(xc, yc, pc)
        ok = (pre & (pp == pc) & (pm == pc)
              & (zc > margin) & (zc < tau_e - margin)
              & (np.abs(wrap_delta(xp - xc)) < 1e-3)
              & (np.abs(wrap_delta(xm - xc)) < 1e-3)
              & (np.abs(wrap_delta(yp - yc)) < 1e-3)
              & (np.abs(wrap_delta(ym - yc)) < 1e-3)
              & (np.abs(zp - zc) < 1e-3) & (np.abs(zm - zc) < 1e-3))
        if not np.any(ok):
            continue
        wx = wrap_delta(xp[ok] - xm[ok]) / (2 * h)
        wy = wrap_delta(yp[ok] - ym[ok]) / (2 * h)
        wz = (zp[ok] - zm[ok]) / (2 * h)
        res = np.abs((wz - yc[ok] * wx) - (v[2][ok] - y[ok] * v[0][ok]))
        worst = max(worst, float(res.max()))
        used += int(ok.sum())
    return worst, used


def _volume_box_z(flow: SuspensionFlow, box, n: int,
                  seed: int) -> tuple[float, str]:
    (x0, x1), (y0, y1), (z0, z1) = box
    roof_floor = min(float(v) for v in flow.roof.per_piece_inf)
    if not (0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1
            and 0 <= z0 < z1 <= roof_floor):
        return math.inf, (f"box not inside the flow domain "
                          f"(roof floor {roof_floor:.6g})")
    batch = flow.sample_invariant(seed, n)
    inside = ((batch.x >= x0) & (batch.x < x1)
              & (batch.y >= y0) & (batch.y < y1)
              & (batch.z >= z0) & (batch.z < z1))
    p = (x1 - x0) * (y1 - y0) * (z1 - z0) / flow.volume
    phat = float(inside.mean())
    sigma = math.sqrt(p * (1 - p) / n)
    zscore = abs(phat - p) / sigma
    return zscore, f"phat={phat:.6g} p={p:.6g} sigma={sigma:.3g}"


def _semigroup_inversion(flow: SuspensionFlow, n: int, seed: int
                         ) -> tuple[float, float]:
    batch = flow.sample_invariant(seed + 1, n)
    rng = spawn_rng(seed, 13)
    s = rng.uniform(0.3, 2.5, size=n)
    t = rng.uniform(0.3, 2.5, size=n)
    x, y, z, pid = batch.x, batch.y, batch.z, batch.piece_id

    x1, y1, z1, p1 = flow.forward_arrays(x, y, z, pid, s + t)
    xa, ya, za, pa = flow.forward_arrays(x, y, z, pid, s)
    x2, y2, z2, p2 = flow.forward_arrays(xa, ya, za, pa, t)
    semi = float(max(np.abs(wrap_delta(x1 - x2)).max(),
                     np.abs(wrap_delta(y1 - y2)).max(),
                     np.abs(z1 - z2).max()))

    xb, yb, zb, pb = flow.backward_arrays(x1, y1, z1, p1, s + t)
    inv = float(max(np.abs(wrap_delta(xb - x)).max(),
                    np.abs(wrap_delta(yb - y)).max(),
                    np.abs(zb - z).max()))
    return semi, inv


def _run_verify(flow, prm, seed, writer, checks):
    ok, detail = _closedness_exact(flow)
    checks.append(CheckResult("closedness", ok, 0.0 if ok else 1.0,
                              TOLERANCES["closedness"], detail))

    _check(checks, "roof_gradient", _roof_gradient_residual(flow, 20000, seed))

    n_contact = 10000
    contact, used = _contact_invariance_residual(flow, n_contact, seed, 0.5, 5.0)
    tol = TOLERANCES["contact_invariance"]
    checks.append(CheckResult("contact_invariance",
                              contact <= tol and used >= n_contact,
                              contact, tol, f"valid samples {used}"))

    box = ((0.1, 0.4), (0.2, 0.6), (0.15, 0.65))
    zscore, detail = _volume_box_z(flow, box, 200000, seed)
    _check(checks, "volume_box_z", zscore, detail)

    semi, inv = _semigroup_inversion(flow, 200, seed)
    _check(checks, "semigroup", semi)
    _check(checks, "inversion", inv)

    cone_rep = check_cone_invariance(flow.base, Cone2(1.0), n_rays=10000)
    _check(checks, "cone_aperture", cone_rep.max_image_aperture,
           f"margin {cone_rep.margin:.3e}")

    lam_u, lam_s, _ = expansion_constants(flow.base, Cone2(0.01))
    rel = max(abs(lam_u - 2.0) / 2.0, abs(lam_s - 0.5) / 0.5)
    _check(checks, "expansion_rel", rel,
           f"lambda_u={lam_u:.6f} lambda_s={lam_s:.6f}")

    writer.write_json("verify_report.json", {
        "checks": [c.to_json_dict() for c in checks],
        "cone_per_piece": cone_rep.per_piece,
        "contact_samples_used": used,
    })


# ---------------------------------------------------------------------------
# correlate experiment
# ---------------------------------------------------------------------------


def _run_correlate(flow, prm, seed, writer, checks):
    psi1 = transfer.flow_box_bump((0.3, 0.4, 0.30), (0.15, 0.15, 0.15),
                                  name="psi1")
    psi2 = transfer.flow_box_bump((0.3, 0.4, 0.80), (0.15, 0.15, 0.25),
                                  name="psi2")
    n_steps = int(round(prm["t_max"] / prm["t_step"]))
    t_grid = np.arange(n_steps + 1) * prm["t_step"]
    series = transfer.correlation(flow, psi1, psi2, t_grid,
                                  prm["n_samples"], seed)
    series.to_csv(writer.path("correlation.csv"))

    fit = transfer.fit_decay(series, seed=seed, n_boot=prm["n_boot"])
    _check(checks, "decay_positive", fit.sigma_hat,
           f"k_hat={fit.k_hat:.3e} n_used={fit.n_used}", passes=operator.gt)
    _check(checks, "decay_ci", fit.ci_low,
           f"ci=({fit.ci_low:.4f},{fit.ci_high:.4f})", passes=operator.gt)
    # "control" stays false until a non-mixing control run exists
    writer.write_json("decay_fit.json", {
        "control": False, "sigma_hat": fit.sigma_hat, "k_hat": fit.k_hat,
        "ci_low": fit.ci_low, "ci_high": fit.ci_high,
        "n_used": fit.n_used, "n_boot": fit.n_boot, "seed": fit.seed,
    })


# ---------------------------------------------------------------------------
# resolvent experiment
# ---------------------------------------------------------------------------


def _run_resolvent(flow, prm, seed, writer, checks):
    params = transfer.ResolventParams(a=2.0, b=3.0, nodes_per_unit=128,
                                      tolerance=1e-4)
    bump = transfer.flow_box_bump((0.3, 0.4, 0.5), (0.2, 0.2, 0.3), name="psi")
    pts = flow.sample_invariant(seed, prm["n_points"])

    def resolvent(psi, rp, n, count):
        return transfer.resolvent_power_points(flow, psi, rp, n, pts[:count])

    one = transfer.constant_observable(1.0)
    rv = resolvent(one, params, 1, 20)
    worst_const = max([0.0, *transfer.cabs(rv.value - 1.0 / params.z)])
    _check(checks, "constant_identity", worst_const,
           "R(z)1 vs 1/z on 20 points")

    # R(z)(z psi + d_z psi) = psi: the generator acts as -d/dz inside a box
    gen = params.z * bump + bump.partial(2)
    rv = resolvent(gen, params, 1, len(pts))
    worst_gen = max([0.0, *transfer.cabs(rv.value - bump(pts.x, pts.y, pts.z))])
    rows = [{"point_id": i, "a": params.a, "b": params.b, "n": 1,
             "value_re": v.real, "value_im": v.imag, "error_budget": e}
            for i, (v, e) in enumerate(zip(rv.value, rv.error_budget))]
    transfer.write_resolvent_csv(writer.path("resolvent_points.csv"), rows)
    _check(checks, "generator_identity", worst_gen,
           f"{prm['n_points']} bump points")

    inner = transfer.ResolventParams(a=params.a, b=params.b,
                                     nodes_per_unit=32, tolerance=5e-3)
    outer = transfer.ResolventParams(a=params.a, b=params.b,
                                     nodes_per_unit=16, t_max=6.0,
                                     tolerance=1e-2)
    inner_obs = transfer.resolvent_observable(flow, bump, inner, 1)
    nested = resolvent(inner_obs, outer, 1, prm["n_nested"]).value
    closed = resolvent(bump, params, 2, prm["n_nested"]).value
    worst_nested = max([0.0, *transfer.cabs(nested - closed)])
    _check(checks, "nested_agreement", worst_nested,
           f"{prm['n_nested']} points, n=2")

    powers = [1, 2, 3]
    worst_excess = -math.inf
    for n in powers:
        bound = bump.sup_norm / params.a ** n
        v = resolvent(bump, params, n, 10).value
        worst_excess = max([worst_excess, *(transfer.cabs(v) - bound)])
    _check(checks, "modulus_bound", worst_excess,
           f"|R^n psi| - a^-n sup, powers {powers}")

    writer.write_json("resolvent_report.json", {
        "a": params.a, "b": params.b,
        "nodes_per_unit": params.nodes_per_unit,
        "constant_identity": worst_const,
        "generator_identity": worst_gen,
        "nested_agreement": worst_nested,
        "modulus_excess": worst_excess,
    })


# ---------------------------------------------------------------------------
# ulam experiment
# ---------------------------------------------------------------------------


def _run_ulam(flow, prm, seed, writer, checks):
    t = 5.0
    model = transfer.ulam_build(flow, t, (prm["nx"], prm["ny"], prm["nz"]),
                                prm["samples_per_cell"], seed)
    _check(checks, "ulam_leading", abs(model.leading - 1.0))
    _check(checks, "ulam_second", model.second_modulus, passes=operator.lt)
    resid = model.stationary_residual()
    _check(checks, "ulam_residual", resid,
           "l1 residual of the cell-volume vector")

    report = {
        "partition": [prm["nx"], prm["ny"], prm["nz"]],
        "t": t, "samples_per_cell": prm["samples_per_cell"],
        "n_states": model.n_states, "leading": model.leading,
        "second_modulus": model.second_modulus,
        "stationary_residual": resid,
        "n_dropped": model.n_dropped, "n_starved": model.n_starved,
    }
    if prm["refine"]:
        fine = transfer.ulam_build(
            flow, t, (2 * prm["nx"], 2 * prm["ny"], 2 * prm["nz"]),
            prm["samples_per_cell"], seed)
        rel = abs(fine.second_modulus - model.second_modulus) / model.second_modulus
        _check(checks, "ulam_refine_rel", rel,
               f"doubled second modulus {fine.second_modulus:.6f}")
        report["refined_second_modulus"] = fine.second_modulus
        report["refined_n_states"] = fine.n_states

    writer.write_json("ulam_report.json", report)
    writer.write_csv("ulam_spectrum.csv", ["k", "re", "im", "modulus"],
                     [(k, v.real, v.imag, abs(v))
                      for k, v in enumerate(model.eigenvalues)])


# ---------------------------------------------------------------------------
# dolgopyat experiment
# ---------------------------------------------------------------------------


def _run_dolgopyat(flow, prm, seed, writer, checks):
    params = averaging.default_dolgopyat_params(flow)
    psi = transfer.flow_box_bump((0.3, 0.4, 0.5), (0.2, 0.2, 0.3), name="psi")
    one = transfer.constant_observable(1.0)

    anchor_w = (0.4, 0.6, 0.5)
    worst_factor = 0.0
    anchor_rows = []
    for b in (2.0, 8.0, 32.0):
        (val,), (budget,) = averaging.dolgopyat_value(flow, one, params,
                                                      [anchor_w], b)
        ref = (params.a + 1j * b) ** (-2 * params.m)
        err = abs(val - ref)
        worst_factor = max(worst_factor, err / max(budget, 1e-300))
        anchor_rows.append({"b": b, "error": err, "budget": budget})
    _check(checks, "anchor_identity", worst_factor,
           "max |value - (a+ib)^-2m| / budget")

    b_list = [8.0, 16.0, 32.0, 64.0, 128.0]
    table = averaging.dolgopyat_experiment(flow, psi, params, b_list,
                                           eval_points=prm["eval_points"],
                                           seed=seed)
    ratios = [row.ratio for row in table.rows]
    violations = sum(1 for lo, hi in zip(ratios[1:], ratios[:-1]) if lo > hi)
    _check(checks, "ratio_monotone", float(violations),
           f"ratios {['%.3g' % r for r in ratios]}")
    _check(checks, "gamma0_positive", table.gamma0_hat, passes=operator.gt)
    frac = max(row.error_budget / row.sup_value for row in table.rows)
    _check(checks, "budget_fraction", frac, "max row budget / sup value")

    base_table = averaging.dolgopyat_experiment(
        flow, psi, params, [0.0], eval_points=prm["eval_points"], seed=seed)
    ratio0 = base_table.rows[0].ratio
    _check(checks, "baseline_no_decay", ratio0 - ratios[0],
           f"ratio(0)={ratio0:.4g} vs ratio({b_list[0]:g})={ratios[0]:.4g}",
           passes=operator.gt)

    report = table.to_json_dict()
    report["anchors"] = anchor_rows
    report["baseline_ratio"] = ratio0

    averaging.write_dolgopyat_csv(writer.path("dolgopyat.csv"), table)
    writer.write_json("dolgopyat_report.json", report)


# ---------------------------------------------------------------------------
# complexity experiment
# ---------------------------------------------------------------------------


def _run_complexity(flow, prm, seed, writer, checks):
    reports = complexity_counts(flow, prm["n_max"])
    rows = [(r.n, r.D_b, r.D_e, r.rate_b, r.rate_e, r.cells_b, r.cells_e)
            for r in reports]
    writer.write_csv("complexity.csv",
                     ["n", "D_b", "D_e", "rate_b", "rate_e", "cells_b",
                      "cells_e"], rows)

    rates = [r.rate_b for r in reports if r.n >= 2]
    worst_step = max((b - a for a, b in zip(rates[:-1], rates[1:])),
                     default=-math.inf)
    checks.append(CheckResult("rates_decreasing", worst_step < 0.0,
                              worst_step, 0.0,
                              "max increase of log(D_b)/n over n >= 2"))

    sp = single_piece_map()
    control_flow = SuspensionFlow(sp, build_roof(sp, flow.tau_minus))
    ctrl = complexity_counts(control_flow, min(prm["n_max"], 6))
    flat = all(r.D_b == 1 and r.D_e == 1 for r in ctrl)
    checks.append(CheckResult("control_single_piece", flat,
                              0.0 if flat else 1.0, 0.0,
                              "single-piece map has D = 1 at every n"))
    writer.write_json("complexity_report.json", {
        "rows": [r.to_json_dict() for r in reports],
        "control_rows": [r.to_json_dict() for r in ctrl],
    })


# ---------------------------------------------------------------------------
# normcheck experiment
# ---------------------------------------------------------------------------


def _run_normcheck(flow, prm, seed, writer, checks):
    rng = spawn_rng(seed, 31)
    n0 = prm["parseval_n"]
    plane = rng.normal(size=(n0, n0)) + 1j * rng.normal(size=(n0, n0))
    line = rng.normal(size=n0) + 1j * rng.normal(size=n0)
    f = aniso.GridFunction3(plane, line, 4.0, name="noise")
    flat = aniso.aniso_norm_p2(f, aniso.AnisoSymbol(0.0, 0.0, 0.0))
    rel = abs(flat - f.l2_norm()) / f.l2_norm()
    _check(checks, "parseval", rel, f"random {n0}^2 plane x {n0} line")

    # the symbol exponents (r, s, q) and the weaker pair (r', s')
    r, s, q, s_prime = 0.3, -0.4, 0.0, -0.5
    dmap = aniso.HyperbolicBlockMap(2.0, 0.5)
    rep = aniso.check_symbol_inequality(r, s, q, prm["r_prime"], s_prime, dmap,
                                        n_per_axis=prm["n_per_axis"])
    checks.append(CheckResult("symbol_hypotheses", rep.hypothesis_ok,
                              0.0 if rep.hypothesis_ok else 1.0, 0.0,
                              "; ".join(rep.hypothesis_messages)))
    _check(checks, "k_drift", rep.rel_change,
           f"K1={rep.k1:.6g} K2={rep.k2:.6g}")
    aniso.write_symbol_report_json(writer.path("symbol_report.json"), rep)

    center = (2.0, 2.0, 2.0)
    w = aniso.CubeBump(center, (0.125, 1.0, 1.0), name="w")
    rows = aniso.composition_iteration_sweep(w, dmap, r, s, q, n=prm["iter_n"])
    aniso.write_sweep_csv(writer.path("composition_sweep.csv"), rows)
    _check(checks, "composition_bound",
           max(row["ratio"] - row["bound"] for row in rows),
           "max ratio - M^k bound over k <= 4")

    wide = aniso.CubeBump(center, (1.0, 1.0, 1.0), name="wb")
    comp = aniso.check_composition_contraction(
        wide, dmap, r, s, q, prm["r_prime"], s_prime, n=prm["grid_n"])

    half = aniso.HalfSpace("u", 2.0)
    rm, sm, qm = 0.3, -0.3, 0.0
    bumps = [wide, aniso.CubeBump((2.3, 1.8, 2.1), (0.8, 1.2, 0.9),
                                  name="wb2")]
    mult = aniso.check_multiplier_charfun(
        half, rm, sm, qm, bumps, ns=tuple(prm["mult_ns"]),
        rel_tol=TOLERANCES["multiplier_drift"])
    _check(checks, "multiplier_drift", mult.max_rel_change,
           f"admissible exponents ({rm}, {sm}, {qm})")

    grow_r = 0.6
    grow = aniso.check_multiplier_charfun(
        half, grow_r, sm, qm, [wide], ns=tuple(prm["mult_ns"]), enforce=False)
    by_n = {row["N"]: row["ratio"] for row in grow.rows}
    ns = sorted(by_n)
    _check(checks, "multiplier_growth", by_n[ns[-1]] / by_n[ns[0]] - 1.0,
           f"r={grow_r} inadmissible: ratio must grow under refinement",
           passes=operator.gt)

    aniso.write_sweep_csv(writer.path("multiplier_sweep.csv"),
                          list(mult.rows) + list(grow.rows))
    writer.write_json("normcheck_report.json", {
        "parseval_rel": rel,
        "symbol": rep.to_json_dict(),
        "composition_one_step": dataclasses.asdict(comp),
        "multiplier_admissible": dataclasses.asdict(mult),
        "multiplier_growth": dataclasses.asdict(grow),
    })


# ---------------------------------------------------------------------------
# leafstats experiment
# ---------------------------------------------------------------------------


def _run_leafstats(flow, prm, seed, writer, checks):
    delta, r = 0.05, 0.002
    leaf = averaging.leaf_through(flow, (0.3, 0.4, 0.5), delta)
    resid = leaf.kernel_residual()
    _check(checks, "kernel_residual", resid,
           "contact-kernel defect of the anchor leaf")

    stats = averaging.stable_decomposition_stats(
        flow, delta, r, prm["ell_max"], seed=seed, piece_cap=prm["piece_cap"])
    averaging.write_decomposition_csv(writer.path("leafstats.csv"), stats)

    mass0 = stats.rows[0]["boundary_mass_r"]
    cap = r / delta + TOLERANCES["seed_interval_mass"]
    checks.append(CheckResult("seed_interval_mass", 0.0 < mass0 <= cap, mass0,
                              r / delta,
                              "r-boundary mass of the single seed interval"))

    incs = stats.log_count_increments()
    tail = incs[len(incs) // 2:]
    _check(checks, "growth_log_increment", max(tail) if tail else 0.0,
           "max log piece-count increment, late steps")

    cmax = max(row["boundary_mass_r"] / r for row in stats.rows)
    tail_max = max(row["boundary_mass_r"] / r for row in stats.rows
                   if row["ell"] >= prm["ell_max"] // 2)
    _check(checks, "boundary_mass_ratio", cmax,
           f"max over ell of boundary mass / r (late-ell max {tail_max:.3g})")

    writer.write_json("leafstats_report.json", {
        "kernel_residual": resid,
        "mass_over_r_max": cmax,
        "log_count_increments": incs,
        "stats": stats.to_json_dict(),
    })


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_RUNNERS = {
    "verify": _run_verify,
    "correlate": _run_correlate,
    "resolvent": _run_resolvent,
    "ulam": _run_ulam,
    "dolgopyat": _run_dolgopyat,
    "complexity": _run_complexity,
    "normcheck": _run_normcheck,
    "leafstats": _run_leafstats,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment and write manifest.json before returning.

    Domain errors (ContactFlowError) raised mid-experiment become a failed
    check named after the exception, so the manifest records partial
    progress.  Any other exception propagates and the process ends without
    a manifest; today that is the ValueError the perturbed map's inverse
    raises on a seam point ("wrap indices outside the registered piece
    set").
    """
    t0 = time.perf_counter()
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    writer = ArtifactWriter(outdir)
    checks: list[CheckResult] = []
    try:
        flow = config.build_flow()
        _RUNNERS[config.experiment](flow, config.parameters, config.seed,
                                    writer, checks)
    except ContactFlowError as exc:
        checks.append(CheckResult(f"runtime_{type(exc).__name__}", False,
                                  math.inf, 0.0, str(exc)))
    manifest = RunManifest(
        experiment=config.experiment,
        config=config.to_json_dict(),
        config_hash=config.config_hash(),
        code_version=__version__,
        wall_time_s=time.perf_counter() - t0,
        checks=checks,
        artifacts=writer.paths + ["manifest.json"],
    )
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(_jsonable(manifest.to_json_dict()), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactflow",
        description="Experiment runner for piecewise affine contact "
                    "suspension flows.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--config", default=None,
                       help="JSON config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the output directory")
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.config is not None:
            config = load_config(ns.config, experiment=ns.experiment)
        else:
            config = ExperimentConfig.from_json_dict(
                {}, experiment=ns.experiment)
        overrides = {}
        if ns.seed is not None:
            if not 0 <= ns.seed < 2 ** 64:
                raise ConfigError("seed: must fit in 64 bits")
            overrides["seed"] = ns.seed
        if ns.out is not None:
            overrides["out"] = ns.out
        if overrides:
            config = dataclasses.replace(config, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = run(config)
    n_pass = sum(1 for c in manifest.checks if c.passed)
    print(f"{config.experiment}: {n_pass}/{len(manifest.checks)} checks "
          f"passed in {manifest.wall_time_s:.1f} s -> {config.out}/manifest.json")
    for c in manifest.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.name}: value {c.value:.6g} "
              f"tol {c.tolerance:.6g}")
    return 0 if manifest.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
