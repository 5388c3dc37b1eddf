#!/usr/bin/env python3
"""Time CLI experiments of this checkout against another, interleaved.

    python3 bench/experiments.py --src PARENT_CHECKOUT --out BENCH.json

Run from the root of a source checkout.  Each measurement is one CLI
experiment of the standard flow in a fresh process.  The cases are
(experiment, parameters) pairs:

``ulam-sampling``  ``ulam`` at the CLI defaults without refinement (24 x 24 x
                   8 cells, 200 samples a cell), as the ``sampling``
                   benchmark workload runs it;
``ulam-defaults``  ``ulam`` at the CLI defaults, which add the refined
                   48 x 48 x 16 build;
``exact-<exp>``    each operation of the ``exact`` benchmark workload, read
                   from ``perfbench/workloads.py``.

Each of REPEATS repeats, at seed SEED, runs the two checkouts back to
back, the first of them alternating between repeats, so both sides see
the same machine state.
Each run records the process's wall time from spawn to exit, the seconds
of the experiment, its own ``wall_time_s`` from ``manifest.json``, the
seconds of each ``transfer.ulam_build`` call inside it, and the process's
peak resident set size (``ru_maxrss``).  The JSON written to ``--out``
holds every run, the per-side medians, the sha256 of each side's package
sources, of every artifact but ``manifest.json``, and the manifest's checks
(name, passed, value, tolerance), with whether both sides agree, and the
environment (cores, CPU model, load average, Python, NumPy, SciPy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import STANDARD, WORKLOADS  # noqa: E402

CASES = {
    "ulam-sampling": ("ulam", {"refine": False}),
    "ulam-defaults": ("ulam", {}),
    **{f"exact-{exp}": (exp, prm) for exp, prm in WORKLOADS["exact"]["ops"]},
}
REPEATS = 5
SEED = 7

# runs inside the measured process: wrap ulam_build with a timer, run the
# experiment through the CLI entry point, print one JSON line last
CHILD = r"""
import json, resource, sys, time
import contactflow.cli as cli
from contactflow import transfer

builds = []
build = transfer.ulam_build

def timed(flow, t, partition, *args):
    t0 = time.perf_counter()
    model = build(flow, t, partition, *args)
    builds.append({"partition": list(partition),
                   "seconds": time.perf_counter() - t0})
    return model

transfer.ulam_build = timed
t0 = time.perf_counter()
code = cli.main([sys.argv[1], "--config", sys.argv[2]])
wall = time.perf_counter() - t0
print(json.dumps({"exit": code, "experiment_s": wall, "builds": builds,
                  "peak_rss_mib": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def _sources_sha256(src: Path) -> str:
    """One hash over the package's .py files, names and bytes in name order."""
    h = hashlib.sha256()
    for path in sorted((src / "src" / "contactflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    versions = subprocess.run(
        [sys.executable, "-c", "import json, numpy, scipy; print(json.dumps("
         "{'numpy': numpy.__version__, 'scipy': scipy.__version__}))"],
        capture_output=True, text=True, check=True).stdout
    return {"cores": os.cpu_count(), "cpu_model": cpu, "loadavg": load,
            "python": platform.python_version(), **json.loads(versions)}


def _run_once(src: Path, case: str, seed: int, workdir: Path) -> dict:
    experiment, parameters = CASES[case]
    out = workdir / "out"
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps({
        "flow": STANDARD, "experiment": experiment, "parameters": parameters,
        "seed": seed, "out": str(out)}))
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, experiment, str(cfg)],
                          env=env, capture_output=True, text=True, check=True)
    process_s = time.perf_counter() - t0
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["process_s"] = process_s
    record["build_s"] = sum(b["seconds"] for b in record["builds"])
    manifest = json.loads((out / "manifest.json").read_text())
    record["manifest_wall_s"] = manifest["wall_time_s"]
    record["checks"] = [{k: c[k] for k in ("name", "passed", "value", "tolerance")}
                        for c in manifest["checks"]]
    record["sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())
                        if p.is_file() and p.name != "manifest.json"}
    return record


def _summary(runs: list[dict]) -> dict:
    keys = ["experiment_s", "manifest_wall_s", "process_s", "peak_rss_mib"]
    if runs[0]["builds"]:
        keys.insert(0, "build_s")
    return {key: statistics.median(r[key] for r in runs) for key in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, type=Path,
                    help="the other checkout (its src/contactflow is timed)")
    ap.add_argument("--out", required=True, type=Path, help="JSON to write")
    ns = ap.parse_args(argv)
    sides = {"parent": ns.src.resolve(), "child": Path.cwd()}
    for side, src in sides.items():
        if not (src / "src" / "contactflow").is_dir():
            ap.error(f"{side}: no src/contactflow under {src}")

    env = _environment()
    runs = {case: {side: [] for side in sides} for case in CASES}
    for r in range(REPEATS):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for case in CASES:
            for side in order:
                with tempfile.TemporaryDirectory() as tmp:
                    rec = _run_once(sides[side], case, SEED, Path(tmp))
                runs[case][side].append(rec)
                print(f"repeat {r} {case:17s} {side:6s} process {rec['process_s']:.3f} s "
                      f"peak {rec['peak_rss_mib']:.1f} MiB", flush=True)

    result = {
        "benchmark": "CLI experiments in fresh processes, parent and child "
                     "interleaved",
        "seed": SEED, "repeats": REPEATS,
        "environment": env,
        "loadavg_after": Path("/proc/loadavg").read_text().split()[:3]
        if Path("/proc/loadavg").exists() else None,
        "sources_sha256": {side: _sources_sha256(src) for side, src in sides.items()},
        "cases": {},
    }
    for case, (experiment, parameters) in CASES.items():
        first = {side: runs[case][side][0] for side in sides}
        stable = all(rec[key] == first[side][key]
                     for side in sides for rec in runs[case][side]
                     for key in ("sha256", "checks"))
        result["cases"][case] = {
            "experiment": experiment, "parameters": parameters,
            "median": {side: _summary(runs[case][side]) for side in sides},
            "artifact_sha256": {side: first[side]["sha256"] for side in sides},
            "artifacts_identical": stable and first["parent"]["sha256"] == first["child"]["sha256"],
            "checks_identical": stable and first["parent"]["checks"] == first["child"]["checks"],
            "runs": runs[case],
        }
    ns.out.write_text(json.dumps(result, indent=1) + "\n")
    for case, res in result["cases"].items():
        med = res["median"]
        print(f"{case}: process {med['parent']['process_s']:.3f} -> "
              f"{med['child']['process_s']:.3f} s, peak "
              f"{med['parent']['peak_rss_mib']:.1f} -> "
              f"{med['child']['peak_rss_mib']:.1f} MiB, artifacts identical: "
              f"{res['artifacts_identical']}, checks identical: "
              f"{res['checks_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
