#!/usr/bin/env python3
"""contactflow benchmark: the shipped CLI experiments as named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/contactflow`` must exist).
Each operation is one experiment in a fresh process, driven through the
config-file command line exactly as a user runs it
(``python3 -m contactflow.cli <exp> --config f.json``), one at a time.

--trace 0  times set-up (several fresh processes that import the package
           and build the workload's flow), then cycles through the
           workload's experiments until S seconds have passed, with at
           least one full cycle plus one repeat.  Prints the end-to-end
           metrics.
--trace 1  runs every experiment once untraced and once under
           ``tracer.py``, and prints the per-layer metrics.

Every operation is checked: exit code, the manifest's checks, headline
values against the references in ``workloads.py``, and byte-identical
numeric artifacts across repeats with the same seed (and between the traced
and untraced run).  Human-readable lines go first; the last line of stdout
is one JSON object.  The full record, with the environment and the sha256 of
every artifact, is written to ``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from workloads import (HEADLINES, MEASURED_SPREAD, WORKLOADS, config_for,
                       known_defect)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

SETUP_PROBES = 3
DEADLINE_S = 165.0  # the whole run ends within 180 s
EXPERIMENT_METRICS = ("correlate", "ulam", "resolvent", "dolgopyat",
                      "complexity", "normcheck")

SETUP_CODE = ("import sys, contactflow.cli as cli; "
              "cli.load_config(sys.argv[1]).build_flow()")

ENV_CODE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
threads = None
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*")):
    cdll = ctypes.CDLL(lib)
    for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads"):
        if hasattr(cdll, fn):
            threads = getattr(cdll, fn)()
            break
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas_threads": threads}))
"""


class Child:
    """One child process, timed from spawn to exit, with its rusage."""

    def __init__(self, cmd, env, log_dir: Path, timeout: float):
        log_dir.mkdir(parents=True, exist_ok=True)
        with open(log_dir / "stdout.txt", "wb") as out, \
                open(log_dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.stderr = (log_dir / "stderr.txt").read_text(errors="replace")


def _escaped_exception(stderr: str):
    """(type, message) of an exception that ended the process, if any."""
    if "Traceback (most recent call last)" not in stderr:
        return None, ""
    last = [ln for ln in stderr.splitlines() if ln.strip()][-1]
    head, _, msg = last.partition(":")
    return head.strip().rsplit(".", 1)[-1], msg.strip()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_path(obj, path: str):
    for part in path.split("."):
        obj = obj[int(part)] if isinstance(obj, list) else obj[part]
    return obj


class Operation:
    """One experiment process and the verdict on its outputs."""

    def __init__(self, workload: str, experiment: str, child: Child,
                 art_dir: Path, reference_hashes: dict | None):
        self.experiment = experiment
        self.wall_s, self.cpu_s, self.rss_mb = child.wall_s, child.cpu_s, child.rss_mb
        self.code = child.code
        self.exception = _escaped_exception(child.stderr)
        files = sorted(p for p in art_dir.iterdir() if p.is_file())
        self.hashes = {p.name: _sha256(p) for p in files if p.name != "manifest.json"}
        self.artifact_bytes = sum(p.stat().st_size for p in files)
        manifest = art_dir / "manifest.json"
        self.failed_checks = []
        if manifest.exists():
            self.failed_checks = [c["name"] for c in json.loads(manifest.read_text())["checks"]
                                  if not c["passed"]]

        # what the program itself reports: exit code, manifest and its checks
        run_problems = []
        if self.code != 0:
            run_problems.append(f"exit code {self.code}")
        if not manifest.exists():
            run_problems.append("no manifest.json")
        if self.failed_checks:
            run_problems.append("failed checks " + ",".join(self.failed_checks))
        # what the benchmark checks on top: headline values and repeatability
        output_problems = []
        self.headlines = {}
        for name, (fname, jpath, ref, tol, kind) in HEADLINES.get(
                (workload, experiment), {}).items():
            try:
                value = _json_path(json.loads((art_dir / fname).read_text()), jpath)
            except (OSError, KeyError, IndexError, ValueError):
                output_problems.append(f"headline {name} missing")
                continue
            self.headlines[name] = value
            ok = {"band": lambda: abs(value - ref) <= tol,
                  "max": lambda: value <= ref + tol,
                  "exact": lambda: value == ref}[kind]()
            if not ok:
                output_problems.append(f"headline {name}={value!r} outside "
                                       f"{kind} {ref!r} +- {tol!r}")
        if reference_hashes is not None and reference_hashes != self.hashes:
            output_problems.append("artifacts differ from a run with the same seed")

        self.problems = run_problems + output_problems
        self.failed = bool(self.problems)
        self.known_defect = None
        if run_problems and not output_problems:
            self.known_defect = known_defect(workload, experiment, *self.exception,
                                             self.failed_checks)
        self.unexpected = self.failed and self.known_defect is None

    def to_json_dict(self) -> dict:
        return {"experiment": self.experiment, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "peak_rss_mb": self.rss_mb,
                "exit_code": self.code, "failed": self.failed,
                "problems": self.problems,
                "exception": list(self.exception) if self.exception[0] else None,
                "known_defect": self.known_defect, "headlines": self.headlines,
                "artifact_sha256": self.hashes, "artifact_bytes": self.artifact_bytes}


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.t_start = time.perf_counter()
        self.out = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.ops: list[Operation] = []
        self.first_hashes: dict[str, dict] = {}
        self.n_runs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def write_config(self, experiment: str, parameters: dict,
                     tag: str) -> tuple[Path, Path]:
        run_dir = self.out / f"{self.n_runs:03d}-{tag}-{experiment}"
        art_dir = run_dir / "artifacts"
        cfg = config_for(self.workload, experiment, parameters, self.seed,
                         str(art_dir))
        run_dir.mkdir(parents=True)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        self.n_runs += 1
        return cfg_path, art_dir

    def run_op(self, index: int, traced: bool = False) -> Operation:
        experiment, parameters = self.spec["ops"][index]
        cfg_path, art_dir = self.write_config(experiment, parameters,
                                              "traced" if traced else "run")
        cli = [experiment, "--config", str(cfg_path)]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   str(cfg_path.parent / "spans.json")] + cli
        else:
            cmd = [sys.executable, "-m", "contactflow.cli"] + cli
        child = Child(cmd, self.env, cfg_path.parent, self.remaining())
        art_dir.mkdir(parents=True, exist_ok=True)
        op = Operation(self.workload, experiment, child, art_dir,
                       self.first_hashes.get(experiment))
        self.first_hashes.setdefault(experiment, op.hashes)
        self.ops.append(op)
        return op

    def setup_probe(self) -> float:
        experiment, parameters = self.spec["ops"][0]
        cfg_path, _ = self.write_config(experiment, parameters, "setup")
        child = Child([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                      self.env, cfg_path.parent, self.remaining())
        if child.code != 0:
            raise SystemExit(f"set-up probe failed (exit {child.code}):\n"
                             f"{child.stderr}")
        return child.wall_s

    def environment(self) -> dict:
        env = {"cores": os.cpu_count(),
               "cores_usable": len(os.sched_getaffinity(0)),
               "blas_env": {k: os.environ[k] for k in (
                   "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                   if k in os.environ}}
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
            caches = {}
            for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
                level = (idx / "level").read_text().strip()
                kind = (idx / "type").read_text().strip()
                caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                    (idx / "size").read_text().strip()
            env["caches"] = caches
        except OSError:
            pass
        probe = subprocess.run([sys.executable, "-c", ENV_CODE], env=self.env,
                               capture_output=True, text=True, cwd=ROOT,
                               timeout=max(self.remaining(), 5.0))
        if probe.returncode == 0:
            env.update(json.loads(probe.stdout.strip().splitlines()[-1]))
        return env


def _spread(values):
    """(max - min) / median of one run's samples, or None."""
    if len(values) < 2:
        return None
    return (max(values) - min(values)) / statistics.median(values)


def run_timed(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = [bench.setup_probe()
             for _ in range(bench.spec.get("setup_probes", SETUP_PROBES))]
    ops = bench.spec["ops"]
    t_meas = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        op = bench.run_op(i % len(ops))
        longest = max(longest, op.wall_s)
        i += 1
        if i <= len(ops):
            continue  # one full cycle, then the first experiment again
        if time.perf_counter() - t_meas >= seconds:
            break
        if bench.remaining() < 1.5 * longest + 10.0:
            break
    walls: dict[str, list[float]] = {}
    for op in bench.ops:
        walls.setdefault(op.experiment, []).append(op.wall_s)
    metrics = {
        "wall_s": (sum(statistics.median(w) for w in walls.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(op.rss_mb for op in bench.ops), "MiB"),
    }
    detail = {"setup_samples_s": setup,
              "per_experiment": {e: {"median_s": statistics.median(w), "n": len(w),
                                     "samples_s": w, "spread": _spread(w)}
                                 for e, w in walls.items()},
              "measured_s": time.perf_counter() - t_meas,
              "notes": {"wall_s": "sum of the per-experiment medians",
                        "setup_s": f"median of {len(setup)}",
                        "peak_rss_mb": f"max over {len(bench.ops)} processes"}}
    return metrics, detail


def run_traced(bench: Bench) -> tuple[dict, dict]:
    ops = bench.spec["ops"]
    plain = [bench.run_op(i) for i in range(len(ops))]
    traced = [bench.run_op(i, traced=True) for i in range(len(ops))]
    spans = sorted(str(p) for p in bench.out.glob("*-traced-*/spans.json"))
    layer = tracer.summarize(spans)
    wall = sum(op.wall_s for op in plain)
    cpu = sum(op.cpu_s for op in plain)
    metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    metrics["cli.artifacts.bytes"] = (float(sum(op.artifact_bytes for op in plain)), "B")
    metrics["proc.cpu_s"] = (cpu, "s")
    metrics["proc.cpu_per_wall"] = (cpu / wall, "ratio")
    metrics["trace.overhead_frac"] = (sum(op.wall_s for op in traced) / wall - 1.0, "ratio")
    for exp in EXPERIMENT_METRICS:
        metrics[f"{exp}_s"] = (sum(op.wall_s for op in plain if op.experiment == exp), "s")
    metrics["fail_frac"] = (sum(op.failed for op in plain) / len(plain), "ratio")
    detail = {"absent_targets": sorted({t for s in spans for t in
                                        json.loads(Path(s).read_text())["absent"]}),
              "untraced_wall_s": wall,
              "notes": {}}
    return metrics, detail


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "acceptance")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "contactflow" / "cli.py").is_file():
        print(f"no contactflow sources under {ROOT / 'src'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("--seed must fit in 64 bits", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, bool(args.trace))
    if args.trace:
        metrics, detail = run_traced(bench)
    else:
        metrics, detail = run_timed(bench, args.seconds)
    attempted = len(bench.ops)
    failed = sum(op.failed for op in bench.ops)
    correct = not any(op.unexpected for op in bench.ops)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": bench.spec["why"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "measured_spread": MEASURED_SPREAD.get(args.workload),
        "operations": [op.to_json_dict() for op in bench.ops],
        "environment": bench.environment(),
    }
    (bench.out / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    for op in bench.ops:
        if op.failed:
            tag = "known defect" if op.known_defect else "UNEXPECTED"
            print(f"# {op.experiment}: FAILED ({tag}): {'; '.join(op.problems)}"
                  + (f" [{' '.join(op.exception)}]" if op.exception[0] else ""))
    for exp, d in detail.get("per_experiment", {}).items():
        print(f"# {exp}_s = {d['median_s']:.4f} s (median of {d['n']})")
    print(f"# fail_frac = {failed}/{attempted} operations")
    for name, (value, unit) in metrics.items():
        note = detail["notes"].get(name)
        print(f"# {name} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(f"# record: {bench.out / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
