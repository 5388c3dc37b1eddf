"""Per-layer tracing of one CLI experiment, from outside the package.

Child side (``python3 perfbench/tracer.py SPANS.json <cli arguments>``):
before calling the CLI entry point, wrap the package functions and methods
named in LAYERS, record one span per call and write the spans to SPANS.json
when the process exits.  Every target is resolved by name at start-up; a
target that no longer exists is listed as absent and its layer reports no
metrics.  A wrapped function is patched in every ``contactflow`` module
namespace that holds it, so names imported with ``from ... import`` are
traced where they are called.

Parent side (``summarize``): turn span files into per-layer metrics.

A span is (layer, start, end, parent span, points); points is the size of
the call's first array argument.  A span that has no traced children is
folded into a per-(layer, parent) aggregate, which bounds memory when a leaf
such as ``point_in_closed`` runs millions of times.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# layer -> targets "module:qualname".  Scalar (batch-of-one) entry points
# are layers of their own so their calls can be counted.
LAYERS: dict[str, list[str]] = {
    "flow.piece_of": ["contactflow.flow:PiecewiseAffineTorusMap.piece_of_arrays",
                      "contactflow.flow:PerturbedTorusMap.piece_of_arrays"],
    "flow.tau": ["contactflow.flow:RoofFunction.tau_arrays",
                 "contactflow.flow:PerturbedRoof.tau_arrays"],
    "flow.apply": ["contactflow.flow:PiecewiseAffineTorusMap.apply_arrays",
                   "contactflow.flow:PerturbedTorusMap.apply_arrays"],
    "flow.apply_inverse": [
        "contactflow.flow:PiecewiseAffineTorusMap.apply_inverse_arrays",
        "contactflow.flow:PerturbedTorusMap.apply_inverse_arrays"],
    "flow.scalar.piece_of": ["contactflow.flow:PiecewiseAffineTorusMap.piece_of",
                             "contactflow.flow:PerturbedTorusMap.piece_of"],
    "flow.scalar.apply": ["contactflow.flow:PiecewiseAffineTorusMap.apply",
                          "contactflow.flow:PerturbedTorusMap.apply"],
    "flow.scalar.apply_inverse": [
        "contactflow.flow:PiecewiseAffineTorusMap.apply_inverse",
        "contactflow.flow:PerturbedTorusMap.apply_inverse"],
    "flow.scalar.tau": ["contactflow.flow:RoofFunction.tau",
                        "contactflow.flow:PerturbedRoof.tau"],
    "flow.step": ["contactflow.flow:SuspensionFlow.forward_arrays",
                  "contactflow.flow:SuspensionFlow.backward_arrays"],
    "flow.orbit": ["contactflow.flow:SuspensionFlow.backward_orbit_eval"],
    "flow.sample": ["contactflow.flow:SuspensionFlow.sample_invariant"],
    "transfer.observable": ["contactflow.transfer:Observable.__call__"],
    "transfer.resolvent": ["contactflow.transfer:resolvent_power_detailed"],
    "transfer.correlation": ["contactflow.transfer:correlation"],
    "transfer.fit": ["contactflow.transfer:fit_decay"],
    "transfer.ulam": ["contactflow.transfer:ulam_build"],
    "transfer.ulam.column_max": ["contactflow.transfer:_column_roof_max"],
    "quadrature.panels": ["contactflow._quadrature:composite_panels"],
    "rng.spawn": ["contactflow._rng:spawn_rng"],
    "polygon.clip": ["contactflow._polygon:clip_convex"],
    "polygon.extrema": ["contactflow._polygon:quadratic_extrema_over_polygon"],
    "polygon.point_in_closed": ["contactflow._polygon:point_in_closed"],
    "hyperbolicity.complexity": ["contactflow.hyperbolicity:complexity_counts"],
    "hyperbolicity.cone": ["contactflow.hyperbolicity:check_cone_invariance",
                           "contactflow.hyperbolicity:expansion_constants"],
    "aniso.fft": ["contactflow.aniso:GridFunction3.raw_fft"],
    "aniso.norm": ["contactflow.aniso:aniso_norm_p2"],
    "averaging.dolgopyat_value": ["contactflow.averaging:dolgopyat_value"],
    "averaging.leaf": ["contactflow.averaging:leaf_through",
                       "contactflow.averaging:clip_leaf_to_domain"],
    "averaging.decomposition": [
        "contactflow.averaging:stable_decomposition_stats"],
    "cli.artifacts": ["contactflow.cli:ArtifactWriter.write_json",
                      "contactflow.cli:ArtifactWriter.write_csv",
                      "contactflow.transfer:CorrelationSeries.to_csv",
                      "contactflow.transfer:write_resolvent_csv",
                      "contactflow.averaging:write_dolgopyat_csv",
                      "contactflow.averaging:write_decomposition_csv",
                      "contactflow.aniso:write_sweep_csv",
                      "contactflow.aniso:write_symbol_report_json"],
}

SCALAR_LAYERS = ("flow.scalar.piece_of", "flow.scalar.apply",
                 "flow.scalar.apply_inverse", "flow.scalar.tau")


def _first_array_size(args) -> int:
    for a in args:
        size = getattr(a, "size", None)
        if isinstance(size, int) and hasattr(a, "shape"):
            return size
    return 0


class Recorder:
    """Span store for one process; see the module docstring."""

    def __init__(self, layers):
        self.layers = list(layers)
        self.rec_layer = array("i")
        self.rec_parent = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_points = array("q")
        self.leaves: dict[tuple[int, int], list] = {}
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []  # frames [layer, start, record, points, scratch]
        self.depth = [0] * len(self.layers)
        self.last_col_max = None

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _record(self, frame, parent: int) -> int:
        self.rec_layer.append(frame[0])
        self.rec_parent.append(parent)
        self.rec_start.append(frame[1])
        self.rec_end.append(0.0)
        self.rec_points.append(frame[3])
        return len(self.rec_layer) - 1

    def enter(self, layer: int, points: int) -> list:
        stack = self.stack
        if stack and stack[-1][2] < 0:
            # the parent gains a child: it becomes a full span record
            parent = stack[-2][2] if len(stack) > 1 else -1
            stack[-1][2] = self._record(stack[-1], parent)
        if self.depth[layer]:
            points = 0  # nested call of the same layer: points counted once
        self.depth[layer] += 1
        frame = [layer, time.perf_counter(), -1, points, 0.0]
        stack.append(frame)
        return frame

    def leave(self, frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.depth[frame[0]] -= 1
        if frame[2] >= 0:
            self.rec_end[frame[2]] = end
            return
        parent = self.stack[-1][2] if self.stack else -1
        agg = self.leaves.get((frame[0], parent))
        if agg is None:
            self.leaves[(frame[0], parent)] = [1, end - frame[1], frame[3]]
        else:
            agg[0] += 1
            agg[1] += end - frame[1]
            agg[2] += frame[3]

    def parent_layer(self) -> str | None:
        """Layer of the caller of the span now being closed."""
        return self.layers[self.stack[-2][0]] if len(self.stack) > 1 else None

    def to_json_dict(self) -> dict:
        return {
            "layers": self.layers,
            "records": {"layer": self.rec_layer.tolist(),
                        "parent": self.rec_parent.tolist(),
                        "start": self.rec_start.tolist(),
                        "end": self.rec_end.tolist(),
                        "points": self.rec_points.tolist()},
            "leaves": [[k[0], k[1], v[0], v[1], v[2]]
                       for k, v in self.leaves.items()],
            "counters": self.counters,
        }


# -- per-layer counters beyond calls, time and points ------------------------


def _sample_points(args):
    return int(args[2]) if len(args) > 2 else 0


def _fft_points(args):
    grid = args[0]
    return grid.values.size if grid._fhat is None else 0


def _on_tau(rec, frame, args, result):
    if rec.parent_layer() == "flow.sample":
        rec.stack[-2][4] += float(result.sum())


def _on_sample(rec, frame, args, result):
    # expected acceptance on the drawn points: sum of tau / tau_max
    rec.count("flow.sample.accepted_expected", frame[4] / args[0].tau_max)


def _on_column_max(rec, frame, args, result):
    rec.last_col_max = result


def _on_ulam(rec, frame, args, result):
    rec.count("transfer.ulam.states", result.n_states)
    rec.count("transfer.ulam.dropped", result.n_dropped)
    rec.count("transfer.ulam.starved", result.n_starved)
    col_max = rec.last_col_max
    if col_max is not None:
        nz = result.partition[2]
        dz = args[0].tau_max / nz
        rec.count("transfer.ulam.candidates",
                  sum(int((col_max > k * dz).sum()) for k in range(nz)))


def _on_point_in_closed(rec, frame, args, result):
    if result:
        rec.count("polygon.point_in_closed.hits", 1)


def _on_complexity(rec, frame, args, result):
    rec.count("hyperbolicity.complexity.cells",
              sum((r.cells_b or 0) + (r.cells_e or 0) for r in result))


def _on_fft(rec, frame, args, result):
    if frame[3]:
        rec.count("aniso.fft.computed", 1)
        # input read plus transform written, both complex128
        rec.count("aniso.fft.bytes_computed",
                  args[0].values.nbytes + result.nbytes)


def _on_decomposition(rec, frame, args, result):
    rec.count("averaging.decomposition.pieces",
              sum(row["piece_count"] for row in result.rows))


POINTS = {"flow.sample": _sample_points, "aniso.fft": _fft_points}
EXIT_HOOKS = {
    "flow.tau": _on_tau,
    "flow.sample": _on_sample,
    "transfer.ulam.column_max": _on_column_max,
    "transfer.ulam": _on_ulam,
    "polygon.point_in_closed": _on_point_in_closed,
    "hyperbolicity.complexity": _on_complexity,
    "aniso.fft": _on_fft,
    "averaging.decomposition": _on_decomposition,
}


def _wrap(rec: Recorder, layer: int, fn):
    name = rec.layers[layer]
    points_of = POINTS.get(name, _first_array_size)
    hook = EXIT_HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.enter(layer, points_of(args))
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, frame, args, result)
            return result
        finally:
            rec.leave(frame)

    return traced


def install(rec: Recorder) -> dict:
    """Wrap every target that resolves; return where each was patched."""
    report = {"patched": {}, "absent": []}
    for layer_id, (layer, targets) in enumerate(LAYERS.items()):
        for target in targets:
            modname, qualname = target.split(":")
            try:
                owner = importlib.import_module(modname)
                parts = qualname.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[parts[-1]] if isinstance(owner, type) \
                    else getattr(owner, parts[-1])
            except (ImportError, AttributeError, KeyError):
                report["absent"].append(target)
                continue
            wrapped = _wrap(rec, layer_id, original)
            setattr(owner, parts[-1], wrapped)
            sites = [target]
            if not isinstance(owner, type):
                # rebind names imported by value into other package modules
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("contactflow"):
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapped)
                            sites.append(f"{mod.__name__}:{attr}")
            report["patched"][target] = sorted(set(sites))
    return report


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <contactflow cli arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    import contactflow.cli as cli  # imports every package module
    rec = Recorder(LAYERS)
    report = install(rec)
    try:
        return cli.main(cli_args)
    finally:
        data = rec.to_json_dict()
        data.update(report)
        with open(out_path, "w") as fh:
            json.dump(data, fh)


# -- parent side ---------------------------------------------------------------


def _layer_totals(data: dict) -> tuple[dict, dict]:
    """calls, self_s, incl_s and points per layer, and (calls, points) per
    (layer, caller's layer)."""
    layers = data["layers"]
    recs = data["records"]
    n = len(recs["layer"])
    dur = [recs["end"][i] - recs["start"][i] for i in range(n)]
    cover = [0.0] * n
    for i in range(n):
        p = recs["parent"][i]
        if p >= 0:
            cover[p] += dur[i]
    for layer, parent, calls, total, points in data["leaves"]:
        if parent >= 0:
            cover[parent] += total
    out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "points": 0}
           for name in layers}
    by_parent: dict[tuple[str, str | None], list] = {}

    def add(name, parent, calls, incl, self_s, points):
        t = out[name]
        t["calls"] += calls
        t["incl_s"] += incl
        t["self_s"] += self_s
        t["points"] += points
        pname = layers[recs["layer"][parent]] if parent >= 0 else None
        acc = by_parent.setdefault((name, pname), [0, 0])
        acc[0] += calls
        acc[1] += points

    for i in range(n):
        add(layers[recs["layer"][i]], recs["parent"][i], 1, dur[i],
            dur[i] - cover[i], recs["points"][i])
    for layer, parent, calls, total, points in data["leaves"]:
        add(layers[layer], parent, calls, total, total, points)
    return out, by_parent


def summarize(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics over the span files of one workload's operations."""
    totals: dict[str, dict] = {}
    by_parent: dict[tuple, list] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for path in span_files:
        with open(path) as fh:
            data = json.load(fh)
        t, bp = _layer_totals(data)
        for name, v in t.items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                           "incl_s": 0.0, "points": 0})
            for k in acc:
                acc[k] += v[k]
        for key, v in bp.items():
            acc = by_parent.setdefault(key, [0, 0])
            acc[0] += v[0]
            acc[1] += v[1]
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0.0) + v
        absent.update(data["absent"])

    present = {layer for layer, targets in LAYERS.items()
               if any(t not in absent for t in targets)}

    def ratio(a, b):
        return a / b if b else 0.0

    def pc(name, parent):
        return by_parent.get((name, parent), [0, 0])

    m: dict[str, float] = {}

    def put(layer, name, value):
        if all(l in present for l in (layer if isinstance(layer, tuple) else (layer,))):
            m[name] = value

    def tot(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "points": 0})

    for layer in ("flow.piece_of", "flow.tau", "flow.apply", "flow.apply_inverse"):
        put(layer, f"{layer}.points", tot(layer)["points"])
        put(layer, f"{layer}.self_s", tot(layer)["self_s"])
    crossings = (pc("flow.apply", "flow.step")[1]
                 + pc("flow.apply_inverse", "flow.step")[1])
    put(("flow.step", "flow.apply", "flow.apply_inverse"), "flow.step.crossings", crossings)
    put("flow.step", "flow.step.self_s", tot("flow.step")["self_s"])
    put(("flow.step", "flow.apply", "flow.apply_inverse"), "flow.step.crossings_per_s",
        ratio(crossings, tot("flow.step")["incl_s"]))
    put(SCALAR_LAYERS, "flow.scalar_calls", sum(tot(l)["calls"] for l in SCALAR_LAYERS))
    put("flow.orbit", "flow.orbit.calls", tot("flow.orbit")["calls"])
    put("flow.orbit", "flow.orbit.self_s", tot("flow.orbit")["self_s"])
    put(("flow.orbit", "flow.scalar.apply_inverse"), "flow.orbit.crossings",
        pc("flow.scalar.apply_inverse", "flow.orbit")[0])
    drawn = pc("flow.tau", "flow.sample")[1]
    put("flow.sample", "flow.sample.points", tot("flow.sample")["points"])
    put(("flow.sample", "flow.tau"), "flow.sample.acceptance",
        ratio(counters.get("flow.sample.accepted_expected", 0.0), drawn))
    put("flow.sample", "flow.sample.self_s", tot("flow.sample")["self_s"])
    put("transfer.observable", "transfer.observable.points", tot("transfer.observable")["points"])
    put("transfer.observable", "transfer.observable.self_s", tot("transfer.observable")["self_s"])
    put("transfer.resolvent", "transfer.resolvent.calls", tot("transfer.resolvent")["calls"])
    for layer in ("transfer.resolvent", "transfer.correlation", "transfer.fit", "transfer.ulam",
                  "transfer.ulam.column_max"):
        put(layer, f"{layer}.self_s", tot(layer)["self_s"])
    for k in ("states", "dropped", "starved"):
        put("transfer.ulam", f"transfer.ulam.{k}", counters.get(f"transfer.ulam.{k}", 0.0))
    put(("transfer.ulam", "transfer.ulam.column_max"), "transfer.ulam.useful_ratio",
        ratio(counters.get("transfer.ulam.states", 0.0),
              counters.get("transfer.ulam.candidates", 0.0)))
    for layer in ("quadrature.panels", "rng.spawn", "polygon.clip", "polygon.extrema",
                  "polygon.point_in_closed"):
        put(layer, f"{layer}.calls", tot(layer)["calls"])
        put(layer, f"{layer}.self_s", tot(layer)["self_s"])
    put("polygon.point_in_closed", "polygon.point_in_closed.hit_ratio",
        ratio(counters.get("polygon.point_in_closed.hits", 0.0),
              tot("polygon.point_in_closed")["calls"]))
    cells = counters.get("hyperbolicity.complexity.cells", 0.0)
    put("hyperbolicity.complexity", "hyperbolicity.complexity.self_s",
        tot("hyperbolicity.complexity")["self_s"])
    put("hyperbolicity.complexity", "hyperbolicity.complexity.cells", cells)
    put("hyperbolicity.complexity", "hyperbolicity.complexity.cells_per_s",
        ratio(cells, tot("hyperbolicity.complexity")["incl_s"]))
    put("hyperbolicity.cone", "hyperbolicity.cone.self_s", tot("hyperbolicity.cone")["self_s"])
    put("aniso.fft", "aniso.fft.calls", counters.get("aniso.fft.computed", 0.0))
    put("aniso.fft", "aniso.fft.points", tot("aniso.fft")["points"])
    put("aniso.fft", "aniso.fft.bytes_computed", counters.get("aniso.fft.bytes_computed", 0.0))
    put("aniso.fft", "aniso.fft.self_s", tot("aniso.fft")["self_s"])
    put("aniso.norm", "aniso.norm.self_s", tot("aniso.norm")["self_s"])
    put("averaging.dolgopyat_value", "averaging.dolgopyat_value.calls",
        tot("averaging.dolgopyat_value")["calls"])
    for layer in ("averaging.dolgopyat_value", "averaging.leaf", "averaging.decomposition",
                  "cli.artifacts"):
        put(layer, f"{layer}.self_s", tot(layer)["self_s"])
    put("averaging.decomposition", "averaging.decomposition.pieces",
        counters.get("averaging.decomposition.pieces", 0.0))
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
