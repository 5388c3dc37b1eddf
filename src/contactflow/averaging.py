"""Stable-leaf averaging and oscillatory-cancellation experiments for the
suspension flow.

The central object is the average of an observable over a short curve
tangent to the contact kernel in the stable direction (a "fake stable
leaf").  Applying that average to resolvent powers R(a+ib)^{2m} psi and
sweeping the frequency b measures how oscillation along leaves cancels:
the ratio against the trivial bound a^{-2m} ||psi|| should decay like a
power b^{-gamma0}, and the fitted exponent is reported rather than assumed.
Pushing leaves backward through the flow and cutting them at discontinuity
crossings gives the companion decomposition statistics (piece counts and
boundary mass).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import hyperbolicity
from ._quadrature import fmt17, gl_interval
from .errors import PieceExplosion
from .flow import FlowPoint
from .transfer import ResolventParams, cabs, resolvent_power_points


def _as_point_tuple(flow, w):
    if isinstance(w, FlowPoint):
        return w.x, w.y, w.z
    x, y, z = (float(c) for c in w)
    flow.flow_point(x, y, z)  # validates 0 <= z < tau
    return x, y, z


# ---------------------------------------------------------------------------
# stable leaves
# ---------------------------------------------------------------------------


def stable_direction(base_map) -> tuple:
    """Contracting eigendirection of the base linear part, scaled to e1 = 1."""
    vals, vecs = np.linalg.eig(np.asarray(base_map.sample_jacobians()[0], dtype=float))
    if np.any(np.abs(vals.imag) > 1e-12):
        raise ValueError("base linear part has complex eigenvalues")
    i = int(np.argmin(np.abs(vals.real)))
    if abs(vals.real[i]) >= 1.0:
        raise ValueError("base linear part has no contracting eigendirection")
    v = vecs[:, i].real
    if abs(v[0]) < 1e-12:
        raise ValueError("stable direction is vertical in chart coordinates")
    return 1.0, float(v[1] / v[0])


@dataclass(frozen=True)
class StableLeaf:
    """Curve s -> (x0 + s e1, y0 + s e2, z(s)) tangent to the contact kernel.

    The kernel condition z'(s) = y(s) x'(s) forces the closed form
    z(s) = z0 + y0 e1 s + e1 e2 s^2 / 2; for the standard stable direction
    (1, -1/2) this is z0 + y0 s - s^2/4.  Coordinates are kept in the chart
    of the base point (x, y unwrapped along the leaf), and half_length is
    measured in the parameter s.
    """

    x0: float
    y0: float
    z0: float
    half_length: float
    e1: float = 1.0
    e2: float = -0.5

    def __post_init__(self):
        if not (self.half_length > 0.0):
            raise ValueError("half_length must be positive")
        if self.e1 == 0.0:
            raise ValueError("e1 must be nonzero")

    def point_unwrapped(self, s):
        s = np.asarray(s, dtype=float)
        x = self.x0 + self.e1 * s
        y = self.y0 + self.e2 * s
        z = self.z0 + self.y0 * self.e1 * s + 0.5 * self.e1 * self.e2 * s * s
        return x, y, z

    def point(self, s):
        x, y, z = self.point_unwrapped(s)
        return x % 1.0, y % 1.0, z

    def kernel_residual(self, n: int = 64, h: float = 1e-3) -> float:
        """max |z'(s) - y(s) x'(s)| with z' from central differences.

        Central differences are exact for the quadratic z, so the residual
        is pure roundoff; h is chosen large enough to keep that roundoff
        below 1e-12.
        """
        s = np.linspace(-self.half_length, self.half_length, n)
        _, _, zp = self.point_unwrapped(s + h)
        _, _, zm = self.point_unwrapped(s - h)
        dz = (zp - zm) / (2.0 * h)
        _, y, _ = self.point_unwrapped(s)
        return float(np.max(np.abs(dz - y * self.e1)))


def leaf_through(flow, w, half_length: float) -> StableLeaf:
    x, y, z = _as_point_tuple(flow, w)
    e1, e2 = stable_direction(flow.base)
    return StableLeaf(x0=x, y0=y, z0=z, half_length=half_length, e1=e1, e2=e2)


def _inside_domain(flow, leaf: StableLeaf, s) -> np.ndarray:
    x, y, z = leaf.point(np.atleast_1d(s))
    pid = flow.base.piece_of_arrays(x, y)
    tau = flow.roof.tau_arrays(x, y, pid)
    return (z >= 0.0) & (z < tau)


def clip_leaf_to_domain(flow, leaf: StableLeaf, n_scan: int = 256,
                        tol: float = 1e-12):
    """Maximal parameter interval around s = 0 kept inside the flow box.

    The leaf is scanned on a fine grid and the first exit on each side is
    refined by bisection; the base point itself is always inside, so the
    interval is nonempty.
    """
    h = leaf.half_length
    s = np.linspace(-h, h, n_scan)
    inside = _inside_domain(flow, leaf, s)
    i0 = n_scan // 2
    if not inside[i0]:
        raise ValueError("leaf base point is outside the flow box")

    def bisect(lo, hi):
        # invariant: lo inside, hi outside
        while abs(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            if bool(_inside_domain(flow, leaf, mid)[0]):
                lo = mid
            else:
                hi = mid
        return lo

    hi_idx = i0
    while hi_idx + 1 < n_scan and inside[hi_idx + 1]:
        hi_idx += 1
    s_hi = h if hi_idx == n_scan - 1 else bisect(s[hi_idx], s[hi_idx + 1])
    lo_idx = i0
    while lo_idx - 1 >= 0 and inside[lo_idx - 1]:
        lo_idx -= 1
    s_lo = -h if lo_idx == 0 else bisect(s[lo_idx], s[lo_idx - 1])
    return float(s_lo), float(s_hi)


# ---------------------------------------------------------------------------
# oscillatory cancellation experiment
# ---------------------------------------------------------------------------


# Leaf half-lengths are capped at DELTA_CAP and averaged with LEAF_NODES
# Gauss-Legendre nodes; the time quadrature takes at least NODES_PER_UNIT
# nodes per unit and stops at T_MAX: at a = 2 the kernel weight beyond
# t = 12 is below e^{-24}, and the tail bound stays in the reported budget
# either way, so no budget is enforced (the tolerance is infinite).
DELTA_CAP = 0.25
LEAF_NODES = 16
NODES_PER_UNIT = 24
T_MAX = 12.0


@dataclass(frozen=True)
class DolgopyatParams:
    """Parameters for the leaf-averaged resolvent-power experiment.

    The resolvent power is 2m at spectral point z = a + ib; leaves have
    half-length delta = min(DELTA_CAP, |b|^{-gamma}), computed per b.
    nu_a = 1/(1 + ln(lambda_bar)/a) with lambda_bar the measured
    per-unit-time expansion rate; lambda_bar > 1 keeps nu_a in (0, 1).
    """

    a: float
    m: int
    gamma: float
    lambda_bar: float

    def __post_init__(self):
        if not (self.a > 1.0):
            raise ValueError("need a > 1")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("m must be an integer >= 1")
        if not (self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not (self.lambda_bar > 1.0):
            raise ValueError("lambda_bar must exceed 1")

    @property
    def nu_a(self) -> float:
        return 1.0 / (1.0 + math.log(self.lambda_bar) / self.a)

    def delta_for(self, b: float) -> float:
        # |b| so that conjugate frequencies average over the same leaf;
        # b = 0 falls back to the cap (no oscillation scale to resolve).
        if b == 0.0:
            return DELTA_CAP
        return min(DELTA_CAP, abs(b) ** (-self.gamma))

    def nodes_per_unit_for(self, b: float) -> int:
        # Gauss panels resolve ~n/pi oscillations per unit; e^{-ibt} has
        # b/(2 pi) cycles per unit.  The cancellation makes the target
        # value far smaller than the integrand scale, so the density
        # carries a large headroom factor over the resolution threshold.
        return max(NODES_PER_UNIT, math.ceil(0.9 * abs(b)) + 15)

    def resolvent_params(self, b: float) -> ResolventParams:
        return ResolventParams(a=self.a, b=b,
                               nodes_per_unit=self.nodes_per_unit_for(b),
                               t_max=T_MAX, tolerance=float("inf"))


def measured_lambda_bar(flow, aperture: float = 0.01) -> float:
    """Per-unit-time expansion rate: the measured per-return rate raised to
    1/(mean return time).  The mean return time over the invariant measure
    equals the flow volume because the base area is 1."""
    params = hyperbolicity.default_params(flow, aperture=aperture)
    return params.lambda_u ** (1.0 / flow.volume)


def default_dolgopyat_params(flow, a: float = 2.0, m: int = 2,
                             gamma: float = 0.7) -> DolgopyatParams:
    """DolgopyatParams with the flow's measured lambda_bar."""
    return DolgopyatParams(a=a, m=m, gamma=gamma,
                           lambda_bar=measured_lambda_bar(flow))


def dolgopyat_value(flow, psi, params: DolgopyatParams, ws, b: float,
                    n_leaf_nodes: int | None = None):
    """Leaf averages of R(a+ib)^{2m} psi at the points ws, with propagated
    error budgets.

    The resolvent power is the single time integral
    int_0^inf t^{2m-1} e^{-zt} / (2m-1)! psi(T_{-t} .) dt evaluated at each
    leaf quadrature node; nesting resolvents would square the cost for the
    same output.  The leaf nodes of all points go through one resolvent
    batch.  Returns arrays (complex values, budgets) aligned with ws, where
    a budget is the leaf-weighted time-quadrature budget (tail + rule).
    """
    delta = params.delta_for(b)
    n_nodes = n_leaf_nodes if n_leaf_nodes is not None else LEAF_NODES
    coords, weights, lengths = [], [], []
    for w in ws:
        leaf = leaf_through(flow, w, delta)
        s_lo, s_hi = clip_leaf_to_domain(flow, leaf)
        nodes, wgt = gl_interval(s_lo, s_hi, n_nodes)
        coords.append(leaf.point(nodes))
        weights.append(wgt)
        lengths.append(s_hi - s_lo)
    pts = tuple(np.concatenate(c) for c in zip(*coords))
    rv = resolvent_power_points(flow, psi, params.resolvent_params(b),
                                2 * params.m, pts)
    weights = np.array(weights)
    # cumsum adds node by node, in order (np.sum would add pairwise)
    acc = np.cumsum(weights * rv.value.reshape(weights.shape), axis=1)[:, -1]
    budget = np.cumsum(weights * rv.error_budget.reshape(weights.shape),
                       axis=1)[:, -1]
    length = np.array(lengths)
    return acc / length, budget / length


@dataclass
class DolgopyatRow:
    b: float
    delta: float
    sup_value: float
    trivial_bound: float
    ratio: float
    gamma0_hat_running: float
    error_budget: float
    flagged: bool


@dataclass
class DolgopyatTable:
    rows: list
    gamma0_hat: float
    a: float
    m: int
    gamma: float
    nu_a: float
    lambda_bar: float
    n_points: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "a": self.a, "m": self.m, "gamma": self.gamma,
            "nu_a": self.nu_a, "lambda_bar": self.lambda_bar,
            "n_points": self.n_points, "seed": self.seed,
            "gamma0_hat": self.gamma0_hat,
            "rows": [vars(r) for r in self.rows],
        }


def _fit_gamma0(bs, ratios) -> float:
    """Slope of -log(ratio) against log(b); needs at least two rows."""
    lb = np.log(np.asarray(bs, dtype=float))
    lr = np.log(np.asarray(ratios, dtype=float))
    design = np.stack([np.ones_like(lb), lb], axis=1)
    coef, *_ = np.linalg.lstsq(design, lr, rcond=None)
    return float(-coef[1])


def dolgopyat_experiment(flow, psi, params: DolgopyatParams, b_list,
                         eval_points=200, seed: int = 0) -> DolgopyatTable:
    """Sweep b, measuring sup_w |leaf average of R(a+ib)^{2m} psi| against
    the trivial bound a^{-2m} ||psi||_inf.

    eval_points may be an integer (sampled from the invariant measure with
    the given seed) or an explicit batch of points.  Each row records the
    ratio rho(b) and a running log-log fit gamma0_hat of rho ~ b^{-gamma0};
    rows whose propagated quadrature budget reaches 10% of the measured
    sup are flagged rather than silently trusted.  Leaf-rule error is
    estimated at the first point by refining the leaf quadrature.
    """
    if psi.sup_norm is None:
        raise ValueError("psi needs a finite sup_norm for the trivial bound")
    if isinstance(eval_points, int):
        batch = flow.sample_invariant(seed, eval_points)
        pts = [(float(batch.x[i]), float(batch.y[i]), float(batch.z[i]))
               for i in range(len(batch))]
    else:
        pts = [_as_point_tuple(flow, p) for p in eval_points]
    if not pts:
        raise ValueError("need at least one evaluation point")
    trivial = params.a ** (-2 * params.m) * psi.sup_norm
    rows = []
    bs_seen, ratios_seen = [], []
    for b in b_list:
        vals, budgets = dolgopyat_value(flow, psi, params, pts, b)
        refined, _ = dolgopyat_value(flow, psi, params, pts[:1], b,
                                     n_leaf_nodes=LEAF_NODES + 8)
        leaf_rule_err = abs(refined[0] - vals[0])
        sup_val = max([0.0, *cabs(vals)])
        max_budget = max([0.0, *budgets])
        row_budget = max_budget + leaf_rule_err
        ratio = sup_val / trivial
        bs_seen.append(b)
        ratios_seen.append(max(ratio, 1e-300))
        gamma_running = _fit_gamma0(bs_seen, ratios_seen) \
            if len(bs_seen) >= 2 else float("nan")
        rows.append(DolgopyatRow(
            b=float(b), delta=params.delta_for(b), sup_value=sup_val,
            trivial_bound=trivial, ratio=ratio,
            gamma0_hat_running=gamma_running, error_budget=row_budget,
            flagged=bool(row_budget >= 0.1 * sup_val)))
    return DolgopyatTable(
        rows=rows, gamma0_hat=rows[-1].gamma0_hat_running,
        a=params.a, m=params.m, gamma=params.gamma, nu_a=params.nu_a,
        lambda_bar=params.lambda_bar, n_points=len(pts), seed=seed)


def write_dolgopyat_csv(path, table: DolgopyatTable):
    with open(path, "w", newline="") as fh:
        fh.write(f"# a={fmt17(table.a)} m={table.m} gamma={fmt17(table.gamma)} "
                 f"nu_a={fmt17(table.nu_a)} lambda_bar={fmt17(table.lambda_bar)} "
                 f"n_points={table.n_points} seed={table.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["b", "delta", "sup_value", "trivial_bound", "ratio",
                         "gamma0_hat_running", "error_budget", "flagged"])
        for r in table.rows:
            writer.writerow([
                fmt17(r.b), fmt17(r.delta), fmt17(r.sup_value),
                fmt17(r.trivial_bound), fmt17(r.ratio),
                fmt17(r.gamma0_hat_running), fmt17(r.error_budget),
                int(r.flagged)])


# ---------------------------------------------------------------------------
# stable-curve decomposition statistics
# ---------------------------------------------------------------------------


@dataclass
class _LeafPiece:
    # base point in its own chart (x, y wrapped), half-length in s
    x: float
    y: float
    z: float
    half: float


def _rebase(piece: _LeafPiece, s_mid: float, half: float) -> _LeafPiece:
    leaf = StableLeaf(piece.x, piece.y, piece.z, max(piece.half, 1e-300))
    x, y, z = leaf.point_unwrapped(s_mid)
    return _LeafPiece(x % 1.0, y % 1.0, float(z), half)


def _interior_breaks(piece: _LeafPiece, step: float):
    """Parameter values where the piece must be cut before one backward
    step: chart wraps of x and y, and roots of z(s) = step (at most one
    section crossing per step because step < min roof)."""
    h = piece.half
    breaks = []
    # x(s) = x0 + s crosses integers
    for k in range(math.floor(piece.x - h), math.ceil(piece.x + h) + 1):
        s = k - piece.x
        if -h < s < h:
            breaks.append(s)
    # y(s) = y0 - s/2 crosses integers
    for k in range(math.floor(piece.y - 0.5 * h),
                   math.ceil(piece.y + 0.5 * h) + 1):
        s = 2.0 * (piece.y - k)
        if -h < s < h:
            breaks.append(s)
    # z(s) = z0 + y0 s - s^2/4 = step  (concave quadratic)
    disc = piece.y * piece.y + piece.z - step
    if disc > 0.0:
        root = math.sqrt(disc)
        for s in (2.0 * (piece.y - root), 2.0 * (piece.y + root)):
            if -h < s < h:
                breaks.append(s)
    return sorted(set(breaks))


def _classify_backward(flow, piece: _LeafPiece, s_vals: np.ndarray):
    leaf = StableLeaf(piece.x, piece.y, piece.z, max(piece.half, 1e-300))
    x, y, _ = leaf.point(s_vals)
    _, _, pid = flow.base.apply_inverse_arrays(x, y)
    return pid


def _branch_breaks(flow, piece: _LeafPiece, s_lo: float, s_hi: float,
                   n_scan: int = 48, tol: float = 1e-13):
    """Cut points where the inverse branch changes along [s_lo, s_hi]."""
    s = np.linspace(s_lo, s_hi, n_scan)
    pid = _classify_backward(flow, piece, s)
    cuts = []
    for i in range(n_scan - 1):
        if pid[i] == pid[i + 1]:
            continue
        lo, hi = s[i], s[i + 1]
        ref = pid[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if int(_classify_backward(flow, piece, np.asarray([mid]))[0]) == ref:
                lo = mid
            else:
                hi = mid
        cuts.append(0.5 * (lo + hi))
    return cuts


def _step_piece(flow, piece: _LeafPiece, step: float):
    """One backward time step of a leaf piece; returns the new pieces.

    The piece is first cut at chart wraps and at the section-crossing
    locus z = step, then crossing atoms are further cut where the inverse
    branch changes.  Atoms that stay in the box slide down; crossing atoms
    are pulled through the inverse branch, which doubles their parameter
    half-length along the stable eigendirection.
    """
    h = piece.half
    cuts = [-h] + _interior_breaks(piece, step) + [h]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < 1e-13:
            continue
        atom = _rebase(piece, 0.5 * (a + b), 0.5 * (b - a))
        if atom.z >= step:
            out.append(_LeafPiece(atom.x, atom.y, atom.z - step, atom.half))
            continue
        sub_cuts = [-atom.half] + _branch_breaks(flow, atom, -atom.half,
                                                 atom.half) + [atom.half]
        for aa, bb in zip(sub_cuts[:-1], sub_cuts[1:]):
            if bb - aa < 1e-13:
                continue
            sub = _rebase(atom, 0.5 * (aa + bb), 0.5 * (bb - aa))
            px, py, pid = flow.base.apply_inverse(sub.x, sub.y)
            tau = flow.roof.tau(px, py, pid)
            out.append(_LeafPiece(px, py, sub.z - step + tau, 2.0 * sub.half))
    return out


def _subdivide(pieces, max_len: float):
    out = []
    for p in pieces:
        n_parts = max(1, math.ceil(2.0 * p.half / max_len))
        if n_parts == 1:
            out.append(p)
            continue
        width = 2.0 * p.half / n_parts
        for j in range(n_parts):
            s_mid = -p.half + (j + 0.5) * width
            out.append(_rebase(p, s_mid, 0.5 * width))
    return out


def _boundary_mass(pieces, r: float) -> float:
    lengths = np.array([2.0 * p.half for p in pieces])
    total = float(lengths.sum())
    return float(np.minimum(2.0 * r, lengths).sum() / total)


@dataclass
class DecompositionStats:
    rows: list  # dicts: ell, piece_count, boundary_mass_r
    delta: float
    r: float
    step: float
    max_piece_len: float
    seed: int

    def log_count_increments(self) -> list:
        counts = [row["piece_count"] for row in self.rows]
        return [math.log(b) - math.log(a)
                for a, b in zip(counts[:-1], counts[1:])]

    def to_json_dict(self) -> dict:
        return {"delta": self.delta, "r": self.r, "step": self.step,
                "max_piece_len": self.max_piece_len, "seed": self.seed,
                "rows": self.rows}


def stable_decomposition_stats(flow, delta: float, r: float, ell_max: int,
                               seed: int = 0, step: float | None = None,
                               max_piece_len: float = 0.25,
                               piece_cap: int = 10 ** 6) -> DecompositionStats:
    """Backward-evolve a stable leaf in steps of tau_minus/4, cutting at
    discontinuity crossings and subdividing long pieces.

    Row ell reports the piece count and the fraction of current leaf mass
    within r of piece endpoints (uniform density on the current union).
    Raises PieceExplosion, carrying the rows so far in .partial_rows, if
    the piece count passes piece_cap.
    """
    if not (0.0 < r < delta):
        raise ValueError("need 0 < r < delta")
    if step is None:
        step = flow.tau_minus / 4.0
    if not (0.0 < step < flow.tau_minus):
        raise ValueError("step must lie in (0, tau_minus)")
    batch = flow.sample_invariant(seed, 1)
    w = (float(batch.x[0]), float(batch.y[0]), float(batch.z[0]))
    leaf = leaf_through(flow, w, delta)
    s_lo, s_hi = clip_leaf_to_domain(flow, leaf)
    first = _rebase(_LeafPiece(w[0], w[1], w[2], delta),
                    0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo))
    pieces = _subdivide([first], max_piece_len)
    rows = [{"ell": 0, "piece_count": len(pieces),
             "boundary_mass_r": _boundary_mass(pieces, r)}]
    for ell in range(1, ell_max + 1):
        nxt = []
        for p in pieces:
            nxt.extend(_step_piece(flow, p, step))
        pieces = _subdivide(nxt, max_piece_len)
        if len(pieces) > piece_cap:
            err = PieceExplosion(
                f"{len(pieces)} pieces at step {ell} exceeds {piece_cap}")
            err.partial_rows = rows
            raise err
        rows.append({"ell": ell, "piece_count": len(pieces),
                     "boundary_mass_r": _boundary_mass(pieces, r)})
    return DecompositionStats(rows=rows, delta=delta, r=r, step=step,
                              max_piece_len=max_piece_len, seed=seed)


def write_decomposition_csv(path, stats: DecompositionStats):
    with open(path, "w", newline="") as fh:
        fh.write(f"# delta={fmt17(stats.delta)} r={fmt17(stats.r)} "
                 f"step={fmt17(stats.step)} "
                 f"max_piece_len={fmt17(stats.max_piece_len)} "
                 f"seed={stats.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["ell", "piece_count", "boundary_mass_r"])
        for row in stats.rows:
            writer.writerow([row["ell"], row["piece_count"],
                             fmt17(row["boundary_mass_r"])])
