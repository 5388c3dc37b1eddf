"""Transfer operator, resolvent quadrature, Ulam surrogate, correlations.

The operator ``L_t`` acts by composition with the time-reversed flow, so
everything here reduces to evaluating observables along backward orbits.
Resolvent values are Laplace-transform quadratures carrying an explicit
error budget (Gamma tail plus an empirical rule error).  The Ulam model is
a finite Markov surrogate on a roof-shaped partition of the phase space.
Correlation estimation is seeded Monte Carlo with batched standard errors;
one sample set is shared across the whole time grid.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import gammaincc

from . import _polygon as pg
from ._quadrature import composite_panels
from ._rng import spawn_rng
from .errors import EmptyCell, NoiseFloor, ToleranceNotMet
from .flow import FlowPoint, FlowPointBatch

# sup of |d/du exp(1 - 1/(1 - u^2))|, attained at u = 3^(-1/4); rounded up in
# the last digit so declared Lipschitz bounds stay true upper bounds.
BUMP_DERIV_SUP = 2.1703571

# orbit x node elements per block of resolvent_power_points (peak memory)
_BLOCK_ELEMENTS = 2 ** 16


def _wrap_delta(d):
    """Offset folded to (-1/2, 1/2]: nearest representative on the torus."""
    return (d + 0.5) % 1.0 - 0.5


def _bump(u):
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    s = 1.0 - u[m] ** 2
    out[m] = np.exp(1.0 - 1.0 / s)
    return out


def _bump_deriv(u):
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    s = 1.0 - u[m] ** 2
    out[m] = np.exp(1.0 - 1.0 / s) * (-2.0 * u[m]) / (s * s)
    return out


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass
class Observable:
    """A scalar function on the phase space with declared norm metadata.

    The evaluator must be pure and vectorized: it receives coordinate arrays
    ``(x, y, z)`` of a common shape and returns an array of values (real or
    complex).  ``sup_norm`` and ``lipschitz`` are declared bounds consumed by
    quadrature budgets and tests; they are never inferred silently.
    ``support`` is ``((cx, cy, cz), (rx, ry, rz))`` for compactly supported
    observables, ``partial_sup`` bounds the three partial derivatives.
    """

    evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    gradient: Optional[Callable[..., tuple]] = None
    sup_norm: Optional[float] = None
    lipschitz: Optional[float] = None
    name: str = ""
    support: Optional[tuple] = None
    partial_sup: Optional[tuple] = None

    def __call__(self, x, y, z) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return np.asarray(self.evaluator(x, y, z))

    def values(self, batch) -> np.ndarray:
        return self(batch.x, batch.y, batch.z)

    def partial(self, axis: int) -> "Observable":
        """The axis-th partial derivative as its own observable."""
        if self.gradient is None:
            raise ValueError("observable has no analytic gradient")
        grad = self.gradient
        sup = self.partial_sup[axis] if self.partial_sup is not None else None
        return Observable(
            evaluator=lambda x, y, z: grad(x, y, z)[axis],
            sup_norm=sup,
            name=f"d{'xyz'[axis]}({self.name})",
            support=self.support,
        )

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        cc = complex(c)
        if cc.imag == 0.0:
            cc = cc.real
        ev, grad = self.evaluator, self.gradient
        return Observable(
            evaluator=lambda x, y, z: cc * ev(x, y, z),
            gradient=None if grad is None else (
                lambda x, y, z: tuple(cc * g for g in grad(x, y, z))),
            sup_norm=None if self.sup_norm is None else abs(cc) * self.sup_norm,
            lipschitz=None if self.lipschitz is None else abs(cc) * self.lipschitz,
            name=f"({c})*{self.name}" if self.name else "",
            support=self.support,
            partial_sup=None if self.partial_sup is None else tuple(
                abs(cc) * s for s in self.partial_sup),
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Observable):
            return NotImplemented
        e1, e2 = self.evaluator, other.evaluator
        g1, g2 = self.gradient, other.gradient
        sup = lip = grad = None
        if self.sup_norm is not None and other.sup_norm is not None:
            sup = self.sup_norm + other.sup_norm
        if self.lipschitz is not None and other.lipschitz is not None:
            lip = self.lipschitz + other.lipschitz
        if g1 is not None and g2 is not None:
            grad = lambda x, y, z: tuple(a + b for a, b in zip(g1(x, y, z), g2(x, y, z)))
        return Observable(
            evaluator=lambda x, y, z: e1(x, y, z) + e2(x, y, z),
            gradient=grad, sup_norm=sup, lipschitz=lip,
            name=f"{self.name}+{other.name}",
        )


def constant_observable(c=1.0, name: str = "const") -> Observable:
    cc = complex(c)
    if cc.imag == 0.0:
        cc = cc.real
    return Observable(
        evaluator=lambda x, y, z: np.full(np.shape(x), cc),
        gradient=lambda x, y, z: (np.zeros(np.shape(x)),) * 3,
        sup_norm=abs(cc),
        lipschitz=0.0,
        name=name,
    )


def flow_box_bump(center, halfwidths, amplitude: float = 1.0,
                  name: str = "bump") -> Observable:
    """Tensor bump ``amp * prod phi((w_i - c_i)/r_i)`` on a coordinate box.

    ``phi(u) = exp(1 - 1/(1 - u^2))`` for |u| < 1, zero outside, so the
    result is smooth with closed-form gradient.  The x and y offsets wrap
    around the torus, z does not.  The declared Lipschitz bound
    ``amp * max|phi'| * sqrt(sum r_i^-2)`` is spot-verified on 10^3 random
    pairs at construction.
    """
    cx, cy, cz = (float(v) for v in center)
    rx, ry, rz = (float(v) for v in halfwidths)
    if min(rx, ry, rz) <= 0.0:
        raise ValueError("halfwidths must be positive")
    if rx >= 0.5 or ry >= 0.5:
        raise ValueError("torus halfwidths must be < 1/2")
    if cz - rz < 0.0:
        raise ValueError("support must stay in z >= 0")
    amp = float(amplitude)

    def _u(x, y, z):
        return (_wrap_delta(x - cx) / rx,
                _wrap_delta(y - cy) / ry,
                (z - cz) / rz)

    def ev(x, y, z):
        ux, uy, uz = _u(x, y, z)
        return amp * _bump(ux) * _bump(uy) * _bump(uz)

    def grad(x, y, z):
        ux, uy, uz = _u(x, y, z)
        bx, by, bz = _bump(ux), _bump(uy), _bump(uz)
        return (amp / rx * _bump_deriv(ux) * by * bz,
                amp / ry * bx * _bump_deriv(uy) * bz,
                amp / rz * bx * by * _bump_deriv(uz))

    lip = abs(amp) * BUMP_DERIV_SUP * math.sqrt(rx ** -2 + ry ** -2 + rz ** -2)
    obs = Observable(
        evaluator=ev, gradient=grad, sup_norm=abs(amp), lipschitz=lip,
        name=name, support=((cx, cy, cz), (rx, ry, rz)),
        partial_sup=(abs(amp) * BUMP_DERIV_SUP / rx,
                     abs(amp) * BUMP_DERIV_SUP / ry,
                     abs(amp) * BUMP_DERIV_SUP / rz),
    )
    worst = verify_lipschitz(obs, seed=0, n_pairs=1000)
    if worst > lip * 1.01:
        raise ValueError(f"declared Lipschitz bound {lip} exceeded: sampled {worst}")
    return obs


def verify_lipschitz(obs: Observable, seed: int = 0, n_pairs: int = 1000) -> float:
    """Largest sampled slope |psi(p) - psi(q)| / d(p, q) over random pairs.

    Pairs are drawn from a 20%-inflated support box when one is declared
    (half of them at small separations to probe local slopes); distance
    wraps the x and y offsets.
    """
    rng = spawn_rng(seed, 17)
    if obs.support is not None:
        (cx, cy, cz), (rx, ry, rz) = obs.support
        lo = np.array([cx - 1.2 * rx, cy - 1.2 * ry, max(0.0, cz - 1.2 * rz)])
        hi = np.array([cx + 1.2 * rx, cy + 1.2 * ry, cz + 1.2 * rz])
    else:
        lo = np.zeros(3)
        hi = np.ones(3)
    span = (hi - lo)[:, None]
    p = lo[:, None] + span * rng.random((3, n_pairs))
    q = lo[:, None] + span * rng.random((3, n_pairs))
    half = n_pairs // 2
    q[:, :half] = p[:, :half] + (rng.random((3, half)) - 0.5) * (1e-3 * span)
    dx, dy, dz = p - q
    dist = np.sqrt(_wrap_delta(dx) ** 2 + _wrap_delta(dy) ** 2 + dz ** 2)
    ok = dist > 0.0
    slopes = np.abs(obs(*p) - obs(*q))[ok] / dist[ok]
    return float(slopes.max()) if slopes.size else 0.0


# ---------------------------------------------------------------------------
# transfer operator and resolvent
# ---------------------------------------------------------------------------


def transfer_apply(flow, psi: Observable, t) -> Observable:
    """``L_t psi``: psi composed with the time-(-t) flow, evaluated lazily."""
    t = float(t)
    if t < 0.0:
        raise ValueError("t >= 0 required")

    def ev(x, y, z):
        shp = np.shape(x)
        x1 = np.atleast_1d(np.asarray(x, dtype=float)).ravel() % 1.0
        y1 = np.atleast_1d(np.asarray(y, dtype=float)).ravel() % 1.0
        z1 = np.atleast_1d(np.asarray(z, dtype=float)).ravel()
        pid = flow.base.piece_of_arrays(x1, y1)
        bx, by, bz, _ = flow.backward_arrays(x1, y1, z1, pid, t)
        return np.asarray(psi(bx, by, bz)).reshape(shp)

    return Observable(evaluator=ev, sup_norm=psi.sup_norm,
                      name=f"L[{t}]({psi.name})")


@dataclass(frozen=True)
class ResolventParams:
    """Laplace-transform quadrature parameters for ``z = a + ib``, a > 0.

    ``rule`` is "gauss" (composite Gauss-Legendre on unit panels) or
    "trapezoid"; ``nodes_per_unit`` sets the density.  ``t_max`` overrides
    the default horizon ``(n log 41 + 40)/a``, which keeps the regularized
    Gamma tail near ``e^-40`` for moderate powers.  ``tolerance`` is the
    requested total error budget; a declared tail at or above it fails fast.
    """

    a: float
    b: float = 0.0
    rule: str = "gauss"
    nodes_per_unit: int = 64
    t_max: Optional[float] = None
    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("a > 0 required")
        if self.rule not in ("gauss", "trapezoid"):
            raise ValueError('rule must be "gauss" or "trapezoid"')
        if self.nodes_per_unit < 2:
            raise ValueError("nodes_per_unit >= 2 required")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance > 0 required")
        if self.t_max is not None and not self.t_max > 0.0:
            raise ValueError("t_max > 0 required")

    @property
    def z(self) -> complex:
        return complex(self.a, self.b)

    def horizon(self, n: int = 1) -> float:
        if self.t_max is not None:
            return float(self.t_max)
        return (n * math.log(41.0) + 40.0) / self.a

    def tail_bound(self, sup_norm: float, n: int = 1) -> float:
        """|truncation tail| <= Q(n, a T) * sup / a^n (regularized Gamma Q)."""
        return float(gammaincc(n, self.a * self.horizon(n))) * sup_norm / self.a ** n


@dataclass(frozen=True)
class ResolventValue:
    """Quadrature value(s) with the recorded error budget; arrays for a batch."""

    value: complex
    tail_bound: float
    rule_error: float
    t_max: float
    n_nodes: int

    @property
    def error_budget(self) -> float:
        return self.tail_bound + self.rule_error


@lru_cache(maxsize=64)
def _rule_nodes(rule: str, t_max: float, nodes_per_unit: int):
    """Nodes and weights on [0, t_max]; cached, so returned read-only."""
    if rule == "gauss":
        ts, ws = composite_panels(t_max, nodes_per_unit)
    else:
        m = max(2, int(math.ceil(t_max * nodes_per_unit)) + 1)
        ts = np.linspace(0.0, t_max, m)
        ws = np.full(m, ts[1] - ts[0])
        ws[0] *= 0.5
        ws[-1] *= 0.5
    for arr in (ts, ws):
        arr.setflags(write=False)
    return ts, ws


def cabs(v):
    """|v| as hypot, like Python's complex abs (np.abs may differ in the last bit)."""
    return np.hypot(v.real, v.imag)


def resolvent_power_points(flow, psi: Observable, params: ResolventParams,
                           n: int, points) -> ResolventValue:
    """``R(z)^n psi`` at a batch of points, with an explicit error budget.

    One quadrature with kernel ``t^(n-1) e^{-zt} / (n-1)!`` along the
    backward orbit of each point.  The value is computed at twice the
    requested node density; the difference from the requested-density rule
    is recorded as the rule error, a conservative estimate for the reported
    value.  Jump times of ``t -> psi(T_{-t} w)`` are not refined; the
    density comparison absorbs them into the budget.

    ``points`` is a FlowPointBatch or coordinate arrays ``(x, y, z)``
    checked like ``flow.flow_point``; ``value`` and ``rule_error`` are
    arrays aligned with them.  A point's value does not depend on the batch.
    """
    if n != int(n) or int(n) < 1:
        raise ValueError("n must be an integer >= 1")
    n = int(n)
    if n > 64:
        raise ValueError("n <= 64 supported")
    if psi.sup_norm is None:
        raise ValueError("psi.sup_norm must be declared for the tail budget")
    tail = params.tail_bound(psi.sup_norm, n)
    if tail >= params.tolerance:
        raise ToleranceNotMet(
            f"tail bound {tail:.3e} >= tolerance {params.tolerance:.3e}")
    t_max = params.horizon(n)
    tq, wq = _rule_nodes(params.rule, t_max, params.nodes_per_unit)
    tr_, wr = _rule_nodes(params.rule, t_max, 2 * params.nodes_per_unit)
    if not isinstance(points, FlowPointBatch):
        points = flow.flow_points(*points)
    ts = np.concatenate([tq, tr_])
    order = np.argsort(ts, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    kern = np.exp(-params.z * ts)
    if n > 1:
        kern = kern * ts ** (n - 1) / math.factorial(n - 1)
    value = np.empty(len(points), dtype=complex)
    rule_error = np.empty(len(points))
    block = max(1, _BLOCK_ELEMENTS // len(ts))
    for lo in range(0, len(points), block):
        b = slice(lo, lo + block)
        ox, oy, oz, _ = flow.backward_orbit_eval(
            points.x[b], points.y[b], points.z[b], points.piece_id[b], ts[order])
        weighted = kern * np.asarray(psi(ox, oy, oz))[:, rank]
        # contiguous rows keep NumPy's pairwise summation, as for one orbit
        requested = np.sum(np.ascontiguousarray(wq * weighted[:, :len(tq)]), axis=1)
        refined = np.sum(np.ascontiguousarray(wr * weighted[:, len(tq):]), axis=1)
        value[b] = refined
        rule_error[b] = cabs(refined - requested)
    out = ResolventValue(value=value, tail_bound=tail, rule_error=rule_error,
                         t_max=t_max, n_nodes=len(tr_))
    over = out.error_budget > params.tolerance
    if np.any(over):
        i = int(np.argmax(over))
        raise ToleranceNotMet(
            f"budget {out.error_budget[i]:.3e} (tail {tail:.3e} + rule "
            f"{rule_error[i]:.3e}) > tolerance {params.tolerance:.3e}")
    return out


def resolvent_power_detailed(flow, psi: Observable, params: ResolventParams,
                             n: int, w) -> ResolventValue:
    """``R(z)^n psi`` at the point w: resolvent_power_points on a batch of one."""
    if isinstance(w, FlowPoint):
        pts = FlowPointBatch(*(np.array([v]) for v in (w.x, w.y, w.z, w.piece_id)))
    else:
        pts = tuple(np.array([float(v)]) for v in w)
    rv = resolvent_power_points(flow, psi, params, n, pts)
    return replace(rv, value=complex(rv.value[0]),
                   rule_error=float(rv.rule_error[0]))


def resolvent_apply(flow, psi: Observable, params: ResolventParams, w) -> complex:
    """``R(z) psi`` at w: the Laplace transform of ``t -> L_t psi (w)``."""
    return resolvent_power_detailed(flow, psi, params, 1, w).value


def resolvent_power(flow, psi: Observable, params: ResolventParams, n: int, w) -> complex:
    return resolvent_power_detailed(flow, psi, params, n, w).value


def resolvent_observable(flow, psi: Observable, params: ResolventParams,
                         n: int = 1) -> Observable:
    """``R(z)^n psi`` as an Observable; a call is one resolvent_power_points batch."""
    def ev(x, y, z):
        pts = (np.ravel(x), np.ravel(y), np.ravel(z))
        return resolvent_power_points(flow, psi, params, n, pts).value.reshape(np.shape(x))

    sup = None if psi.sup_norm is None else psi.sup_norm / params.a ** n
    return Observable(evaluator=ev, sup_norm=sup, name=f"R^{n}({psi.name})")


def write_resolvent_csv(path, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["point_id", "a", "b", "n", "value_re", "value_im",
                     "error_budget"])
        for r in rows:
            wr.writerow([r["point_id"], _fmt(r["a"]), _fmt(r["b"]), r["n"],
                         _fmt(r["value_re"]), _fmt(r["value_im"]),
                         _fmt(r["error_budget"])])


# ---------------------------------------------------------------------------
# Ulam discretization
# ---------------------------------------------------------------------------


@dataclass
class UlamModel:
    """Finite Markov surrogate of the time-t map on a roof-shaped grid.

    States are the cells of an (n_x, n_y, n_z) box grid over
    ``[0,1)^2 x [0, tau_max)`` that carry volume below the roof; rows are
    per-cell Monte Carlo transition frequencies (each row sums to one).
    """

    partition: tuple
    t: float
    states: np.ndarray
    matrix: sp.csr_matrix
    volumes: np.ndarray
    eigenvalues: np.ndarray
    leading: complex
    second_modulus: float
    samples_per_cell: int
    seed: int
    n_dropped: int
    n_starved: int
    min_row_samples: int
    row_sum_error: float

    @property
    def n_states(self) -> int:
        return len(self.states)

    def stationary_residual(self) -> float:
        """l1 distance between v P and v for the cell-volume vector v."""
        v = self.volumes / self.volumes.sum()
        return float(np.abs(v @ self.matrix - v).sum())

    def to_json_dict(self) -> dict:
        return {
            "partition": [int(d) for d in self.partition],
            "t": float(self.t),
            "n_states": int(self.n_states),
            "n_dropped": int(self.n_dropped),
            "n_starved": int(self.n_starved),
            "min_row_samples": int(self.min_row_samples),
            "samples_per_cell": int(self.samples_per_cell),
            "seed": int(self.seed),
            "leading_re": float(self.leading.real),
            "leading_im": float(self.leading.imag),
            "second_modulus": float(self.second_modulus),
            "row_sum_error": float(self.row_sum_error),
            "eigen_moduli": [float(abs(v)) for v in self.eigenvalues],
            "stationary_residual": float(self.stationary_residual()),
        }


def _column_roof_max(flow, nx: int, ny: int) -> np.ndarray:
    """Max of the roof over each (x, y) grid rectangle.

    Exact per-piece quadratic extrema when the base map and roof expose
    rational pieces; otherwise a dense probe with 2% headroom (cells kept
    by the headroom but carrying no volume are dropped at sampling time).
    """
    out = np.empty((nx, ny))
    base, roof = flow.base, flow.roof
    if hasattr(roof, "coeffs") and hasattr(base, "pieces"):
        polys = [p.polygon for p in base.pieces]
        for i in range(nx):
            x0, x1 = Fraction(i, nx), Fraction(i + 1, nx)
            for j in range(ny):
                rect = pg.rect_polygon(x0, x1, Fraction(j, ny), Fraction(j + 1, ny))
                best = None
                for cf, poly in zip(roof.coeffs, polys):
                    inter = pg.clip_convex(rect, poly)
                    if len(inter) >= 3:
                        _, _, mx, _ = pg.quadratic_extrema_over_polygon(cf, inter)
                        best = mx if best is None else max(best, mx)
                out[i, j] = float(best)
        return out
    g = 24
    off = (np.arange(g) + 0.5) / g
    gx, gy = np.meshgrid(off, off, indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    for i in range(nx):
        for j in range(ny):
            x = (i + gx) / nx
            y = (j + gy) / ny
            pid = base.piece_of_arrays(x, y)
            out[i, j] = float(flow.roof.tau_arrays(x, y, pid).max())
    return out * 1.02


def ulam_build(flow, t, partition, samples_per_cell: int, seed: int) -> UlamModel:
    """Row-stochastic transition matrix of the time-t map by per-cell MC.

    Cells entirely above the roof are dropped from the state space.  Kept
    cells draw ``samples_per_cell`` points below the roof by rejection; a
    cell that yields no point within the draw cap is treated as carrying no
    volume and dropped too (counted in ``n_dropped``), one that yields some
    but not all keeps its reduced row (counted in ``n_starved``).
    EmptyCell is raised only if mass is mapped into a dropped cell.
    Per-cell counter-based streams make the result depend only on ``seed``.
    """
    t = float(t)
    nx, ny, nz = (int(d) for d in partition)
    if min(nx, ny, nz) < 1:
        raise ValueError("partition dimensions must be >= 1")
    if t < flow.tau_minus / 2.0:
        raise ValueError("t >= tau_minus / 2 required")
    samples_per_cell = int(samples_per_cell)
    if samples_per_cell < 100:
        raise ValueError("samples_per_cell >= 100 required")

    col_max = _column_roof_max(flow, nx, ny)
    dz = flow.tau_max / nz
    zlow = np.arange(nz) * dz
    candidates = [(i, j, k) for i in range(nx) for j in range(ny)
                  for k in range(nz) if col_max[i, j] > zlow[k]]
    n_dropped = nx * ny * nz - len(candidates)

    box_vol = (1.0 / nx) * (1.0 / ny) * dz
    cap = 256 * samples_per_cell
    kept = []
    row_counts = []
    volumes = []
    sx, sy, sz, spid = [], [], [], []
    n_starved = 0
    for (i, j, k) in candidates:
        rng = spawn_rng(seed, 1, (i * ny + j) * nz + k)
        got = 0
        drawn = 0
        acc_total = 0
        cx, cy, cz, cp = [], [], [], []
        while got < samples_per_cell and drawn < cap:
            m = max(256, samples_per_cell)
            u = rng.random((3, m))
            x = (i + u[0]) / nx
            y = (j + u[1]) / ny
            z = zlow[k] + u[2] * dz
            pid = flow.base.piece_of_arrays(x, y)
            tau = flow.roof.tau_arrays(x, y, pid)
            acc = z < tau
            drawn += m
            acc_total += int(acc.sum())
            take = min(int(acc.sum()), samples_per_cell - got)
            if take > 0:
                cx.append(x[acc][:take])
                cy.append(y[acc][:take])
                cz.append(z[acc][:take])
                cp.append(pid[acc][:take])
                got += take
        if got == 0:
            n_dropped += 1
            continue
        if got < samples_per_cell:
            n_starved += 1
        kept.append((i, j, k))
        row_counts.append(got)
        volumes.append(box_vol * acc_total / drawn)
        sx.append(np.concatenate(cx))
        sy.append(np.concatenate(cy))
        sz.append(np.concatenate(cz))
        spid.append(np.concatenate(cp))

    states = np.array(kept, dtype=np.int64).reshape(-1, 3)
    n_states = len(states)
    if n_states == 0:
        raise EmptyCell("no cell carries volume below the roof")
    idx3 = -np.ones((nx, ny, nz), dtype=np.int64)
    idx3[states[:, 0], states[:, 1], states[:, 2]] = np.arange(n_states)
    row_counts = np.array(row_counts, dtype=np.int64)

    fx, fy, fz, fpid = flow.forward_arrays(
        np.concatenate(sx), np.concatenate(sy), np.concatenate(sz),
        np.concatenate(spid), t)
    di = np.minimum((fx * nx).astype(np.int64), nx - 1)
    dj = np.minimum((fy * ny).astype(np.int64), ny - 1)
    dk = np.minimum((fz / dz).astype(np.int64), nz - 1)
    dest = idx3[di, dj, dk]
    if np.any(dest < 0):
        bad = np.nonzero(dest < 0)[0][0]
        raise EmptyCell(
            f"mass mapped into dropped cell ({di[bad]}, {dj[bad]}, {dk[bad]})")
    rows = np.repeat(np.arange(n_states), row_counts)
    data = np.repeat(1.0 / row_counts, row_counts)
    matrix = sp.coo_matrix((data, (rows, dest)),
                           shape=(n_states, n_states)).tocsr()
    row_sum_error = float(np.abs(np.asarray(matrix.sum(axis=1)).ravel() - 1.0).max())

    if n_states <= 600:
        eigvals = np.linalg.eigvals(matrix.toarray())
    else:
        k = min(6, n_states - 2)
        eigvals = spla.eigs(matrix, k=k, v0=np.ones(n_states), which="LM",
                            maxiter=50_000, return_eigenvectors=False)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    eigvals = eigvals[order][: min(8, len(eigvals))]
    leading = complex(eigvals[0])
    second_modulus = float(np.abs(eigvals[1])) if len(eigvals) > 1 else 0.0

    return UlamModel(
        partition=(nx, ny, nz), t=t, states=states, matrix=matrix,
        volumes=np.array(volumes), eigenvalues=eigvals, leading=leading,
        second_modulus=second_modulus, samples_per_cell=samples_per_cell,
        seed=int(seed), n_dropped=n_dropped, n_starved=n_starved,
        min_row_samples=int(row_counts.min()), row_sum_error=row_sum_error,
    )


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


@dataclass
class DecayFit:
    """Envelope decay fit: |C(t)| <~ k_hat * exp(-sigma_hat t)."""

    sigma_hat: float
    k_hat: float
    ci_low: float
    ci_high: float
    n_used: int
    n_boot: int
    seed: int


@dataclass
class CorrelationSeries:
    """Correlation estimates on a time grid with batched standard errors."""

    t: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int
    n_batches: int
    psi1_name: str = ""
    psi2_name: str = ""
    fit: Optional[DecayFit] = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# n_samples={self.n_samples} seed={self.seed} "
                     f"n_batches={self.n_batches} psi1={self.psi1_name} "
                     f"psi2={self.psi2_name}\n")
            wr = csv.writer(fh)
            wr.writerow(["t", "C_re", "C_im", "stderr"])
            for i in range(len(self.t)):
                wr.writerow([_fmt(self.t[i]), _fmt(self.values[i].real),
                             _fmt(self.values[i].imag), _fmt(self.stderr[i])])

    @classmethod
    def from_csv(cls, path) -> "CorrelationSeries":
        meta = {}
        rows = []
        with open(path, newline="") as fh:
            for line in fh:
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if "=" in tok:
                            key, val = tok.split("=", 1)
                            meta[key] = val
                    continue
                rows.append(line)
        rd = csv.reader(rows)
        header = next(rd)
        if header[:4] != ["t", "C_re", "C_im", "stderr"]:
            raise ValueError("unrecognized correlation CSV header")
        data = np.array([[float(v) for v in row] for row in rd])
        return cls(
            t=data[:, 0], values=data[:, 1] + 1j * data[:, 2],
            stderr=data[:, 3],
            n_samples=int(meta.get("n_samples", 0)),
            seed=int(meta.get("seed", 0)),
            n_batches=int(meta.get("n_batches", 0)),
            psi1_name=meta.get("psi1", ""), psi2_name=meta.get("psi2", ""),
        )


def correlation(flow, psi1: Observable, psi2: Observable, t_grid, n_samples: int,
                seed: int, n_batches: int = 64) -> CorrelationSeries:
    """Covariance of psi1 with psi2 advanced by each grid time.

    One seeded invariant sample set is shared across the grid (common random
    numbers); the evolving copy advances through the sorted times.  The
    estimate at each time is the mean of per-batch covariances over
    contiguous sample blocks, the standard error their spread.  Results
    depend only on ``(seed, n_samples)``.
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(t_grid)) or np.any(t_grid < 0):
        raise ValueError("t_grid times must be finite and >= 0")
    n = int(n_samples)
    if n < 2:
        raise ValueError("n_samples >= 2 required")
    n_batches = max(1, min(int(n_batches), n))

    batch = flow.sample_invariant(seed, n)
    v1 = psi1.values(batch)
    bounds = (np.arange(n_batches, dtype=np.int64) * n) // n_batches
    sizes = np.diff(np.append(bounds, n))
    m1 = np.add.reduceat(v1, bounds) / sizes

    values = np.empty(t_grid.size, dtype=complex)
    errors = np.empty(t_grid.size)
    cx, cy = batch.x.copy(), batch.y.copy()
    cz, cp = batch.z.copy(), batch.piece_id.copy()
    t_prev = 0.0
    for oi in np.argsort(t_grid, kind="stable"):
        step = t_grid[oi] - t_prev
        if step > 0.0:
            cx, cy, cz, cp = flow.forward_arrays(cx, cy, cz, cp, step)
            t_prev = t_grid[oi]
        v2 = psi2(cx, cy, cz)
        m2 = np.add.reduceat(v2, bounds) / sizes
        m12 = np.add.reduceat(v1 * v2, bounds) / sizes
        cb = m12 - m1 * m2
        values[oi] = cb.mean()
        if n_batches > 1:
            var = np.real(cb).var(ddof=1) + np.imag(cb).var(ddof=1)
            errors[oi] = math.sqrt(var / n_batches)
        else:
            errors[oi] = 0.0
        if errors[oi] == 0.0:
            errors[oi] = np.finfo(float).tiny  # reported errors stay positive
    return CorrelationSeries(
        t=t_grid.copy(), values=values, stderr=errors, n_samples=n,
        seed=int(seed), n_batches=n_batches,
        psi1_name=psi1.name, psi2_name=psi2.name,
    )


def _envelope_wls(t, c, se, min_points):
    """Weighted LS of the log right-running-max envelope; None if starved."""
    absc = np.abs(c)
    keep = absc >= 3.0 * se
    n_used = int(keep.sum())
    if n_used < min_points:
        return None
    tk, ck, sk = t[keep], absc[keep], se[keep]
    env = np.maximum.accumulate(ck[::-1])[::-1]
    w = ck / sk  # sqrt of the inverse variance of log of the point
    design = np.stack([np.ones_like(tk), tk], axis=1) * w[:, None]
    coef, *_ = np.linalg.lstsq(design, np.log(env) * w, rcond=None)
    return float(-coef[1]), float(math.exp(coef[0])), n_used


def fit_decay(series: CorrelationSeries, seed: int = 0, n_boot: int = 1000,
              min_points: int = 8) -> DecayFit:
    """Decay rate of the envelope of |C(t)| with a bootstrap CI.

    Points below three standard errors are excluded; the right-running
    maximum of the rest is fitted log-linearly with weights (|C|/stderr)^2.
    The CI comes from ``n_boot`` parametric resamples (values jittered by
    their stderr, mask and envelope recomputed).  Raises NoiseFloor when
    fewer than ``min_points`` usable points remain.
    """
    t = np.asarray(series.t, dtype=float)
    c = np.asarray(series.values)
    se = np.asarray(series.stderr, dtype=float)
    order = np.argsort(t, kind="stable")
    t, c, se = t[order], c[order], se[order]
    base = _envelope_wls(t, c, se, min_points)
    if base is None:
        raise NoiseFloor(f"fewer than {min_points} points above 3*stderr")
    sigma, k_hat, n_used = base
    rng = spawn_rng(seed, 23)
    draws = []
    complex_data = np.iscomplexobj(c)
    for _ in range(int(n_boot)):
        if complex_data:
            jitter = (rng.standard_normal(c.size)
                      + 1j * rng.standard_normal(c.size)) * (se / math.sqrt(2.0))
        else:
            jitter = rng.standard_normal(c.size) * se
        out = _envelope_wls(t, c + jitter, se, min_points)
        if out is not None:
            draws.append(out[0])
    if len(draws) < int(n_boot) // 2:
        raise NoiseFloor("bootstrap resamples mostly below the noise floor")
    lo, hi = np.percentile(draws, [2.5, 97.5])
    fit = DecayFit(sigma_hat=float(sigma), k_hat=float(k_hat),
                   ci_low=float(lo), ci_high=float(hi), n_used=int(n_used),
                   n_boot=int(n_boot), seed=int(seed))
    series.fit = fit
    return fit
