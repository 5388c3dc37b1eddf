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
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from . import _polygon as pg
from ._quadrature import bump, composite_panels, fmt17, wrap_delta
from ._rng import spawn_rng
from .errors import EmptyCell, NoiseFloor, ToleranceNotMet
from .flow import FlowPoint, FlowPointBatch

if TYPE_CHECKING:
    import scipy.sparse as sp

# sup of |d/du exp(1 - 1/(1 - u^2))|, attained at u = 3^(-1/4); rounded up in
# the last digit so declared partial_sup bounds stay true upper bounds.
BUMP_DERIV_SUP = 2.1703571

# orbit x node elements per block of resolvent_power_points (peak memory)
_BLOCK_ELEMENTS = 2 ** 16


def _bump_deriv(u):
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    s = 1.0 - u[m] ** 2
    out[m] = np.exp(1.0 - 1.0 / s) * (-2.0 * u[m]) / (s * s)
    return out


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass
class Observable:
    """A scalar function on the phase space with declared norm metadata.

    The evaluator must be pure and vectorized: it receives coordinate arrays
    ``(x, y, z)`` of a common shape and returns an array of values (real or
    complex).  ``sup_norm`` and ``partial_sup`` (bounds on the three partial
    derivatives) are declared bounds consumed by quadrature budgets and
    tests; they are never inferred silently.
    """

    evaluator: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    gradient: Optional[Callable[..., tuple]] = None
    sup_norm: Optional[float] = None
    name: str = ""
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
            name=f"({c})*{self.name}" if self.name else "",
            partial_sup=None if self.partial_sup is None else tuple(
                abs(cc) * s for s in self.partial_sup),
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Observable):
            return NotImplemented
        e1, e2 = self.evaluator, other.evaluator
        g1, g2 = self.gradient, other.gradient
        sup = grad = None
        if self.sup_norm is not None and other.sup_norm is not None:
            sup = self.sup_norm + other.sup_norm
        if g1 is not None and g2 is not None:
            grad = lambda x, y, z: tuple(a + b for a, b in zip(g1(x, y, z), g2(x, y, z)))
        return Observable(
            evaluator=lambda x, y, z: e1(x, y, z) + e2(x, y, z),
            gradient=grad, sup_norm=sup,
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
        name=name,
    )


def flow_box_bump(center, halfwidths, amplitude: float = 1.0,
                  name: str = "bump") -> Observable:
    """Tensor bump ``amp * prod phi((w_i - c_i)/r_i)`` on a coordinate box.

    ``phi(u) = exp(1 - 1/(1 - u^2))`` for |u| < 1, zero outside, so the
    result is smooth with closed-form gradient.  The x and y offsets wrap
    around the torus, z does not.  Values are computed only at points inside
    the z-support; elsewhere they are the zero amp * 0 gives, signed like
    amp.  The declared partial derivative bounds are ``amp * max|phi'| / r_i``.
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
    if not math.isfinite(amp):
        raise ValueError("amplitude must be finite")
    zero = math.copysign(0.0, amp)

    def _u(x, y, z):
        return (wrap_delta(x - cx) / rx,
                wrap_delta(y - cy) / ry,
                (z - cz) / rz)

    def ev(x, y, z):
        x, y, z = np.broadcast_arrays(x, y, z)
        out = np.full(z.shape, zero)
        inside = np.flatnonzero(np.abs((z - cz) / rz) < 1.0)  # bump's |u| < 1 test
        ux, uy, uz = _u(*(np.ravel(v)[inside] for v in (x, y, z)))
        out.flat[inside] = amp * bump(ux) * bump(uy) * bump(uz)
        return out

    def grad(x, y, z):
        ux, uy, uz = _u(x, y, z)
        bx, by, bz = bump(ux), bump(uy), bump(uz)
        return (amp / rx * _bump_deriv(ux) * by * bz,
                amp / ry * bx * _bump_deriv(uy) * bz,
                amp / rz * bx * by * _bump_deriv(uz))

    return Observable(
        evaluator=ev, gradient=grad, sup_norm=abs(amp), name=name,
        partial_sup=(abs(amp) * BUMP_DERIV_SUP / rx,
                     abs(amp) * BUMP_DERIV_SUP / ry,
                     abs(amp) * BUMP_DERIV_SUP / rz),
    )


# ---------------------------------------------------------------------------
# transfer operator and resolvent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolventParams:
    """Laplace-transform quadrature parameters for ``z = a + ib``, a > 0.

    The rule is composite Gauss-Legendre on unit panels;
    ``nodes_per_unit`` sets the density.  ``t_max`` overrides
    the default horizon ``(n log 41 + 40)/a``, which keeps the regularized
    Gamma tail near ``e^-40`` for moderate powers.  ``tolerance`` is the
    requested total error budget; a declared tail at or above it fails fast.
    """

    a: float
    b: float = 0.0
    nodes_per_unit: int = 64
    t_max: Optional[float] = None
    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("a > 0 required")
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
        from scipy.special import gammaincc

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
def _rule_nodes(t_max: float, nodes_per_unit: int):
    """Gauss nodes and weights on [0, t_max]; cached, so returned read-only."""
    ts, ws = composite_panels(t_max, nodes_per_unit)
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
    tq, wq = _rule_nodes(t_max, params.nodes_per_unit)
    tr_, wr = _rule_nodes(t_max, 2 * params.nodes_per_unit)
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
            wr.writerow([r["point_id"], fmt17(r["a"]), fmt17(r["b"]), r["n"],
                         fmt17(r["value_re"]), fmt17(r["value_im"]),
                         fmt17(r["error_budget"])])


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

    @property
    def n_states(self) -> int:
        return len(self.states)

    def stationary_residual(self) -> float:
        """l1 distance between v P and v for the cell-volume vector v."""
        v = self.volumes / self.volumes.sum()
        return float(np.abs(v @ self.matrix - v).sum())


def _column_roof_max(flow, nx: int, ny: int) -> np.ndarray:
    """Max of the roof over each (x, y) grid rectangle.

    Exact per-piece quadratic extrema when the base map and roof expose
    rational pieces (clip_convex settles a rectangle wholly inside or
    outside a piece from its corner signs); otherwise a dense probe with 2%
    headroom (cells kept by the headroom but carrying no volume are dropped
    at sampling time).
    """
    out = np.empty((nx, ny))
    base, roof = flow.base, flow.roof
    # exact clipping needs rational pieces; perfbench benchmarks both branches
    if hasattr(roof, "coeffs") and hasattr(base, "pieces"):
        for i in range(nx):
            for j in range(ny):
                rect = pg.grid_rect(i, j, nx, ny)
                best = None
                for cf, piece in zip(roof.coeffs, base.pieces):
                    inter = pg.clip_convex(rect, piece.polygon)
                    if len(inter) >= 3:
                        _, mx = pg.quadratic_extrema_over_polygon(cf, inter)
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


def _sample_cells(flow, cells: np.ndarray, partition, samples_per_cell: int,
                  seed: int, t: float):
    """Rejection samples below the roof in each cell (i, j, k) of cells,
    moved to time t and binned to the cell they land in.

    Cell c draws from its own stream spawn_rng(seed, 1, c's flat index), in
    rounds of max(256, samples_per_cell) points, until it holds
    samples_per_cell points or has drawn 256 * samples_per_cell.  Each round
    serves a pool of cells holding at most _BLOCK_ELEMENTS points, with one
    piece lookup and one roof evaluation; the pool refills in cell order as
    cells finish.  Kept points gather in a buffer.  Once it holds
    _BLOCK_ELEMENTS points, and once more at the end, flow._advance moves
    them to time t, half a block per call, and each lands in the flat index
    (i * ny + j) * nz + k of its destination cell.  _advance moves each
    point by its own values alone, so the destinations are those of one
    _advance call on every kept point, whatever the slices.
    Returns per-cell (kept, accepted, drawn) counts and a
    (cells x samples_per_cell) array whose row holds the destinations of
    the cell's kept points in (round, draw) order; unfilled slots hold
    nx * ny * nz.  The ids are int32 when nx * ny * nz fits.
    """
    nx, ny, nz = partition
    dz = flow.tau_max / nz
    zlow = np.arange(nz) * dz
    m = max(256, samples_per_cell)
    cap = 256 * samples_per_cell
    n = len(cells)
    got = np.zeros(n, dtype=np.int64)
    accepted = np.zeros_like(got)
    drawn = np.zeros_like(got)
    ids = np.int32 if nx * ny * nz < np.iinfo(np.int32).max else np.int64
    dest = np.full((n, samples_per_cell), nx * ny * nz, dtype=ids)
    pool = max(1, _BLOCK_ELEMENTS // m)
    # the buffer: x, y, z, roof and piece of each kept point, and its slot
    # cell * samples_per_cell + rank in dest; a round adds at most pool * m
    room = _BLOCK_ELEMENTS + pool * m
    buf = [np.empty(room) for _ in range(4)]
    buf += [np.empty(room, dtype=np.int64) for _ in range(2)]
    held = 0

    def flush():
        # half a block per call keeps _advance's temporaries (about 110 bytes
        # a point) below a sampler round's (about 90 bytes a drawn point)
        for lo in range(0, held, _BLOCK_ELEMENTS // 2):
            x, y, z, tau, pid, slot = (b[lo:min(held, lo + _BLOCK_ELEMENTS // 2)]
                                       for b in buf)
            flow._advance(x, y, z, pid, tau, np.full(x.size, t))  # in place
            di = np.minimum((x * nx).astype(np.int64), nx - 1)
            dj = np.minimum((y * ny).astype(np.int64), ny - 1)
            dk = np.minimum((z / dz).astype(np.int64), nz - 1)
            dest.flat[slot] = (di * ny + dj) * nz + dk

    def draw(act):
        # one round for the pool act: buffer its kept points, count its draws
        nonlocal held
        u = np.empty((act.size, 3, m))
        for row, c in zip(u, act):
            rngs[c].random(out=row)
        i, j, k = (v[:, None] for v in cells[act].T)
        x = (i + u[:, 0]) / nx
        y = (j + u[:, 1]) / ny
        z = zlow[k] + u[:, 2] * dz
        pid = flow.base.piece_of_arrays(x, y)
        tau = flow.roof.tau_arrays(x, y, pid)
        acc = z < tau
        rank = got[act][:, None] + np.cumsum(acc, axis=1)  # 1-based slot in the row
        keep = acc & (rank <= samples_per_cell)
        slot = act[:, None] * samples_per_cell + rank - 1
        end = held + int(keep.sum())
        for dst, src in zip(buf, (x, y, z, tau, pid, slot)):
            dst[held:end] = src[keep]
        held = end
        return acc.sum(axis=1)

    rngs = {}
    act = np.empty(0, dtype=np.int64)
    started = 0
    while True:
        new = np.arange(started, min(started + pool - act.size, n))
        started += new.size
        rngs.update((c, spawn_rng(seed, 1, (i * ny + j) * nz + k))
                    for c, (i, j, k) in zip(new, cells[new]))
        act = np.concatenate([act, new])
        if not act.size:
            break
        n_acc = draw(act)
        got[act] = np.minimum(got[act] + n_acc, samples_per_cell)
        accepted[act] += n_acc
        drawn[act] += m
        done = (got[act] == samples_per_cell) | (drawn[act] >= cap)
        for c in act[done]:
            del rngs[c]
        act = act[~done]
        if held >= _BLOCK_ELEMENTS:
            flush()
            held = 0
    flush()
    return got, accepted, drawn, dest


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
    cells = np.argwhere(col_max[:, :, None] > (np.arange(nz) * dz)[None, None, :])
    got, accepted, drawn, dest = _sample_cells(
        flow, cells, (nx, ny, nz), samples_per_cell, seed, t)
    kept = got > 0
    n_dropped = nx * ny * nz - int(kept.sum())
    n_starved = int((got[kept] < samples_per_cell).sum())
    box_vol = (1.0 / nx) * (1.0 / ny) * dz
    volumes = box_vol * accepted[kept] / drawn[kept]

    states = cells[kept]
    n_states = len(states)
    if n_states == 0:
        raise EmptyCell("no cell carries volume below the roof")

    # state of each flat cell index: dropped cells read -1, and the unfilled
    # slot marker nx * ny * nz reads n_states, which sorts after every state
    idx3 = np.full(nx * ny * nz + 1, -1, dtype=dest.dtype)
    idx3[(states[:, 0] * ny + states[:, 1]) * nz + states[:, 2]] = np.arange(n_states)
    idx3[-1] = n_states
    cols = idx3[dest]
    bad = np.flatnonzero(cols < 0)
    if bad.size:
        i, j, k = np.unravel_index(dest.flat[bad[0]], (nx, ny, nz))
        raise EmptyCell(f"mass mapped into dropped cell ({i}, {j}, {k})")
    del dest

    # one CSR entry per run of equal destinations in a sorted row, worth
    # 1/count added run-length times in sequence, as tocsr sums duplicates
    cols.sort(axis=1)
    flat = cols.ravel()
    starts = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::samples_per_cell] = True  # each row starts a run
    first = np.flatnonzero(starts)
    del starts
    length = np.diff(first, append=flat.size)
    filled = flat[first] < n_states
    first, length = first[filled], length[filled]
    indices = flat[first]
    row = first // samples_per_cell  # position in cells
    indptr = np.zeros(n_states + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(cells))[kept], out=indptr[1:])
    count = got[row]
    sizes = np.unique(count)
    # sums[offset + L - 1] is 1/c added L times in sequence, for each size c
    offset = np.cumsum(sizes) - sizes
    sums = np.concatenate([np.cumsum(np.full(c, 1.0 / c)) for c in sizes])
    data = sums[offset[np.searchsorted(sizes, count)] + length - 1]
    import scipy.sparse as sp

    matrix = sp.csr_matrix((data, indices, indptr), shape=(n_states, n_states))

    if n_states <= 600:
        eigvals = np.linalg.eigvals(matrix.toarray())
    else:
        import scipy.sparse.linalg as spla

        k = min(6, n_states - 2)
        eigvals = spla.eigs(matrix, k=k, v0=np.ones(n_states), which="LM",
                            maxiter=50_000, return_eigenvectors=False)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    eigvals = eigvals[order][: min(8, len(eigvals))]
    leading = complex(eigvals[0])
    second_modulus = float(np.abs(eigvals[1])) if len(eigvals) > 1 else 0.0

    return UlamModel(
        partition=(nx, ny, nz), t=t, states=states, matrix=matrix,
        volumes=volumes, eigenvalues=eigvals, leading=leading,
        second_modulus=second_modulus, samples_per_cell=samples_per_cell,
        seed=int(seed), n_dropped=n_dropped, n_starved=n_starved,
        min_row_samples=int(got[kept].min()),
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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# n_samples={self.n_samples} seed={self.seed} "
                     f"n_batches={self.n_batches} psi1={self.psi1_name} "
                     f"psi2={self.psi2_name}\n")
            wr = csv.writer(fh)
            wr.writerow(["t", "C_re", "C_im", "stderr"])
            for i in range(len(self.t)):
                wr.writerow([fmt17(self.t[i]), fmt17(self.values[i].real),
                             fmt17(self.values[i].imag), fmt17(self.stderr[i])])


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
    tau = flow.roof.tau_arrays(cx, cy, cp)  # carried: recomputed at crossings only
    t_prev = 0.0
    for oi in np.argsort(t_grid, kind="stable"):
        step = t_grid[oi] - t_prev
        if step > 0.0:
            flow._advance(cx, cy, cz, cp, tau, np.full(n, step))
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
    return DecayFit(sigma_hat=float(sigma), k_hat=float(k_hat),
                    ci_low=float(lo), ci_high=float(hi), n_used=int(n_used),
                    n_boot=int(n_boot), seed=int(seed))
