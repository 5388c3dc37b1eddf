"""Suspension flow over a piecewise affine symplectic torus map.

The standard system: the torus map with matrix [[1, 1], [1/2, 3/2]] acting on
[0,1)^2, split into four affine pieces.  The split refines the map's two
continuity triangles (above/below {x + y = 1}) along the lines where the
image's second coordinate crosses an integer ({x + 3y = 2} and {x + 3y = 3}),
so that each piece's affine formula lands directly in [0,1)^2.  That makes
the compatibility equations for the roof

    d(tau)/dx = y - f2 * d(f1)/dx,      d(tau)/dy = -f2 * d(f1)/dy

solvable per piece with f2 the actual second coordinate of the image in
[0,1), which is exactly what flowing the contact form dz - y dx through a
roof gluing requires.  The roof is then a per-piece quadratic, exact in
rational arithmetic.

Flow points live in X0 = {(x, y, z): 0 <= z < tau(x, y)}; the flow moves z at
unit speed and glues (x, y, tau(x, y)) to (map(x, y), 0).  Forward/backward
evolution is exact event stepping (no ODE solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _polygon as pg
from ._rng import DEFAULT_CHUNK, chunk_bounds, spawn_rng
from ._quadrature import gl_interval
from .errors import ClosednessViolation, NonFinite, PathDependence


# ---------------------------------------------------------------------------
# base map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One affine piece: half-open polygon domain, matrix, offset.

    offset is the true offset (image representative in [0,1)^2 a.e.);
    lift_offset is the offset of the smooth lift shared by the piece's
    group, and wrap_index = lift_offset[1] - offset[1] counts how many
    times the image's second coordinate wrapped.
    """

    name: str
    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    offset: tuple[Fraction, Fraction]
    polygon: pg.Polygon
    predicate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    group: str = ""
    lift_offset: tuple[Fraction, Fraction] | None = None

    @property
    def wrap_index(self) -> Fraction:
        if self.lift_offset is None:
            return Fraction(0)
        return self.lift_offset[1] - self.offset[1]

    @property
    def matrix_f(self) -> np.ndarray:
        return np.array([[float(self.matrix[0][0]), float(self.matrix[0][1])],
                         [float(self.matrix[1][0]), float(self.matrix[1][1])]])

    @property
    def offset_f(self) -> np.ndarray:
        return np.array([float(self.offset[0]), float(self.offset[1])])

    def det(self) -> Fraction:
        m = self.matrix
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class PiecewiseAffineTorusMap:
    """Piecewise affine symplectic torus map with derived inverse pieces."""

    def __init__(self, pieces: Sequence[Piece]):
        self.pieces = list(pieces)
        for p in self.pieces:
            if abs(p.det()) != 1:
                raise ClosednessViolation(
                    f"piece {p.name} has |det| = {p.det()} != 1; map is not symplectic"
                )
        self.image_polygons = [
            pg.affine_image(p.polygon, p.matrix, p.offset) for p in self.pieces
        ]
        m = np.stack([p.matrix_f for p in self.pieces])
        self._mats = m
        self._offs = np.stack([p.offset_f for p in self.pieces])
        self._inv_mats = np.stack([np.linalg.inv(mi) for mi in m])
        self._edges = self._collect_edges()

    # -- piece lookup -------------------------------------------------------

    def piece_of_arrays(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        pid = np.full(np.shape(x), -1, dtype=np.int64)
        for i, p in enumerate(self.pieces):
            mask = (pid < 0) & p.predicate(x, y)
            pid[mask] = i
        return pid

    def piece_of(self, x: float, y: float) -> int:
        pid = self.piece_of_arrays(np.asarray([x]), np.asarray([y]))[0]
        if pid < 0:
            raise ValueError(f"point ({x}, {y}) not claimed by any piece")
        return int(pid)

    # -- forward / inverse --------------------------------------------------

    def apply_arrays(self, x: np.ndarray, y: np.ndarray):
        """Return (x', y', piece_id) with piece_id the piece containing the
        image (so the result is a valid marked point); images in [0,1)."""
        pid = self.piece_of_arrays(x, y)
        u, v = self.lift_image_arrays(x, y, pid)
        u, v = u % 1.0, v % 1.0
        return u, v, self.piece_of_arrays(u, v)

    def lift_image_arrays(self, x, y, pid):
        """Per-piece affine image before the (measure-zero) final wrap."""
        m = self._mats[pid]
        o = self._offs[pid]
        u = m[..., 0, 0] * x + m[..., 0, 1] * y + o[..., 0]
        v = m[..., 1, 0] * x + m[..., 1, 1] * y + o[..., 1]
        return u, v

    def apply(self, x: float, y: float) -> tuple[float, float, int]:
        u, v, pid = self.apply_arrays(np.asarray([x]), np.asarray([y]))
        return float(u[0]), float(v[0]), int(pid[0])

    def apply_inverse_arrays(self, x: np.ndarray, y: np.ndarray):
        """Inverse by scanning pieces: the candidate preimage of piece i is
        valid when it satisfies piece i's own domain predicate."""
        out_x = np.full(np.shape(x), np.nan)
        out_y = np.full(np.shape(x), np.nan)
        out_p = np.full(np.shape(x), -1, dtype=np.int64)
        for tol in (0.0, 1e-12, 1e-9):
            todo = out_p < 0
            if not np.any(todo):
                break
            for i, p in enumerate(self.pieces):
                mi = self._inv_mats[i]
                cx = mi[0, 0] * (x - self._offs[i, 0]) + mi[0, 1] * (y - self._offs[i, 1])
                cy = mi[1, 0] * (x - self._offs[i, 0]) + mi[1, 1] * (y - self._offs[i, 1])
                if tol == 0.0:
                    ok = (cx >= 0.0) & (cx < 1.0) & (cy >= 0.0) & (cy < 1.0) & p.predicate(cx, cy)
                else:
                    cxc = np.clip(cx, 0.0, np.nextafter(1.0, 0.0))
                    cyc = np.clip(cy, 0.0, np.nextafter(1.0, 0.0))
                    ok = (np.abs(cxc - cx) <= tol) & (np.abs(cyc - cy) <= tol) & p.predicate(cxc, cyc)
                    cx, cy = cxc, cyc
                take = todo & ok & (out_p < 0)
                out_x[take] = cx[take]
                out_y[take] = cy[take]
                out_p[take] = i
        return out_x, out_y, out_p

    def apply_inverse(self, x: float, y: float) -> tuple[float, float, int]:
        u, v, pid = self.apply_inverse_arrays(np.asarray([x]), np.asarray([y]))
        if pid[0] < 0:
            raise ValueError(f"no inverse piece claims ({x}, {y})")
        return float(u[0]), float(v[0]), int(pid[0])

    def jacobian(self, piece_id: int) -> np.ndarray:
        return self._mats[piece_id].copy()

    def piece_matrices(self) -> list[np.ndarray]:
        return [p.matrix_f for p in self.pieces]

    def sample_jacobians(self) -> list[np.ndarray]:
        return self.piece_matrices()

    # -- geometry helpers ---------------------------------------------------

    def _collect_edges(self) -> np.ndarray:
        segs = []
        for p in self.pieces:
            poly = p.polygon
            for i in range(len(poly)):
                a, b = poly[i], poly[(i + 1) % len(poly)]
                segs.append([float(a[0]), float(a[1]), float(b[0]), float(b[1])])
        return np.array(segs)

    def map_discontinuity_segments(self) -> list[tuple[tuple[float, float], tuple[float, float], str]]:
        """Discontinuities of the torus map itself (not of its lift)."""
        return [((1.0, 0.0), (0.0, 1.0), "antidiagonal")]

    def distance_to_boundary_arrays(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Planar distance to the nearest piece-boundary segment."""
        d = np.full(np.shape(x), np.inf)
        for x0, y0, x1, y1 in self._edges:
            ex, ey = x1 - x0, y1 - y0
            ll = ex * ex + ey * ey
            t = np.clip(((x - x0) * ex + (y - y0) * ey) / ll, 0.0, 1.0)
            dd = np.hypot(x - (x0 + t * ex), y - (y0 + t * ey))
            np.minimum(d, dd, out=d)
        return d

    # -- config -------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "pieces": [
                {
                    "name": p.name,
                    "group": p.group or p.name,
                    "matrix": [[str(v) for v in row] for row in p.matrix],
                    "offset": [str(v) for v in p.offset],
                    "wrap_index": str(p.wrap_index),
                    "polygon": [[str(c) for c in v] for v in p.polygon],
                }
                for p in self.pieces
            ]
        }


def _standard_predicates(eps_own: float = 0.0):
    """Membership tests for the four standard pieces (half-open, total)."""

    def p1a(x, y):
        return (x + y <= 1.0) & (x + 3.0 * y < 2.0)

    def p1b(x, y):
        return (x + y <= 1.0) & (x + 3.0 * y >= 2.0)

    def p2a(x, y):
        return (x + y > 1.0) & (x + 3.0 * y < 3.0)

    def p2b(x, y):
        return (x + y > 1.0) & (x + 3.0 * y >= 3.0)

    return [p1a, p1b, p2a, p2b]


def standard_map() -> PiecewiseAffineTorusMap:
    """The standard four-piece map with matrix [[1,1],[1/2,3/2]].

    Piece 1 (below the antidiagonal, owned boundary) is split along
    {x + 3y = 2}, piece 2 along {x + 3y = 3}; the sub-pieces beyond those
    lines (names ending in b) have the image's second coordinate wrapped
    once, absorbed into the offset.
    """
    h = Fraction(1, 2)
    mat = ((Fraction(1), Fraction(1)), (h, Fraction(3, 2)))
    preds = _standard_predicates()
    pieces = [
        Piece(
            name="1a", matrix=mat, offset=(Fraction(0), Fraction(0)),
            polygon=pg.polygon([(0, 0), (1, 0), (h, h), (0, Fraction(2, 3))]),
            predicate=preds[0], group="1", lift_offset=(Fraction(0), Fraction(0)),
        ),
        Piece(
            name="1b", matrix=mat, offset=(Fraction(0), Fraction(-1)),
            polygon=pg.polygon([(h, h), (0, Fraction(2, 3)), (0, 1)]),
            predicate=preds[1], group="1", lift_offset=(Fraction(0), Fraction(0)),
        ),
        Piece(
            name="2a", matrix=mat, offset=(Fraction(-1), Fraction(-1, 2)),
            polygon=pg.polygon([(1, 0), (1, Fraction(2, 3)), (0, 1)]),
            predicate=preds[2], group="2", lift_offset=(Fraction(-1), Fraction(-1, 2)),
        ),
        Piece(
            name="2b", matrix=mat, offset=(Fraction(-1), Fraction(-3, 2)),
            polygon=pg.polygon([(0, 1), (1, Fraction(2, 3)), (1, 1)]),
            predicate=preds[3], group="2", lift_offset=(Fraction(-1), Fraction(-1, 2)),
        ),
    ]
    return PiecewiseAffineTorusMap(pieces)


def single_piece_map(matrix=((1, 0), (0, 1))) -> PiecewiseAffineTorusMap:
    """Control map: one piece covering the square (used by complexity tests)."""
    mat = tuple(tuple(Fraction(v) for v in row) for row in matrix)

    def pred(x, y):
        return np.ones(np.shape(x), dtype=bool)

    piece = Piece(
        name="0", matrix=mat, offset=(Fraction(0), Fraction(0)),
        polygon=pg.rect_polygon(0, 1, 0, 1), predicate=pred,
    )
    return PiecewiseAffineTorusMap([piece])


# ---------------------------------------------------------------------------
# roof
# ---------------------------------------------------------------------------


@dataclass
class RoofFunction:
    """Per-piece quadratic roof with exact rational coefficients.

    coeffs[i] maps the keys const, lx, ly, qxx, qxy, qyy to Fractions;
    tau(x, y) = const + lx x + ly y + qxx x^2 + qxy x y + qyy y^2 on piece i.
    """

    coeffs: list[dict[str, Fraction]]
    tau_minus: float
    tau_max: float
    per_piece_inf: list[Fraction]
    per_piece_max: list[Fraction]

    def __post_init__(self):
        self._c = np.array(
            [[float(c.get(k, 0)) for k in ("const", "lx", "ly", "qxx", "qxy", "qyy")] for c in self.coeffs]
        )

    def tau_arrays(self, x: np.ndarray, y: np.ndarray, pid: np.ndarray) -> np.ndarray:
        c = self._c[pid]
        return (
            c[..., 0]
            + c[..., 1] * x
            + c[..., 2] * y
            + c[..., 3] * x * x
            + c[..., 4] * x * y
            + c[..., 5] * y * y
        )

    def tau(self, x: float, y: float, pid: int) -> float:
        return float(self.tau_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(pid)))

    def grad_arrays(self, x: np.ndarray, y: np.ndarray, pid: np.ndarray):
        c = self._c[pid]
        gx = c[..., 1] + 2.0 * c[..., 3] * x + c[..., 4] * y
        gy = c[..., 2] + c[..., 4] * x + 2.0 * c[..., 5] * y
        return gx, gy


def build_roof(base: PiecewiseAffineTorusMap, tau_minus: float) -> RoofFunction:
    """Solve the roof compatibility equations piece by piece.

    The gradient is pinned by the map: grad tau = (y - f2 * df1/dx,
    -f2 * df1/dy) with f2 the image's second coordinate in [0,1).  The free
    constants are normalized per piece *group* on the group's smooth lift
    (const = tau_minus + max of the subtracted part over the group domain)
    and the wrapped sub-pieces add wrap_index * (f1 lift).  This keeps
    inf tau >= tau_minus on every piece while the unwrapped sub-piece of
    each group attains it on the group's lifted solution.
    """
    tm = Fraction(tau_minus).limit_denominator(10**12) if not isinstance(tau_minus, Fraction) else tau_minus
    # exact closedness check: d(a)/dy - d(b)/dx = 1 - det
    for p in base.pieces:
        if p.det() != 1:
            raise ClosednessViolation(
                f"piece {p.name}: roof 1-form not closed (det = {p.det()}, need 1)"
            )

    groups: dict[str, list[int]] = {}
    for i, p in enumerate(base.pieces):
        groups.setdefault(p.group or p.name, []).append(i)

    coeffs: list[dict[str, Fraction] | None] = [None] * len(base.pieces)
    for gname, idxs in groups.items():
        rep = base.pieces[idxs[0]]
        m = rep.matrix
        lift_off = rep.lift_offset if rep.lift_offset is not None else rep.offset
        c2l = lift_off[1]
        # lifted gradient: a = y - (m10 x + m11 y + c2l) m00, b = -(...) m01
        base_quad = {
            "qxx": -m[0][0] * m[1][0] / 2,
            "qxy": Fraction(1) - m[0][0] * m[1][1],
            "qyy": -m[0][1] * m[1][1] / 2,
            "lx": -m[0][0] * c2l,
            "ly": -m[0][1] * c2l,
            "const": Fraction(0),
        }
        # group normalization: const so that min over the group domain is tau_minus
        gmin = None
        for i in idxs:
            vmin, _, _, _ = pg.quadratic_extrema_over_polygon(base_quad, base.pieces[i].polygon)
            gmin = vmin if gmin is None else min(gmin, vmin)
        base_quad["const"] = tm - gmin
        for i in idxs:
            p = base.pieces[i]
            k = p.wrap_index
            c1l = lift_off[0]
            ci = dict(base_quad)
            ci["lx"] += k * m[0][0]
            ci["ly"] += k * m[0][1]
            ci["const"] += k * c1l
            coeffs[i] = ci

    infs, maxs = [], []
    for i, p in enumerate(base.pieces):
        vmin, _, vmax, _ = pg.quadratic_extrema_over_polygon(coeffs[i], p.polygon)
        if vmin < tm:
            raise ClosednessViolation(
                f"piece {p.name}: normalized roof dips to {vmin} < tau_minus {tm}"
            )
        infs.append(vmin)
        maxs.append(vmax)
    return RoofFunction(
        coeffs=[dict(c) for c in coeffs],
        tau_minus=float(tm),
        tau_max=float(max(maxs)),
        per_piece_inf=infs,
        per_piece_max=maxs,
    )


# ---------------------------------------------------------------------------
# flow points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowPoint:
    x: float
    y: float
    z: float
    piece_id: int


class FlowPointBatch:
    """Array-backed sequence of FlowPoint (list-like, lazy items)."""

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, piece_id: np.ndarray):
        self.x, self.y, self.z, self.piece_id = x, y, z, piece_id

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FlowPointBatch(self.x[i], self.y[i], self.z[i], self.piece_id[i])
        return FlowPoint(float(self.x[i]), float(self.y[i]), float(self.z[i]), int(self.piece_id[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


@dataclass
class FlowDiag:
    """Side-channel statistics from exact event stepping: the points handed
    to the map (or its inverse) and the least distance from a landed point
    to a piece boundary."""

    crossings: int = 0
    min_boundary_dist: float = math.inf

    def add(self, dist: np.ndarray) -> None:
        """Record landed points by their distances to a piece boundary."""
        self.crossings += dist.size
        self.min_boundary_dist = min(self.min_boundary_dist, float(dist.min()))


# ---------------------------------------------------------------------------
# suspension flow
# ---------------------------------------------------------------------------


class SuspensionFlow:
    """Immutable suspension flow; all evolution routines are pure."""

    def __init__(self, base, roof, label: str = "flow"):
        self.base = base
        self.roof = roof
        self.label = label
        self.volume = self._exact_volume()
        self.tau_max = float(roof.tau_max)
        self.tau_minus = float(roof.tau_minus)

    def _exact_volume(self) -> float:
        if hasattr(self.roof, "coeffs"):
            total = Fraction(0)
            for i, p in enumerate(self.base.pieces):
                total += pg.integrate_quadratic(self.roof.coeffs[i], p.polygon)
            return float(total)
        return float(self.roof.volume_estimate)

    # -- point plumbing ------------------------------------------------------

    def flow_point(self, x: float, y: float, z: float) -> FlowPoint:
        return self.flow_points([x], [y], [z])[0]

    def flow_points(self, x, y, z) -> FlowPointBatch:
        """Marked points with x, y wrapped to the torus; 0 <= z < tau required."""
        x = np.asarray(x, dtype=float) % 1.0
        y = np.asarray(y, dtype=float) % 1.0
        z = np.asarray(z, dtype=float)
        pid = self.base.piece_of_arrays(x, y)
        if np.any(pid < 0):
            i = int(np.argmax(pid < 0))
            raise ValueError(f"point ({x[i]}, {y[i]}) not claimed by any piece")
        tau = self.roof.tau_arrays(x, y, pid)
        bad = ~((0.0 <= z) & (z < tau))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"z = {z[i]} outside [0, {tau[i]})")
        return FlowPointBatch(x, y, z, pid)

    # -- evolution ------------------------------------------------------------

    def forward(self, p: FlowPoint, t: float, diag: FlowDiag | None = None) -> FlowPoint:
        """forward_arrays on the batch of one point p."""
        return FlowPointBatch(*self.forward_arrays([p.x], [p.y], [p.z], [p.piece_id], t, diag))[0]

    def backward(self, p: FlowPoint, t: float, diag: FlowDiag | None = None) -> FlowPoint:
        """backward_arrays on the batch of one point p."""
        return FlowPointBatch(*self.backward_arrays([p.x], [p.y], [p.z], [p.piece_id], t, diag))[0]

    def forward_arrays(self, x, y, z, pid, t, diag: FlowDiag | None = None):
        """Evolve arrays of points forward by t (scalar or per-point array).

        A point that reaches its roof lands at z = 0 on its image under the
        map, in the piece that claims the image, also when the image lies
        on a piece boundary.  diag, when given, records every landing.
        """
        x = np.array(x, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True)
        z = np.array(z, dtype=float, copy=True)
        pid = np.array(pid, dtype=np.int64, copy=True)
        rem = np.broadcast_to(np.asarray(t, dtype=float), x.shape).copy()
        if not np.all(np.isfinite(rem)) or np.any(rem < 0):
            raise NonFinite("forward times must be finite and >= 0")
        while True:
            tau = self.roof.tau_arrays(x, y, pid)
            gap = tau - z
            cross = rem >= gap
            if not np.any(cross):
                z += rem
                return x, y, z, pid
            stay = ~cross
            z[stay] += rem[stay]
            rem[stay] = 0.0
            rem[cross] -= gap[cross]
            nx, ny, npid = self.base.apply_arrays(x[cross], y[cross])
            x[cross], y[cross], pid[cross] = nx, ny, npid
            z[cross] = 0.0
            if diag is not None:
                diag.add(self.base.distance_to_boundary_arrays(nx, ny))

    def backward_arrays(self, x, y, z, pid, t, diag: FlowDiag | None = None):
        """Evolve arrays of points backward by t; z = 0 belongs to the
        current box, so any backward motion from the section crosses it.
        diag, when given, records every landing."""
        x = np.array(x, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True)
        z = np.array(z, dtype=float, copy=True)
        pid = np.array(pid, dtype=np.int64, copy=True)
        rem = np.broadcast_to(np.asarray(t, dtype=float), x.shape).copy()
        if not np.all(np.isfinite(rem)) or np.any(rem < 0):
            raise NonFinite("backward times must be finite and >= 0")
        while True:
            jump = rem > z
            if not np.any(jump):
                z -= rem
                return x, y, z, pid
            stay = ~jump
            z[stay] -= rem[stay]
            rem[stay] = 0.0
            rem[jump] -= z[jump]
            nx, ny, nz, npid = self._step_back(x[jump], y[jump])
            x[jump], y[jump], z[jump], pid[jump] = nx, ny, nz, npid
            if diag is not None:
                diag.add(self.base.distance_to_boundary_arrays(nx, ny))

    def _step_back(self, x, y):
        """Inverse map step of section points (x, y), landing under the
        preimage's roof: (x', y', tau(x', y'), piece id)."""
        nx, ny, npid = self.base.apply_inverse_arrays(x, y)
        if np.any(npid < 0):
            i = int(np.argmax(npid < 0))
            raise ValueError(f"no inverse piece claims ({x[i]}, {y[i]})")
        return nx, ny, self.roof.tau_arrays(nx, ny, npid), npid

    def backward_orbit_eval(self, x, y, z, pid, ts):
        """Positions (x, y, z, pid), each of shape (len(x), len(ts)), of the
        backward orbits of (x, y, z, pid) at sorted times ts >= 0.

        Level k of an orbit is its k-th box, entered at t_k (t_0 = 0) and
        left at t_k + z, where a node at exactly t_k + z stays; only orbits
        whose box ends before ts[-1] step to the next level.
        """
        ts = np.asarray(ts, dtype=float)
        n, m = np.size(x), ts.size
        levels = [np.array([x, y, z, pid, np.zeros(n)], dtype=float).reshape(5, n)]
        his = [levels[0][4] + levels[0][2]]
        act = np.nonzero(his[0] < (ts[-1] if m else -math.inf))[0]
        while act.size:
            nx, ny, nz, npid = self._step_back(levels[-1][0, act], levels[-1][1, act])
            nxt = np.zeros((5, n))
            nxt[:, act] = nx, ny, nz, npid, his[-1][act]
            hi = np.full(n, math.inf)
            hi[act] = nxt[4, act] + nxt[2, act]
            levels.append(nxt)
            his.append(hi)
            act = act[hi[act] < ts[-1]]
        # level of node j = number of boxes the orbit left before ts[j]
        ends = np.searchsorted(ts, np.stack(his, axis=1), side="right")
        marks = np.bincount((np.arange(n)[:, None] * (m + 1) + ends).ravel(),
                            minlength=n * (m + 1))
        level = np.cumsum(marks.reshape(n, m + 1)[:, :m], axis=1)
        ox, oy, oz, op, ot = np.take_along_axis(np.stack(levels, axis=2), level[None], axis=2)
        return ox, oy, oz - (ts - ot), op.astype(np.int64)

    # -- sections, sampling, dumps -------------------------------------------

    def return_map(self, base_point: Sequence[float]):
        """(image, return time, piece id) of the section {z = 0}."""
        x, y = float(base_point[0]), float(base_point[1])
        pid = self.base.piece_of(x, y)
        tau = self.roof.tau(x, y, pid)
        u, v, _ = self.base.apply(x, y)
        return (u, v), tau, pid

    def return_map_iter(self, base_point: Sequence[float], n: int):
        """Itinerary (i0..i_{n-1}) and cumulative return time of n steps."""
        x, y = float(base_point[0]), float(base_point[1])
        itinerary = []
        total = 0.0
        for _ in range(n):
            (x_next, y_next), tau, pid = self.return_map((x, y))
            itinerary.append(pid)
            total += tau
            x, y = x_next, y_next
        return itinerary, total, (x, y)

    def sample_invariant(self, seed: int, n: int) -> FlowPointBatch:
        """Rejection sampling of the normalized invariant volume on X0.

        (x, y) uniform on the torus, z uniform on [0, tau_max], accepted when
        z < tau(x, y).  Chunked counter-based streams: the samples depend
        only on (seed, n).
        """
        if n < 1:
            raise ValueError("n >= 1 required")
        chunks_x, chunks_y, chunks_z, chunks_p = [], [], [], []
        total = 0
        ci = 0
        while total < n:
            rng = spawn_rng(seed, 0, ci)
            u = rng.random((3, DEFAULT_CHUNK))
            x, y = u[0], u[1]
            z = u[2] * self.tau_max
            pid = self.base.piece_of_arrays(x, y)
            tau = self.roof.tau_arrays(x, y, pid)
            acc = z < tau
            chunks_x.append(x[acc])
            chunks_y.append(y[acc])
            chunks_z.append(z[acc])
            chunks_p.append(pid[acc])
            total += int(acc.sum())
            ci += 1
        x = np.concatenate(chunks_x)[:n]
        y = np.concatenate(chunks_y)[:n]
        z = np.concatenate(chunks_z)[:n]
        pid = np.concatenate(chunks_p)[:n]
        return FlowPointBatch(x, y, z, pid)

    def trajectory_rows(self, p: FlowPoint, t_grid: Iterable[float]):
        """Rows (t, x, y, z, piece_id) for a CSV dump."""
        rows = []
        prev_t = 0.0
        cur = p
        for t in t_grid:
            cur = self.forward(cur, float(t) - prev_t)
            prev_t = float(t)
            rows.append((float(t), cur.x, cur.y, cur.z, cur.piece_id))
        return rows

    # -- discontinuity geometry ----------------------------------------------

    def min_distance_to_discontinuity(self, x, y) -> np.ndarray:
        return self.base.distance_to_boundary_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    # -- config ---------------------------------------------------------------

    def to_config(self) -> dict:
        cfg = {"tau_minus": self.tau_minus, "label": self.label}
        cfg.update(self.base.describe())
        eps = getattr(self.base, "epsilon", None)
        cfg["map"] = "f0" if eps is None else {"perturbed": eps}
        return cfg


def standard_flow(tau_minus: float = 1.0) -> SuspensionFlow:
    base = standard_map()
    return SuspensionFlow(base, build_roof(base, tau_minus), label="f0")


# ---------------------------------------------------------------------------
# perturbed family: map = standard composed with a vertical shear
# ---------------------------------------------------------------------------


class PerturbedTorusMap:
    """standard map composed with the shear (x, y) -> (x, y + eps sin 2 pi x).

    Pieces are labeled (branch, k, m): m = floor of the sheared y (the shear's
    own wrap count for the [0,1) representative), branch 1/2 by which
    continuity triangle the sheared point falls in, k = floor of the image's
    lifted second coordinate.  On each label the image formulas are
    restrictions of entire functions.  At eps = 0 the four nonempty labels
    reduce to the standard pieces.
    """

    def __init__(self, epsilon: float):
        if not (0.0 <= epsilon <= 0.05):
            raise ValueError("epsilon in [0, 0.05] required")
        self.epsilon = float(epsilon)
        self._labels = [(b, k, m) for b in (1, 2) for k in (0, 1) for m in (-1, 0, 1)]
        self._index = {lab: i for i, lab in enumerate(self._labels)}

    # -- lifted branch data ---------------------------------------------------

    def _shear(self, x, y):
        return y + self.epsilon * np.sin(2.0 * np.pi * x)

    def shear_wrap_arrays(self, x, y):
        return np.floor(self._shear(x, y)).astype(np.int64)

    def branch_of(self, x, y):
        y1w = self._shear(x, y) % 1.0
        return np.where(y1w <= 1.0 - x, 1, 2)

    def lift_components(self, x, y, branch, m):
        """Entire-function image lifts for fixed (branch, m), plus the
        first component's gradient."""
        y1 = self._shear(x, y) - np.asarray(m, dtype=float)
        b2 = np.where(np.asarray(branch) == 2, 1.0, 0.0)
        f1 = x + y1 - b2
        f2 = 0.5 * x + 1.5 * y1 - 0.5 * b2
        g = 2.0 * np.pi * self.epsilon * np.cos(2.0 * np.pi * x)
        df1 = (1.0 + g, np.ones_like(np.asarray(x, dtype=float)))
        return f1, f2, df1

    def label_arrays(self, x, y):
        m = self.shear_wrap_arrays(x, y)
        branch = self.branch_of(x, y)
        _, f2, _ = self.lift_components(x, y, branch, m)
        k = np.floor(f2).astype(np.int64)
        return branch, k, m

    def piece_of_arrays(self, x, y):
        branch, k, m = self.label_arrays(x, y)
        out = np.full(np.shape(x), -1, dtype=np.int64)
        for (b, kk, mm), i in self._index.items():
            out[(branch == b) & (k == kk) & (m == mm)] = i
        if np.any(out < 0):
            raise ValueError("wrap indices outside the registered piece set")
        return out

    def piece_of(self, x, y) -> int:
        return int(self.piece_of_arrays(np.asarray([x]), np.asarray([y]))[0])

    def apply_arrays(self, x, y):
        branch, k, m = self.label_arrays(x, y)
        f1, f2, _ = self.lift_components(x, y, branch, m)
        u, v = f1 % 1.0, f2 - k
        return u, v, self.piece_of_arrays(u, v)

    def apply(self, x, y):
        u, v, pid = self.apply_arrays(np.asarray([x]), np.asarray([y]))
        return float(u[0]), float(v[0]), int(pid[0])

    def apply_inverse_arrays(self, x, y):
        sm = _SHARED_STANDARD_MAP
        u, v, _ = sm.apply_inverse_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        w = (v - self.epsilon * np.sin(2.0 * np.pi * u)) % 1.0
        return u, w, self.piece_of_arrays(u, w)

    def apply_inverse(self, x, y):
        u, v, pid = self.apply_inverse_arrays(np.asarray([x]), np.asarray([y]))
        return float(u[0]), float(v[0]), int(pid[0])

    def jacobian_at(self, x: float, y: float) -> np.ndarray:
        g = 2.0 * np.pi * self.epsilon * np.cos(2.0 * np.pi * x)
        return np.array([[1.0 + g, 1.0], [0.5 + 1.5 * g, 1.5]])

    def sample_jacobians(self, n: int = 64) -> list[np.ndarray]:
        xs = (np.arange(n) + 0.5) / n
        return [self.jacobian_at(float(x), 0.0) for x in xs]

    def distance_to_boundary_arrays(self, x, y):
        """Conservative distance to the nearest flow discontinuity line
        (branch curve, image-wrap lines, shear-wrap lines, torus seams)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        branch, _, m = self.label_arrays(x, y)
        y1 = self._shear(x, y)
        y1w = y1 % 1.0
        d_branch = np.abs(y1w - (1.0 - x)) / 2.0
        _, f2, _ = self.lift_components(x, y, branch, m)
        d_wrap = np.abs(f2 - np.round(f2)) / 2.0
        d_shear = np.minimum(y1w, 1.0 - y1w)
        d_seam = np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))
        return np.minimum(np.minimum(d_branch, d_wrap), np.minimum(d_shear, d_seam))

    def map_discontinuity_segments(self):
        ts = np.linspace(0.0, 1.0, 65)
        out = []
        for t0, t1 in zip(ts[:-1], ts[1:]):
            p0 = (float(t0), float((1.0 - t0 - self.epsilon * np.sin(2.0 * np.pi * t0)) % 1.0))
            p1 = (float(t1), float((1.0 - t1 - self.epsilon * np.sin(2.0 * np.pi * t1)) % 1.0))
            if abs(p1[1] - p0[1]) < 0.5:
                out.append((p0, p1, "sheared antidiagonal"))
        return out

    def describe(self) -> dict:
        return {"epsilon": self.epsilon, "pieces": [{"name": f"b{b}k{k}"} for b, k in self._labels]}


_SHARED_STANDARD_MAP = standard_map()


class PerturbedRoof:
    """Roof for the perturbed map by line integration of the closed 1-form.

    On each (branch, m) the image lift is entire, so the potential is the
    L-path integral (x-leg then y-leg) from an anchor; path independence is
    checked against the transposed path at construction.  The wrapped pieces
    add k * (f1 lift) exactly as in the affine case.  Constants are
    normalized per (branch, m) region from a deterministic grid (plus seam
    bands so thin shear-wrap regions are sampled); a region too thin for the
    grid falls back to the (branch, 0) constant and sets sliver_fallback.
    """

    def __init__(self, pmap: PerturbedTorusMap, tau_minus: float, nodes: int = 64, grid: int = 256):
        self.pmap = pmap
        self.tau_minus = float(tau_minus)
        self.nodes = int(nodes)
        self.anchor = (0.25, 0.25)
        self._const: dict[tuple[int, int], float] = {}
        self.sliver_fallback = False
        self._normalize(grid)
        self._check_path_independence()

    # lifted 1-form components per (branch, m)
    def _ab(self, x, y, branch, m):
        f1, f2, df1 = self.pmap.lift_components(x, y, branch, m)
        a = y - f2 * df1[0]
        b = -f2 * df1[1]
        return a, b

    def _potential_raw(self, x, y, branch, m, x_first: bool = True):
        """L-path integral of the (branch, m) lift from the anchor."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ax, ay = self.anchor
        t, w = gl_interval(0.0, 1.0, self.nodes)

        def leg_x(x0, x1, yc):
            xs = x0[..., None] + (x1 - x0)[..., None] * t
            a, _ = self._ab(xs, yc[..., None], branch, m)
            return (x1 - x0) * np.sum(a * w, axis=-1)

        def leg_y(y0, y1, xc):
            ys = y0[..., None] + (y1 - y0)[..., None] * t
            _, b = self._ab(xc[..., None], ys, branch, m)
            return (y1 - y0) * np.sum(b * w, axis=-1)

        ax_a = np.full(x.shape, ax)
        ay_a = np.full(x.shape, ay)
        if x_first:
            return leg_x(ax_a, x, ay_a) + leg_y(ay_a, y, x)
        return leg_y(ay_a, y, ax_a) + leg_x(ax_a, x, y)

    def _normalization_points(self, grid: int):
        xs = (np.arange(grid) + 0.5) / grid
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        px = [gx.ravel()]
        py = [gy.ravel()]
        one = np.nextafter(1.0, 0.0)
        # region extrema sit on boundaries: square edges and the branch curve
        es = np.linspace(0.0, one, 2048)
        for fixed in (0.0, one):
            px += [es, np.full_like(es, fixed)]
            py += [np.full_like(es, fixed), es]
        curve_y = (1.0 - es - self.pmap.epsilon * np.sin(2.0 * np.pi * es)) % 1.0
        for off in (-1e-9, 1e-9):
            px.append(es)
            py.append(np.clip(curve_y + off, 0.0, one))
        eps = self.pmap.epsilon
        if eps > 0.0:
            xb = (np.arange(1024) + 0.5) / 1024.0
            yb = eps * (np.arange(64) + 0.5) / 64.0
            bx, by = np.meshgrid(xb, yb, indexing="ij")
            px += [bx.ravel(), bx.ravel()]
            py += [by.ravel(), np.clip(1.0 - by, 0.0, one).ravel()]
        return np.concatenate(px), np.concatenate(py)

    def _normalize(self, grid: int):
        gx, gy = self._normalization_points(grid)
        branch, _, m = self.pmap.label_arrays(gx, gy)
        for b, mm in {(int(bb), int(mv)) for bb, mv in zip(branch, m)}:
            sel = (branch == b) & (m == mm)
            raw = self._potential_raw(gx[sel], gy[sel], b, mm)
            self._const[(b, mm)] = self.tau_minus - float(raw.min())
        pid = self.pmap.piece_of_arrays(gx, gy)
        full = self.tau_arrays(gx, gy, pid)
        self.tau_max = float(full.max()) * (1.0 + 1e-3) + 1e-6
        self.volume_estimate = float(full[: grid * grid].mean())  # midpoint rule

    def _check_path_independence(self, n: int = 24, tol: float = 1e-8):
        rng = spawn_rng(20240901, 7)
        x = rng.random(n)
        y = rng.random(n)
        for b in (1, 2):
            r1 = self._potential_raw(x, y, b, 0, x_first=True)
            r2 = self._potential_raw(x, y, b, 0, x_first=False)
            resid = float(np.max(np.abs(r1 - r2)))
            if resid > tol:
                raise PathDependence(
                    f"branch {b}: L-path integrals disagree by {resid:.3e} > {tol:.1e}"
                )

    def _const_for(self, b: int, m: int) -> float:
        key = (b, m)
        if key not in self._const:
            self.sliver_fallback = True
            key = (b, 0)
        return self._const[key]

    def tau_arrays(self, x, y, pid):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pid = np.asarray(pid)
        out = np.empty(x.shape)
        for (b, k, m), i in self.pmap._index.items():
            sel = pid == i
            if not np.any(sel):
                continue
            f1, _, _ = self.pmap.lift_components(x[sel], y[sel], b, m)
            out[sel] = self._potential_raw(x[sel], y[sel], b, m) + self._const_for(b, m) + k * f1
        return out

    def tau(self, x: float, y: float, pid: int) -> float:
        return float(self.tau_arrays(np.asarray([x]), np.asarray([y]), np.asarray([pid]))[0])

    def grad_arrays(self, x, y, pid):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pid = np.asarray(pid)
        gx = np.empty(x.shape)
        gy = np.empty(x.shape)
        for (b, k, m), i in self.pmap._index.items():
            sel = pid == i
            if not np.any(sel):
                continue
            a, bb = self._ab(x[sel], y[sel], b, m)
            _, _, df1 = self.pmap.lift_components(x[sel], y[sel], b, m)
            gx[sel] = a + k * df1[0]
            gy[sel] = bb + k * df1[1]
        return gx, gy


def build_perturbed_map(epsilon: float, tau_minus: float = 1.0) -> SuspensionFlow:
    """Suspension flow for the sheared family; epsilon = 0 recovers the
    standard map's flow up to quadrature error in the roof."""
    pmap = PerturbedTorusMap(epsilon)
    roof = PerturbedRoof(pmap, tau_minus)
    return SuspensionFlow(pmap, roof, label=f"perturbed({epsilon})")
