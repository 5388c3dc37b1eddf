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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _polygon as pg
from ._rng import DEFAULT_CHUNK, spawn_rng
from ._quadrature import gl_interval
from .errors import ClosednessViolation, NonFinite, PathDependence, UnnormalizedRegion


# ---------------------------------------------------------------------------
# base map
# ---------------------------------------------------------------------------


# a * x + b * y op c; op declares which side owns the line a * x + b * y = c
HalfPlane = tuple[Fraction, Fraction, str, Fraction]
_CMP = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _form(x, y, a: float, b: float):
    """a * x + b * y, with a unit factor skipped: same bits, one pass fewer."""
    return (x if a == 1.0 else a * x) + (y if b == 1.0 else b * y)


@dataclass(frozen=True)
class Piece:
    """One affine piece: half-open domain, matrix, offset.

    The domain is the set of points of [0,1)^2 where every half-plane in
    halfplanes holds; the float lookup, the inverse's membership test and
    the exact polygon all derive from that one tuple.  offset is the true
    offset (image representative in [0,1)^2 a.e.); lift_offset is the offset
    of the smooth lift shared by the piece's group, and wrap_index =
    lift_offset[1] - offset[1] counts how many times the image's second
    coordinate wrapped.
    """

    name: str
    matrix: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    offset: tuple[Fraction, Fraction]
    halfplanes: tuple[HalfPlane, ...]
    group: str
    lift_offset: tuple[Fraction, Fraction]

    @property
    def wrap_index(self) -> Fraction:
        return self.lift_offset[1] - self.offset[1]

    @property
    def matrix_f(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    @cached_property
    def polygon(self) -> pg.Polygon:
        """Closure of the domain, clipped exactly from the unit square."""
        poly = pg.grid_rect(0, 0, 1, 1)
        for a, b, op, c in self.halfplanes:
            s = 1 if op[0] == ">" else -1
            line, _ = pg.over_common_denominator((s * a, s * b, -s * c))
            poly = pg.clip_halfplane(poly, tuple(line))
        return poly

    @cached_property
    def inverse(self) -> tuple[tuple, tuple[Fraction, Fraction]]:
        """Exact (matrix, offset) of the inverse affine branch."""
        (m00, m01), (m10, m11) = self.matrix
        d = self.det()
        inv = ((m11 / d, -m01 / d), (-m10 / d, m00 / d))
        c0, c1 = self.offset
        return inv, tuple(-(r0 * c0 + r1 * c1) for r0, r1 in inv)

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
            pg.affine_image(p.polygon, pg.affine(p.matrix, p.offset)) for p in self.pieces
        ]
        self._mats = np.array([p.matrix for p in self.pieces], dtype=float)
        self._offs = np.array([p.offset for p in self.pieces], dtype=float)
        self._inv_mats = np.array([p.inverse[0] for p in self.pieces], dtype=float)
        self._halfplanes = [[(float(a), float(b), _CMP[op], float(c)) for a, b, op, c in p.halfplanes]
                            for p in self.pieces]
        self._lines, self._table, self._code_dtype = self._sign_table()
        self._edges = self._collect_edges()

    # -- piece lookup -------------------------------------------------------

    def _in_piece(self, i: int, x: np.ndarray, y: np.ndarray, forms: dict):
        """Float membership in piece i's half-open domain: a bool array, or
        True when the piece has no half-planes and so claims every point,
        NaN included.  forms caches a * x + b * y across calls on the same
        (x, y)."""
        ok = True
        for a, b, cmp, c in self._halfplanes[i]:
            if (a, b) not in forms:
                forms[a, b] = _form(x, y, a, b)
            ok = ok & cmp(forms[a, b], c)
        return ok

    def _sign_table(self):
        """The lookup's lines, grouped by form, and its table from sign
        codes to piece ids.

        Each distinct line (a, b, c) of the half-planes adds the digit
        (f <= c) + 2 (f >= c) of f = a x + b y to a point's base-4 code: 1
        below the line, 2 above, 3 on it and 0 at a NaN.  The table has 4^L
        entries for L lines (64 on the standard map); entry k holds the
        first piece whose half-planes all hold on the signs that code k
        records, or -1.  A NaN satisfies no half-plane, so only a piece
        without half-planes claims it.  Returns [(a, b, [(c, w, 2 w), ...])]
        with each line's digit weight w in the smallest dtype that holds
        every code, the table and that dtype.
        """
        lines = list(dict.fromkeys((a, b, c) for hps in self._halfplanes for a, b, _, c in hps))
        # a value of f - c with each digit's signs: NaN, below, above, on
        signed = (math.nan, -1.0, 1.0, 0.0)
        weights = [4 ** (len(lines) - 1 - l) for l in range(len(lines))]
        table = [-1] * 4 ** len(lines)
        for i, hps in enumerate(self._halfplanes):
            accept = [set(range(4)) for _ in lines]  # the digits piece i allows, by line
            for a, b, cmp, c in hps:
                accept[lines.index((a, b, c))] &= {d for d in range(4) if cmp(signed[d], 0.0)}
            for digits in itertools.product(*accept):
                k = sum(d * w for d, w in zip(digits, weights))
                if table[k] < 0:
                    table[k] = i
        table = np.array(table, dtype=np.int64)
        dtype = np.min_scalar_type(table.size - 1)
        forms: dict = {}
        for (a, b, c), w in zip(lines, weights):
            forms.setdefault((a, b), []).append((c, dtype.type(w), dtype.type(2 * w)))
        return [(a, b, cuts) for (a, b), cuts in forms.items()], table, dtype

    def piece_of_arrays(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Id of the piece whose half-open domain holds each (x, y), or -1:
        each point's sign code over the distinct lines, then one gather from
        the sign table."""
        pid = np.empty(np.shape(x), dtype=np.int64)  # before the temporaries: a lower peak RSS
        code = np.zeros(np.shape(x), dtype=self._code_dtype)
        for a, b, cuts in self._lines:
            f = _form(x, y, a, b)
            for c, w_le, w_ge in cuts:
                code += (f <= c) * w_le
                code += (f >= c) * w_ge
        return self._table.take(code, out=pid, mode="clip")  # every code is in range

    def piece_of(self, x: float, y: float) -> int:
        pid = self.piece_of_arrays(np.asarray([x]), np.asarray([y]))[0]
        if pid < 0:
            raise ValueError(f"point ({x}, {y}) not claimed by any piece")
        return int(pid)

    # -- forward / inverse --------------------------------------------------

    def apply_arrays(self, x: np.ndarray, y: np.ndarray, pid: np.ndarray):
        """Return (x', y', piece_id) for points (x, y) in the pieces pid,
        with piece_id the piece containing the image (so the result is a
        valid marked point); images in [0,1)."""
        u, v = self.lift_image_arrays(x, y, pid)
        u, v = u % 1.0, v % 1.0
        return u, v, self.piece_of_arrays(u, v)

    def lift_image_arrays(self, x, y, pid):
        """Per-piece affine image before the (measure-zero) final wrap."""
        m, o = self._mats, self._offs  # gathered one entry at a time
        u = m[:, 0, 0][pid] * x + m[:, 0, 1][pid] * y + o[:, 0][pid]
        v = m[:, 1, 0][pid] * x + m[:, 1, 1][pid] * y + o[:, 1][pid]
        return u, v

    def apply(self, x: float, y: float) -> tuple[float, float, int]:
        pid = np.asarray([self.piece_of(x, y)])
        u, v, pid = self.apply_arrays(np.asarray([x]), np.asarray([y]), pid)
        return float(u[0]), float(v[0]), int(pid[0])

    def apply_inverse_arrays(self, x: np.ndarray, y: np.ndarray):
        """Inverse by scanning pieces: the candidate preimage of piece i is
        valid when it lies in piece i's own domain."""
        out_x = np.full(np.shape(x), np.nan)
        out_y = np.full(np.shape(x), np.nan)
        out_p = np.full(np.shape(x), -1, dtype=np.int64)
        for tol in (0.0, 1e-12, 1e-9):
            todo = out_p < 0
            if not np.any(todo):
                break
            for i in range(len(self.pieces)):
                mi = self._inv_mats[i]
                dx, dy = x - self._offs[i, 0], y - self._offs[i, 1]
                cx = mi[0, 0] * dx + mi[0, 1] * dy
                cy = mi[1, 0] * dx + mi[1, 1] * dy
                if tol == 0.0:
                    ok = (cx >= 0.0) & (cx < 1.0) & (cy >= 0.0) & (cy < 1.0) & self._in_piece(i, cx, cy, {})
                else:
                    cxc = np.clip(cx, 0.0, np.nextafter(1.0, 0.0))
                    cyc = np.clip(cy, 0.0, np.nextafter(1.0, 0.0))
                    ok = (np.abs(cxc - cx) <= tol) & (np.abs(cyc - cy) <= tol) & self._in_piece(i, cxc, cyc, {})
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

    def jacobian_at(self, x: float, y: float) -> np.ndarray:
        return self._mats[self.piece_of(x, y)].copy()

    def sample_jacobians(self) -> list[np.ndarray]:
        """The piece matrices, in piece order."""
        return [p.matrix_f for p in self.pieces]

    # -- geometry helpers ---------------------------------------------------

    def _collect_edges(self) -> np.ndarray:
        segs = []
        for p in self.pieces:
            poly = p.polygon
            for i in range(len(poly)):
                a, b = poly[i], poly[(i + 1) % len(poly)]
                segs.append([a[0] / a[2], a[1] / a[2], b[0] / b[2], b[1] / b[2]])
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


def standard_map() -> PiecewiseAffineTorusMap:
    """The standard four-piece map with matrix [[1,1],[1/2,3/2]].

    Piece 1 (below the antidiagonal, owned boundary) is split along
    {x + 3y = 2}, piece 2 along {x + 3y = 3}; the sub-pieces beyond those
    lines (names ending in b) have the image's second coordinate wrapped
    once, absorbed into the offset.
    """
    zero, one, h, three = Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3)
    mat = ((one, one), (h, 3 * h))
    below, above = (one, one, "<=", one), (one, one, ">", one)
    table = [  # name, offset, half-planes, group, lift offset
        ("1a", (zero, zero), (below, (one, three, "<", 2 * one)), "1", (zero, zero)),
        ("1b", (zero, -one), (below, (one, three, ">=", 2 * one)), "1", (zero, zero)),
        ("2a", (-one, -h), (above, (one, three, "<", three)), "2", (-one, -h)),
        ("2b", (-one, -3 * h), (above, (one, three, ">=", three)), "2", (-one, -h)),
    ]
    return PiecewiseAffineTorusMap([
        Piece(name=name, matrix=mat, offset=off, halfplanes=hp, group=group, lift_offset=lift)
        for name, off, hp, group, lift in table
    ])


def single_piece_map(matrix=((1, 0), (0, 1))) -> PiecewiseAffineTorusMap:
    """Control map: one piece covering the square (used by complexity tests)."""
    mat = tuple(tuple(Fraction(v) for v in row) for row in matrix)
    zero = (Fraction(0), Fraction(0))
    piece = Piece(name="0", matrix=mat, offset=zero, halfplanes=(), group="0", lift_offset=zero)
    return PiecewiseAffineTorusMap([piece])


# ---------------------------------------------------------------------------
# roof
# ---------------------------------------------------------------------------


@dataclass
class RoofFunction:
    """Per-piece quadratic roof with exact rational coefficients.

    coeffs[i] maps the keys const, lx, ly, qxx, qxy, qyy to Fractions;
    tau(x, y) = const + lx x + ly y + qxx x^2 + qxy x y + qyy y^2 on piece i;
    volume is the exact integral of tau over the torus.
    """

    coeffs: list[dict[str, Fraction]]
    tau_minus: float
    tau_max: float
    per_piece_inf: list[Fraction]
    per_piece_max: list[Fraction]
    volume: Fraction

    def __post_init__(self):
        # one row per coefficient, so a point gathers each one separately
        self._c = np.array(
            [[float(c.get(k, 0)) for c in self.coeffs] for k in ("const", "lx", "ly", "qxx", "qxy", "qyy")]
        )

    def tau_arrays(self, x: np.ndarray, y: np.ndarray, pid: np.ndarray) -> np.ndarray:
        if np.any(pid < 0):
            raise NonFinite("roof asked at a piece id < 0 (a point no piece claims)")
        c = self._c
        return (
            c[0][pid]
            + c[1][pid] * x
            + c[2][pid] * y
            + c[3][pid] * x * x
            + c[4][pid] * x * y
            + c[5][pid] * y * y
        )

    def tau(self, x: float, y: float, pid: int) -> float:
        return float(self.tau_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float), np.asarray(pid)))

    def grad_arrays(self, x: np.ndarray, y: np.ndarray, pid: np.ndarray):
        c = self._c
        gx = c[1][pid] + 2.0 * c[3][pid] * x + c[4][pid] * y
        gy = c[2][pid] + c[4][pid] * x + 2.0 * c[5][pid] * y
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
        groups.setdefault(p.group, []).append(i)

    coeffs: list[dict[str, Fraction] | None] = [None] * len(base.pieces)
    for gname, idxs in groups.items():
        rep = base.pieces[idxs[0]]
        m = rep.matrix
        c1l, c2l = rep.lift_offset
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
            vmin, _ = pg.quadratic_extrema_over_polygon(base_quad, base.pieces[i].polygon)
            gmin = vmin if gmin is None else min(gmin, vmin)
        base_quad["const"] = tm - gmin
        for i in idxs:
            p = base.pieces[i]
            k = p.wrap_index
            ci = dict(base_quad)
            ci["lx"] += k * m[0][0]
            ci["ly"] += k * m[0][1]
            ci["const"] += k * c1l
            coeffs[i] = ci

    infs, maxs = [], []
    volume = Fraction(0)
    for i, p in enumerate(base.pieces):
        vmin, vmax = pg.quadratic_extrema_over_polygon(coeffs[i], p.polygon)
        if vmin < tm:
            raise ClosednessViolation(
                f"piece {p.name}: normalized roof dips to {vmin} < tau_minus {tm}"
            )
        infs.append(vmin)
        maxs.append(vmax)
        volume += pg.integrate_quadratic(coeffs[i], p.polygon)
    return RoofFunction(
        coeffs=[dict(c) for c in coeffs],
        tau_minus=float(tm),
        tau_max=float(max(maxs)),
        per_piece_inf=infs,
        per_piece_max=maxs,
        volume=volume,
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


def _check_positions(x, y) -> None:
    """Raise NonFinite unless every coordinate of (x, y) is finite."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NonFinite("positions x, y must be finite")


class SuspensionFlow:
    """Immutable suspension flow; all evolution routines are pure."""

    def __init__(self, base, roof):
        self.base = base
        self.roof = roof
        self.volume = float(roof.volume)
        self.tau_max = float(roof.tau_max)
        self.tau_minus = float(roof.tau_minus)

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

    def forward_arrays(self, x, y, z, pid, t, diag: FlowDiag | None = None):
        """Evolve arrays of points forward by t (scalar or per-point array).

        A point that reaches its roof lands at z = 0 on its image under the
        map, in the piece that claims the image, also when the image lies
        on a piece boundary.  diag, when given, records every landing.

        Positions must be finite, and pid must be the piece that claims
        each position: the map steps read the source piece from it.
        Heights must satisfy 0 <= z < tau + tau_max.  Every height up to
        tau_max passes, so a finite-difference stencil may step across a
        roof jump; a height above its roof crosses at once.  A NaN height,
        or one so far above the roof that it would take about z / tau
        passes, raises NonFinite.
        """
        x = np.array(x, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True)
        z = np.array(z, dtype=float, copy=True)
        pid = np.array(pid, dtype=np.int64, copy=True)
        rem = np.broadcast_to(np.asarray(t, dtype=float), x.shape).copy()
        if not np.all(np.isfinite(rem)) or np.any(rem < 0):
            raise NonFinite("forward times must be finite and >= 0")
        _check_positions(x, y)
        wrong = self.base.piece_of_arrays(x, y) != pid
        if np.any(wrong):
            i = int(np.argmax(wrong))
            raise ValueError(f"piece id {pid.flat[i]} does not claim ({x.flat[i]}, {y.flat[i]})")
        tau = self.roof.tau_arrays(x, y, pid)
        if not np.all((z >= 0.0) & (z < tau + self.tau_max)):
            raise NonFinite("forward heights must satisfy 0 <= z < tau + tau_max")
        self._advance(*(a.reshape(-1) for a in (x, y, z, pid, tau, rem)), diag)
        return x, y, z, pid

    def _advance(self, x, y, z, pid, tau, rem, diag: FlowDiag | None = None):
        """Move flat point arrays forward in place by the times rem >= 0.

        pid carries the piece that claims each point and tau its roof value
        tau(x, y, pid), in place too: both are recomputed only where a point
        crossed the section, and the map step reads its source piece from
        pid.  Each pass moves the active points to their roof or by their
        remaining time, and only the points that crossed stay active, with
        any point whose height rounded up onto its roof: it crosses on the
        next pass, whichever points share the call.
        """
        act = slice(None)  # the first pass takes every point, through views
        while True:
            zi, ri, ti = z[act], rem[act], tau[act]
            gap = ti - zi
            cross = ri >= gap
            # + 0.0: a point that stays while others cross takes one more
            # pass of zero time, which turns a -0.0 height into 0.0
            zs = zi + ri + 0.0
            again = ~cross & (zs >= ti)
            if not cross.any() and not again.any():
                z[act] = zi + ri
                return
            z[act] = np.where(cross, 0.0, zs)
            rem[act] = np.where(cross, ri - gap, 0.0)
            act_c = np.flatnonzero(cross)
            act_n = np.flatnonzero(cross | again) if again.any() else act_c
            if not isinstance(act, slice):
                act_c, act_n = act[act_c], act[act_n]
            del zi, ri, ti, gap, cross, zs, again  # free before the map step
            if act_c.size:
                nx, ny, npid = self.base.apply_arrays(x[act_c], y[act_c], pid[act_c])
                x[act_c], y[act_c], pid[act_c] = nx, ny, npid
                tau[act_c] = self.roof.tau_arrays(nx, ny, npid)
                if diag is not None:
                    diag.add(self.base.distance_to_boundary_arrays(nx, ny))
            act = act_n

    def backward_arrays(self, x, y, z, pid, t, diag: FlowDiag | None = None):
        """Evolve arrays of points backward by t; z = 0 belongs to the
        current box, so any backward motion from the section crosses it.
        diag, when given, records every landing.

        Heights must satisfy 0 <= z < tau + tau_max, the rule of
        forward_arrays; a NaN height or one far above the roof raises
        NonFinite, and so does a NaN or infinite position."""
        x = np.array(x, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True)
        z = np.array(z, dtype=float, copy=True)
        pid = np.array(pid, dtype=np.int64, copy=True)
        rem = np.broadcast_to(np.asarray(t, dtype=float), x.shape).copy()
        if not np.all(np.isfinite(rem)) or np.any(rem < 0):
            raise NonFinite("backward times must be finite and >= 0")
        _check_positions(x, y)
        if np.any(~(z >= 0.0) | (z >= self.roof.tau_arrays(x, y, pid) + self.tau_max)):
            raise NonFinite("backward heights must satisfy 0 <= z < tau + tau_max")
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
        whose box ends before ts[-1] step to the next level.  A NaN or
        infinite position raises NonFinite.
        """
        _check_positions(x, y)
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

    # -- sampling -------------------------------------------------------------

    def sample_invariant(self, seed: int, n: int) -> FlowPointBatch:
        """Rejection sampling of the normalized invariant volume on X0.

        (x, y) uniform on the torus, z uniform on [0, tau_max], accepted when
        z < tau(x, y).  Chunked counter-based streams: the samples depend
        only on (seed, n).  Each chunk is drawn and evaluated whole, and only
        the accepted points still wanted are copied out of it.
        """
        if n < 1:
            raise ValueError("n >= 1 required")
        out = None
        total = 0
        ci = 0
        while total < n:
            u = spawn_rng(seed, 0, ci).random((3, DEFAULT_CHUNK))
            x, y, z = u
            z *= self.tau_max
            pid = self.base.piece_of_arrays(x, y)
            take = np.flatnonzero(z < self.roof.tau_arrays(x, y, pid))[: n - total]
            if out is None:
                out = [np.empty(n, dtype=a.dtype) for a in (x, y, z, pid)]
            for dst, src in zip(out, (x, y, z, pid)):
                np.take(src, take, out=dst[total:total + take.size])
            total += take.size
            ci += 1
            del u, x, y, z, pid, take  # free the chunk before the next draw
        return FlowPointBatch(*out)


def standard_flow(tau_minus: float = 1.0) -> SuspensionFlow:
    base = standard_map()
    return SuspensionFlow(base, build_roof(base, tau_minus))


# ---------------------------------------------------------------------------
# perturbed family: map = standard composed with a vertical shear
# ---------------------------------------------------------------------------


# largest shear amplitude of the perturbed family
EPSILON_MAX = 0.05


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
        if not (0.0 <= epsilon <= EPSILON_MAX):
            raise ValueError(f"epsilon in [0, {EPSILON_MAX}] required")
        self.epsilon = float(epsilon)
        self._labels = [(b, k, m) for b in (1, 2) for k in (0, 1) for m in (-1, 0, 1)]
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        self._label_table = np.array(self._labels, dtype=np.int64).T  # rows branch, k, m

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

    def apply_arrays(self, x, y, pid):
        """apply_arrays of PiecewiseAffineTorusMap: the labels (branch, k, m)
        of the pieces pid select each point's image formula."""
        branch, k, m = self._label_table[:, pid]
        f1, f2, _ = self.lift_components(x, y, branch, m)
        u, v = f1 % 1.0, f2 - k
        return u, v, self.piece_of_arrays(u, v)

    def apply(self, x, y):
        pid = np.asarray([self.piece_of(x, y)])
        u, v, pid = self.apply_arrays(np.asarray([x]), np.asarray([y]), pid)
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

    def sample_jacobians(self) -> list[np.ndarray]:
        """Jacobians at the midpoints of 64 equal cells in x (they do not
        depend on y)."""
        xs = (np.arange(64) + 0.5) / 64
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


_SHARED_STANDARD_MAP = standard_map()


class PerturbedRoof:
    """Roof for the perturbed map by line integration of the closed 1-form.

    On each (branch, m) the image lift is entire, so the potential is the
    L-path integral (x-leg then y-leg) from an anchor; path independence is
    checked against the transposed path at construction.  The wrapped pieces
    add k * (f1 lift) exactly as in the affine case.  Constants are
    normalized per (branch, m) region from a deterministic grid (plus seam
    bands so thin shear-wrap regions are sampled); a region the grid misses
    has no constant, and evaluating the roof there raises UnnormalizedRegion.
    """

    GRID = 256  # midpoints per axis of the normalization grid

    def __init__(self, pmap: PerturbedTorusMap, tau_minus: float, nodes: int = 64):
        self.pmap = pmap
        self.tau_minus = float(tau_minus)
        self.nodes = int(nodes)
        self.anchor = (0.25, 0.25)
        self._const: dict[tuple[int, int], float] = {}
        self._normalize()
        self._check_path_independence()

    # the closed 1-form on the (branch, m) lift is a dx + b dy with
    # a = y - f2 (1 + g) and b = -f2, in the operation order of
    # PerturbedTorusMap.lift_components
    def _f2(self, x, y, branch, m):
        return 0.5 * x + 1.5 * (self.pmap._shear(x, y) - float(m)) - 0.5 * float(branch == 2)

    def _a(self, x, y, branch, m):
        g = 2.0 * np.pi * self.pmap.epsilon * np.cos(2.0 * np.pi * x)
        return y - self._f2(x, y, branch, m) * (1.0 + g)

    def _potential_raw(self, x, y, branch, m, x_first: bool = True):
        """L-path integral of the (branch, m) lift from the anchor."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ax, ay = self.anchor
        t, w = gl_interval(0.0, 1.0, self.nodes)

        def leg_x(x1, yc):
            xs = ax + (x1 - ax)[:, None] * t
            return (x1 - ax) * np.sum(self._a(xs, yc, branch, m) * w, axis=-1)

        def leg_y(y1, xc):
            ys = ay + (y1 - ay)[:, None] * t
            return (y1 - ay) * np.sum(-self._f2(xc, ys, branch, m) * w, axis=-1)

        if x_first:
            # the x-leg runs at the anchor's y, so it depends on x alone
            xu, inv = np.unique(x, return_inverse=True)
            return leg_x(xu, ay)[inv] + leg_y(y, x[:, None])
        return leg_y(y, ax) + leg_x(x, y[:, None])

    def _normalization_points(self):
        xs = (np.arange(self.GRID) + 0.5) / self.GRID
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

    def _normalize(self):
        gx, gy = self._normalization_points()
        pid = self.pmap.piece_of_arrays(gx, gy)  # raises on an unregistered label
        labels = np.asarray(self.pmap._labels)[pid]  # rows (branch, k, m)
        regions, region = np.unique(labels[:, ::2], axis=0, return_inverse=True)
        full = np.empty(gx.shape)
        for j, (b, m) in enumerate(regions.tolist()):
            sel = region == j
            x, y = gx[sel], gy[sel]
            raw = self._potential_raw(x, y, b, m)
            self._const[(b, m)] = self.tau_minus - float(raw.min())
            f1, _, _ = self.pmap.lift_components(x, y, b, m)
            full[sel] = raw + self._const[(b, m)] + labels[sel, 1] * f1
        self.tau_max = float(full.max()) * (1.0 + 1e-3) + 1e-6
        self.volume = float(full[: self.GRID ** 2].mean())  # midpoint rule

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

    def tau_arrays(self, x, y, pid):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        pid = np.asarray(pid)
        out = np.empty(x.shape)
        for (b, k, m), i in self.pmap._index.items():
            sel = pid == i
            if not np.any(sel):
                continue
            if (b, m) not in self._const:
                raise UnnormalizedRegion(
                    f"roof region (branch {b}, m {m}) holds no normalization point"
                )
            f1, _, _ = self.pmap.lift_components(x[sel], y[sel], b, m)
            out[sel] = self._potential_raw(x[sel], y[sel], b, m) + self._const[(b, m)] + k * f1
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
            _, _, (df1_x, _) = self.pmap.lift_components(x[sel], y[sel], b, m)
            gx[sel] = self._a(x[sel], y[sel], b, m) + k * df1_x
            gy[sel] = -self._f2(x[sel], y[sel], b, m) + k
        return gx, gy


def build_perturbed_map(epsilon: float, tau_minus: float = 1.0) -> SuspensionFlow:
    """Suspension flow for the sheared family; epsilon = 0 recovers the
    standard map's flow up to quadrature error in the roof."""
    pmap = PerturbedTorusMap(epsilon)
    roof = PerturbedRoof(pmap, tau_minus)
    return SuspensionFlow(pmap, roof)
