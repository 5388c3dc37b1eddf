"""Cone fields, expansion constants, transversality, and complexity counts.

Planar cones here are pairs of linear functionals: C = {v: |L1 v| <= a |L2 v|}
with aperture a.  The default (L1, L2) = ((1,-1), (1,2)) gives the family
C_a = {|x - y| <= a |x + 2y|} whose axis is the expanding direction (1,1);
swapping the functionals gives the matching stable-side family around
(1, -1/2).  Expansion constants are evaluated on cone boundary rays (for a
2-D cone the extrema of |Mv|/|v| over the cone sit on its boundary; this is
spot-checked densely at n = 1).  Complexity counts refine the base partition
exactly in rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _polygon as pg
from .errors import ConeNotInvariant


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone2:
    """Planar cone {v: |transverse . v| <= aperture * |axial . v|}.

    The general form is (axis direction, half-aperture): the axis is the
    kernel of the transverse functional and the half-aperture is measured in
    the seminorm pair (|transverse . v|, |axial . v|).
    """

    aperture: float
    transverse: tuple[float, float] = (1.0, -1.0)
    axial: tuple[float, float] = (1.0, 2.0)

    def __post_init__(self):
        if self.aperture <= 0:
            raise ValueError("aperture > 0 required")

    def _l1(self, v):
        return self.transverse[0] * v[..., 0] + self.transverse[1] * v[..., 1]

    def _l2(self, v):
        return self.axial[0] * v[..., 0] + self.axial[1] * v[..., 1]

    def aperture_of(self, v) -> np.ndarray:
        """|L1 v| / |L2 v|; inf on the L2 kernel."""
        v = np.asarray(v, dtype=float)
        num = np.abs(self._l1(v))
        den = np.abs(self._l2(v))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, num / den, np.inf)
        return out

    def axis_direction(self) -> np.ndarray:
        d = np.array([-self.transverse[1], self.transverse[0]])
        return d / np.linalg.norm(d)

    def boundary_rays(self) -> np.ndarray:
        """Two unit vectors spanning the cone boundary (one per sign)."""
        rays = []
        t = np.asarray(self.transverse)
        ax = np.asarray(self.axial)
        for s in (1.0, -1.0):
            f = t - s * self.aperture * ax  # kernel of L1 - s a L2
            d = np.array([-f[1], f[0]])
            d /= np.linalg.norm(d)
            rays.append(d)
        return np.stack(rays)

    def sample_directions(self, n: int) -> np.ndarray:
        """n unit vectors filling the cone, boundary rays included."""
        if n < 2:
            raise ValueError("n >= 2 required")
        u = np.linspace(-self.aperture, self.aperture, n)[:, None]
        f = np.asarray(self.transverse) - u * np.asarray(self.axial)  # L1 v = u L2 v
        d = np.stack([-f[:, 1], f[:, 0]], axis=1)
        # sqrt(d . d) row by row: the bits of np.linalg.norm on one ray
        return d / np.sqrt(np.vecdot(d, d))[:, None]

    def stable_partner(self) -> "Cone2":
        """Cone with the two functionals swapped (same aperture)."""
        return Cone2(self.aperture, transverse=self.axial, axial=self.transverse)


@dataclass(frozen=True)
class HyperbolicityParams:
    lambda_u: float
    lambda_s: float
    Lambda_u: float
    beta: float
    t00: float

    def __post_init__(self):
        if not (self.lambda_u > 1 > self.lambda_s > 0):
            raise ValueError("need lambda_u > 1 > lambda_s > 0")
        if self.Lambda_u < self.lambda_u:
            raise ValueError("need Lambda_u >= lambda_u")
        if not (0 <= self.beta < 1):
            raise ValueError("beta in [0, 1) required")


def default_params(flow, beta: float = 0.1, aperture: float = 0.01, n: int = 1) -> HyperbolicityParams:
    cone = Cone2(aperture)
    lu, ls, Lu = expansion_constants(flow.base, cone, n)
    return HyperbolicityParams(
        lambda_u=lu ** (1.0 / n), lambda_s=ls ** (1.0 / n), Lambda_u=Lu ** (1.0 / n),
        beta=beta, t00=flow.tau_minus / 4.0,
    )


# ---------------------------------------------------------------------------
# cone invariance and expansion
# ---------------------------------------------------------------------------


@dataclass
class ConeInvarianceReport:
    aperture: float
    max_image_aperture: float
    margin: float
    per_piece: list[float]
    n_rays: int

    @property
    def ok(self) -> bool:
        return self.margin > 0


def check_cone_invariance(base_map, cone: Cone2, n_rays: int = 64) -> ConeInvarianceReport:
    """Image apertures of cone directions under every piece matrix.

    margin = a - max image aperture; margin <= 0 signals failure (the map is
    not strictly cone-invariant); no exception is raised here.
    """
    if n_rays < 16:
        raise ValueError("n_rays >= 16 required")
    dirs = cone.sample_directions(n_rays)
    per_piece = []
    for m in base_map.sample_jacobians():
        img = dirs @ np.asarray(m).T
        per_piece.append(float(cone.aperture_of(img).max()))
    worst = max(per_piece)
    return ConeInvarianceReport(
        aperture=cone.aperture,
        max_image_aperture=worst,
        margin=cone.aperture - worst,
        per_piece=per_piece,
        n_rays=n_rays,
    )


def _word_products(mats: list[np.ndarray], n: int, cap: int = 4096) -> list[np.ndarray]:
    """Products over all length-n words of the distinct matrices.

    Raises ValueError when there are more than cap words.
    """
    uniq = []
    for m in mats:
        if not any(np.array_equal(m, u) for u in uniq):
            uniq.append(np.asarray(m, dtype=float))
    k = len(uniq)
    total = k ** n
    if total > cap:
        raise ValueError(f"{total} words of length {n} exceed the cap {cap}")
    out = []
    for w in range(total):
        m = np.eye(2)
        ww = w
        for _ in range(n):
            m = uniq[ww % k] @ m
            ww //= k
        out.append(m)
    return out


def expansion_constants(base_map, cone: Cone2, n: int = 1, dense_check: int = 4096):
    """(lambda_u(n), lambda_s(n), Lambda_u(n)) over length-n words.

    lambda_u / Lambda_u: min / max total expansion |Mv| over unit v in the
    unstable cone; lambda_s: max |Mv| over unit v in the stable partner cone.
    Evaluated on boundary rays, with a dense spot-check at n = 1.

    Raises ConeNotInvariant when the cone loses aperture under some piece.
    """
    inv = check_cone_invariance(base_map, cone, max(16, dense_check // 16))
    if inv.margin < -1e-12:
        raise ConeNotInvariant(
            f"aperture grows from {cone.aperture} to {inv.max_image_aperture}"
        )
    words = _word_products(base_map.sample_jacobians(), n)
    u_rays = cone.boundary_rays()
    s_rays = cone.stable_partner().boundary_rays()
    lam_u, Lam_u, lam_s = math.inf, 0.0, 0.0
    for m in words:
        gu = np.linalg.norm(u_rays @ m.T, axis=1)
        gs = np.linalg.norm(s_rays @ m.T, axis=1)
        lam_u = min(lam_u, float(gu.min()))
        Lam_u = max(Lam_u, float(gu.max()))
        lam_s = max(lam_s, float(gs.max()))
    if n == 1 and dense_check:
        du = cone.sample_directions(dense_check)
        ds = cone.stable_partner().sample_directions(dense_check)
        for m in words:
            gu = np.linalg.norm(du @ m.T, axis=1)
            gs = np.linalg.norm(ds @ m.T, axis=1)
            lam_u = min(lam_u, float(gu.min()))
            Lam_u = max(Lam_u, float(gu.max()))
            lam_s = max(lam_s, float(gs.max()))
    return lam_u, lam_s, Lam_u


def check_bunching(params: HyperbolicityParams) -> tuple[bool, float]:
    """Evaluate lambda_s^(1-beta) * lambda_u^(-1) * Lambda_u^(1+beta) vs 1.

    Returns (satisfied, margin) with margin = 1 - value (positive is good).
    """
    val = (
        params.lambda_s ** (1.0 - params.beta)
        * params.lambda_u ** (-1.0)
        * params.Lambda_u ** (1.0 + params.beta)
    )
    return val < 1.0, 1.0 - val


# ---------------------------------------------------------------------------
# transversality of discontinuity images
# ---------------------------------------------------------------------------


def _proj_angle(v) -> float:
    """Direction angle mod pi."""
    a = math.atan2(v[1], v[0])
    return a % math.pi


def _proj_dist(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


@dataclass
class TransversalityReport:
    min_clearance: float
    per_segment: list[float]
    n_samples: int

    @property
    def ok(self) -> bool:
        return self.min_clearance > 0


def check_transversality(flow, stable_cone: Cone2, samples_per_segment: int = 64) -> TransversalityReport:
    """Angular clearance of discontinuity-image tangents from the stable cone.

    For each map-discontinuity segment, pushes the tangent forward with the
    local Jacobian at sampled points and measures the projective angular
    distance to the stable cone (negative when the tangent falls inside).
    """
    base = flow.base
    segs = base.map_discontinuity_segments()
    b1, b2 = (_proj_angle(r) for r in stable_cone.boundary_rays())
    axis = _proj_angle(stable_cone.axis_direction())
    half = max(_proj_dist(b1, axis), _proj_dist(b2, axis))
    per_segment = []
    for p0, p1, _label in segs:
        tang = (p1[0] - p0[0], p1[1] - p0[1])
        worst = math.inf
        for i in range(samples_per_segment):
            s = (i + 0.5) / samples_per_segment
            x = p0[0] + s * tang[0]
            y = p0[1] + s * tang[1]
            m = base.jacobian_at(x % 1.0, y % 1.0)
            w = m @ np.asarray(tang, dtype=float)
            clearance = _proj_dist(_proj_angle(w), axis) - half
            worst = min(worst, clearance)
        per_segment.append(worst)
    return TransversalityReport(
        min_clearance=min(per_segment), per_segment=per_segment, n_samples=samples_per_segment
    )


# ---------------------------------------------------------------------------
# complexity counts
# ---------------------------------------------------------------------------


@dataclass
class ComplexityReport:
    n: int
    D_b: int
    D_e: int
    rate_b: float
    rate_e: float
    cells_b: int = 0
    cells_e: int = 0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "D_b": self.D_b, "D_e": self.D_e,
            "rate_b": self.rate_b, "rate_e": self.rate_e,
            "cells_b": self.cells_b, "cells_e": self.cells_e,
        }


def _refine_level(cells: list[pg.Polygon], branches) -> list[pg.Polygon]:
    """Split each cell by the branches' clip polygons and pull every part
    back through its branch's affine map.

    clip_convex drops repeated and collinear vertices, so a part with three
    or more vertices has positive exact area and is kept, however small.
    """
    out = []
    for q in cells:
        for clip, aff in branches:
            r = pg.clip_convex(q, clip)
            if len(r) >= 3:
                out.append(pg.affine_image(r, aff))
    return out


def _max_incidence(cells: list[pg.Polygon]) -> int:
    """Max number of distinct cell closures meeting one torus point.

    The cells are convex CCW polygons in [0,1]^2, and the maximum is taken
    at a cell vertex.  Each vertex, reduced mod 1 to a key, is hashed to
    the cells that have it as a vertex (exact: a vertex lies in its cell's
    closure).  A cell whose closure holds one of a key's representatives in
    [0,1]^2 without having it as a vertex is a T-junction; a float prefilter
    (bounding box, then edge cross products >= -1e-9) finds the candidates
    and the exact test confirms them (de Berg et al., Computational
    Geometry, ch. 2).
    """
    if not cells:
        return 0
    incid: dict[pg.Vertex, set[int]] = {}
    for ci, c in enumerate(cells):
        for x, y, w in c:
            incid.setdefault((x % w, y % w, w), set()).add(ci)
    # representatives of every key in [0,1]^2: a coordinate 0 is also 1
    reps, owner = [], []
    for key in incid:
        x, y, w = key
        for px in (x, w) if x == 0 else (x,):
            for py in (y, w) if y == 0 else (y,):
                reps.append((px, py, w))
                owner.append(key)
    rf = np.array([(x / w, y / w) for x, y, w in reps])
    by_x = np.argsort(rf[:, 0], kind="stable")  # a cell's box takes an x slice
    xs = rf[by_x, 0]
    for ci, c in enumerate(cells):
        cf = np.array([(x / w, y / w) for x, y, w in c])
        lo, hi = cf.min(axis=0) - 1e-9, cf.max(axis=0) + 1e-9
        cand = by_x[np.searchsorted(xs, lo[0], "left"):np.searchsorted(xs, hi[0], "right")]
        cand = cand[(rf[cand, 1] >= lo[1]) & (rf[cand, 1] <= hi[1])]
        q = rf[cand]
        e = np.roll(cf, -1, axis=0) - cf
        cross = e[:, :1] * (q[:, 1] - cf[:, 1:2]) - e[:, 1:2] * (q[:, 0] - cf[:, :1])
        for ri in cand[np.all(cross >= -1e-9, axis=0)]:
            cells_at = incid[owner[ri]]
            if ci not in cells_at and pg.point_in_closed(c, reps[ri]):
                cells_at.add(ci)
    return max(len(s) for s in incid.values())


def _refinements(base_map, n_max: int):
    """The b and e cells of levels 1..n_max: the forward-image cells come
    from the backward refinement by the inverse branches and vice versa."""
    pieces, images = base_map.pieces, base_map.image_polygons
    fwd = [(img, pg.affine(*p.inverse)) for p, img in zip(pieces, images)]
    bwd = [(p.polygon, pg.affine(p.matrix, p.offset)) for p in pieces]
    cells_b, cells_e = [p.polygon for p in pieces], list(images)
    for n in range(1, n_max + 1):
        if n > 1:
            cells_b = _refine_level(cells_b, fwd)
            cells_e = _refine_level(cells_e, bwd)
        yield cells_b, cells_e


def _complexity_exact(base_map, n_max: int) -> list[ComplexityReport]:
    reports = []
    for n, (cells_b, cells_e) in enumerate(_refinements(base_map, n_max), start=1):
        db = _max_incidence(cells_b)
        de = _max_incidence(cells_e)
        reports.append(
            ComplexityReport(
                n=n, D_b=db, D_e=de,
                rate_b=math.log(db) / n, rate_e=math.log(de) / n,
                cells_b=len(cells_b), cells_e=len(cells_e),
            )
        )
    return reports


def complexity_counts(flow, n_max: int) -> list[ComplexityReport]:
    """Complexity reports for n = 1..n_max (n_max <= 12), from the exact
    rational refinement of the base partition: D_b(n) and D_e(n) are the
    most cell closures of the n-step refinements meeting one torus point.
    """
    base = flow.base
    # the refinement reads the exact pieces, which only a piecewise affine map has
    if not hasattr(base, "pieces"):
        raise ValueError("complexity counts need a piecewise affine map")
    if n_max > 12:
        raise ValueError("complexity counts support n_max <= 12")
    return _complexity_exact(base, n_max)
