"""Exact convex-polygon geometry in integer homogeneous coordinates.

A vertex is a tuple (X, Y, W) of ints with W > 0 and gcd(X, Y, W) = 1, the
point (X / W, Y / W).  That form is unique, so equal points compare and hash
equal, and a vertex taken mod 1 keys as (X mod W, Y mod W, W).  A line is an
int triple (A, B, C), the set A X + B Y + C W = 0, and the side of a vertex
is the sign of that form.  The line through p and q is their cross product,
positive on the left of p -> q.  Every predicate is then one integer sign,
with none of the per-operation gcd of fractions.Fraction (Yap, "Towards
exact geometric computation", CGTA 7, 1997).  Fraction appears only in what
the roof keeps: its coefficients, extrema and integral.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vertex = tuple[int, int, int]
Polygon = list[Vertex]
Line = tuple[int, int, int]
# rows (a, b, c), (d, e, f) over den: (x, y) -> ((a x + b y + c) / den, (d x + e y + f) / den)
Affine = tuple[tuple[int, int, int], tuple[int, int, int], int]

_QUADRATIC_KEYS = ("const", "lx", "ly", "qxx", "qxy", "qyy")


def over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals (ints, Fractions or floats, exactly) as ints over their
    least common denominator."""
    fr = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in fr))
    return [v.numerator * (den // v.denominator) for v in fr], den


def _normal(x: int, y: int, w: int) -> Vertex:
    """The vertex (x, y, w) scaled to w > 0 and gcd 1 (w != 0)."""
    g = math.gcd(x, y, w)
    if w < 0:
        g = -g
    return (x // g, y // g, w // g)


def _crossing(p: Vertex, q: Vertex, sp: int, sq: int) -> Vertex:
    """The point between p and q where a linear form with values sp and sq
    there (strictly opposite signs) vanishes."""
    return _normal(sp * q[0] - sq * p[0], sp * q[1] - sq * p[1], sp * q[2] - sq * p[2])


def line_through(p: Vertex, q: Vertex) -> Line:
    """The line through p and q, positive on the left of p -> q."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def grid_rect(i: int, j: int, nx: int, ny: int) -> Polygon:
    """The rectangle [i/nx, (i+1)/nx] x [j/ny, (j+1)/ny], counterclockwise."""
    w = nx * ny
    return [_normal(a * ny, b * nx, w) for a, b in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1))]


def dedupe(poly: Sequence[Vertex]) -> Polygon:
    """Drop repeated and collinear vertices (clipping can produce both)."""
    pts = [p for i, p in enumerate(poly) if p != poly[i - 1]]
    out: Polygon = []
    n = len(pts)
    for i in range(n):
        c = pts[(i + 1) % n]
        a, b, w = line_through(pts[i - 1], pts[i])
        if a * c[0] + b * c[1] + w * c[2] != 0:
            out.append(pts[i])
    return out


def clip_halfplane(poly: Sequence[Vertex], line: Line) -> Polygon:
    """Clip to the closed side A X + B Y + C W >= 0.  Subject must be convex CCW."""
    out: Polygon = []
    n = len(poly)
    if n == 0:
        return out
    a, b, c = line
    vals = [a * x + b * y + c * w for x, y, w in poly]
    for i in range(n):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % n], vals[(i + 1) % n]
        if vp >= 0:
            out.append(p)
        if (vp > 0 > vq) or (vp < 0 < vq):
            out.append(_crossing(p, q, vp, vq))
    return dedupe(out)


def clip_convex(subject: Sequence[Vertex], clipper: Sequence[Vertex]) -> Polygon:
    """Exact intersection of two convex CCW polygons (Sutherland-Hodgman).

    The subject's vertex signs against the clipper's edge lines settle two
    cases without clipping: every vertex on the closed outer side of one
    edge leaves no area, and every vertex inside all of them leaves the
    subject whole.
    """
    if not subject:
        return []
    n = len(clipper)
    lines = [line_through(clipper[i], clipper[(i + 1) % n]) for i in range(n)]
    sides = [[a * x + b * y + c * w for x, y, w in subject] for a, b, c in lines]
    if any(max(s) <= 0 for s in sides):
        return []
    if all(min(s) >= 0 for s in sides):
        return dedupe(subject)
    out = list(subject)
    for line in lines:
        out = clip_halfplane(out, line)
        if not out:
            return []
    return out


def affine(matrix, offset) -> Affine:
    """The rational map v -> matrix v + offset over one common denominator."""
    (m00, m01), (m10, m11) = matrix
    (a, b, c, d, e, f), den = over_common_denominator((m00, m01, offset[0], m10, m11, offset[1]))
    return (a, b, c), (d, e, f), den


def affine_image(poly: Sequence[Vertex], aff: Affine) -> Polygon:
    """Image of a CCW polygon, kept CCW (reversed when the map flips orientation)."""
    (a, b, c), (d, e, f), den = aff
    img = [_normal(a * x + b * y + c * w, d * x + e * y + f * w, den * w) for x, y, w in poly]
    return img if a * e - b * d > 0 else img[::-1]


def point_in_closed(poly: Sequence[Vertex], p: Vertex) -> bool:
    x, y, w = p
    for i in range(len(poly)):
        a, b, c = line_through(poly[i - 1], poly[i])
        if a * x + b * y + c * w < 0:
            return False
    return True


def integrate_quadratic(coeffs, poly: Sequence[Vertex]) -> Fraction:
    """Integrate c + lx*x + ly*y + qxx*x^2 + qxy*x*y + qyy*y^2 exactly over a
    CCW polygon, from the edge sums of the moments of 1, x, y, x^2, xy, y^2."""
    pts = [(Fraction(x, w), Fraction(y, w)) for x, y, w in poly]
    m = [Fraction(0)] * 6
    for i in range(len(pts)):
        (x0, y0), (x1, y1) = pts[i - 1], pts[i]
        c = x0 * y1 - x1 * y0
        m[0] += c
        m[1] += (x0 + x1) * c
        m[2] += (y0 + y1) * c
        m[3] += (x0 * x0 + x0 * x1 + x1 * x1) * c
        m[4] += (2 * x0 * y0 + x0 * y1 + x1 * y0 + 2 * x1 * y1) * c
        m[5] += (y0 * y0 + y0 * y1 + y1 * y1) * c
    scale = (2, 6, 6, 12, 24, 12)
    return sum(Fraction(coeffs.get(k, 0)) * v / s for k, v, s in zip(_QUADRATIC_KEYS, m, scale))


def quadratic_extrema_over_polygon(coeffs, poly: Sequence[Vertex]) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of a quadratic over a convex CCW polygon.

    Candidates: vertices, the critical point strictly inside each edge, and
    the interior critical point when the Hessian is invertible.  This covers
    every quadratic (the restriction to a face has its extremum at a critical
    point of that face or on its boundary).  With the coefficients as ints
    over den, a vertex (X, Y, W) has value N / (den W^2) for an integer
    quadratic form N, so candidates compare by cross-multiplying.
    """
    ints, den = over_common_denominator(coeffs.get(key, 0) for key in _QUADRATIC_KEYS)
    k, lx, ly, qxx, qxy, qyy = ints
    candidates = list(poly)
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        dx, dy = q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]
        # the gradient along the edge is a linear form; it changes sign
        # strictly between p and q exactly when the edge has a critical point
        a, b, c = 2 * qxx * dx + qxy * dy, qxy * dx + 2 * qyy * dy, lx * dx + ly * dy
        sp = a * p[0] + b * p[1] + c * p[2]
        sq = a * q[0] + b * q[1] + c * q[2]
        if (sp > 0 > sq) or (sp < 0 < sq):
            candidates.append(_crossing(p, q, sp, sq))
    det = 4 * qxx * qyy - qxy * qxy
    if det != 0:
        centre = _normal(qxy * ly - 2 * qyy * lx, qxy * lx - 2 * qxx * ly, det)
        if point_in_closed(poly, centre):
            candidates.append(centre)
    lo = hi = None
    for x, y, w in candidates:
        v = (k * w * w + lx * x * w + ly * y * w + qxx * x * x + qxy * x * y + qyy * y * y, w * w)
        if lo is None or v[0] * lo[1] < lo[0] * v[1]:
            lo = v
        if hi is None or v[0] * hi[1] > hi[0] * v[1]:
            hi = v
    return Fraction(lo[0], den * lo[1]), Fraction(hi[0], den * hi[1])
