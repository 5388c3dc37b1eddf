"""Exact rational geometry for convex polygons on the unit-square lift.

Everything here works over fractions.Fraction so that piece partitions,
arrangement refinements and closure-incidence counts are exact.  Floats are
converted through Fraction(float), which is lossless for binary doubles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Point = tuple[Fraction, Fraction]
Polygon = list[Point]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_point(p) -> Point:
    return (frac(p[0]), frac(p[1]))


def polygon(points: Iterable) -> Polygon:
    return ensure_ccw([frac_point(p) for p in points])


def signed_area2(poly: Sequence[Point]) -> Fraction:
    """Twice the signed area (positive for counterclockwise)."""
    s = Fraction(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def ensure_ccw(poly: Polygon) -> Polygon:
    if signed_area2(poly) < 0:
        return poly[::-1]
    return poly


def dedupe(poly: Sequence[Point]) -> Polygon:
    """Drop repeated and collinear vertices (clipping can produce both)."""
    pts = [p for i, p in enumerate(poly) if p != poly[(i - 1) % len(poly)]]
    out: Polygon = []
    n = len(pts)
    for i in range(n):
        a, b, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross != 0:
            out.append(b)
    return out


def clip_halfplane(poly: Sequence[Point], a: Fraction, b: Fraction, c: Fraction) -> Polygon:
    """Clip to {(x, y): a*x + b*y + c >= 0}.  Subject must be convex CCW."""
    out: Polygon = []
    n = len(poly)
    if n == 0:
        return out
    vals = [a * p[0] + b * p[1] + c for p in poly]
    for i in range(n):
        p, vp = poly[i], vals[i]
        q, vq = poly[(i + 1) % n], vals[(i + 1) % n]
        if vp >= 0:
            out.append(p)
        if (vp > 0 > vq) or (vp < 0 < vq):
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return dedupe(out)


def clip_convex(subject: Sequence[Point], clipper: Sequence[Point]) -> Polygon:
    """Exact intersection of two convex CCW polygons (Sutherland-Hodgman)."""
    out = list(subject)
    n = len(clipper)
    for i in range(n):
        if not out:
            return []
        x0, y0 = clipper[i]
        x1, y1 = clipper[(i + 1) % n]
        # inside of edge (x0,y0)->(x1,y1) for a CCW clipper
        a, b = y0 - y1, x1 - x0
        c = -(a * x0 + b * y0)
        out = clip_halfplane(out, a, b, c)
    return out


def affine_image(poly: Sequence[Point], m, offset) -> Polygon:
    m00, m01 = frac(m[0][0]), frac(m[0][1])
    m10, m11 = frac(m[1][0]), frac(m[1][1])
    ox, oy = frac(offset[0]), frac(offset[1])
    return ensure_ccw(
        [(m00 * x + m01 * y + ox, m10 * x + m11 * y + oy) for x, y in poly]
    )


def point_in_closed(poly: Sequence[Point], p: Point) -> bool:
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
        if cross < 0:
            return False
    return True


def polygon_moments(poly: Sequence[Point]) -> dict[str, Fraction]:
    """Exact integrals of 1, x, y, x^2, xy, y^2 over a CCW polygon."""
    one = x = y = xx = xy = yy = Fraction(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        c = x0 * y1 - x1 * y0
        one += c
        x += (x0 + x1) * c
        y += (y0 + y1) * c
        xx += (x0 * x0 + x0 * x1 + x1 * x1) * c
        yy += (y0 * y0 + y0 * y1 + y1 * y1) * c
        xy += (2 * x0 * y0 + x0 * y1 + x1 * y0 + 2 * x1 * y1) * c
    return {
        "1": one / 2,
        "x": x / 6,
        "y": y / 6,
        "xx": xx / 12,
        "xy": xy / 24,
        "yy": yy / 12,
    }


def integrate_quadratic(coeffs: dict[str, Fraction], poly: Sequence[Point]) -> Fraction:
    """Integrate c + lx*x + ly*y + qxx*x^2 + qxy*x*y + qyy*y^2 exactly."""
    m = polygon_moments(poly)
    return (
        frac(coeffs.get("const", 0)) * m["1"]
        + frac(coeffs.get("lx", 0)) * m["x"]
        + frac(coeffs.get("ly", 0)) * m["y"]
        + frac(coeffs.get("qxx", 0)) * m["xx"]
        + frac(coeffs.get("qxy", 0)) * m["xy"]
        + frac(coeffs.get("qyy", 0)) * m["yy"]
    )


def _eval_quadratic(coeffs, x: Fraction, y: Fraction) -> Fraction:
    return (
        frac(coeffs.get("const", 0))
        + frac(coeffs.get("lx", 0)) * x
        + frac(coeffs.get("ly", 0)) * y
        + frac(coeffs.get("qxx", 0)) * x * x
        + frac(coeffs.get("qxy", 0)) * x * y
        + frac(coeffs.get("qyy", 0)) * y * y
    )


def quadratic_extrema_over_polygon(coeffs, poly: Sequence[Point]):
    """Exact (min, argmin, max, argmax) of a quadratic over a convex polygon.

    Candidates: vertices, one-dimensional critical points on each edge, and
    the interior critical point when the Hessian is invertible.  This covers
    every quadratic (the restriction to a face has its extremum at a critical
    point of that face or on its boundary).
    """
    qxx, qxy, qyy = (frac(coeffs.get(k, 0)) for k in ("qxx", "qxy", "qyy"))
    lx, ly = frac(coeffs.get("lx", 0)), frac(coeffs.get("ly", 0))
    candidates: list[Point] = list(poly)
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        dx, dy = q[0] - p[0], q[1] - p[1]
        # g(t) = f(p + t d): quadratic coefficient and linear coefficient in t
        a2 = qxx * dx * dx + qxy * dx * dy + qyy * dy * dy
        a1 = (2 * qxx * p[0] + qxy * p[1] + lx) * dx + (2 * qyy * p[1] + qxy * p[0] + ly) * dy
        if a2 != 0:
            t = -a1 / (2 * a2)
            if 0 < t < 1:
                candidates.append((p[0] + t * dx, p[1] + t * dy))
    det = 4 * qxx * qyy - qxy * qxy
    if det != 0:
        cx = (-2 * qyy * lx + qxy * ly) / det
        cy = (-2 * qxx * ly + qxy * lx) / det
        if point_in_closed(poly, (cx, cy)):
            candidates.append((cx, cy))
    values = [(_eval_quadratic(coeffs, px, py), (px, py)) for px, py in candidates]
    vmin, amin = min(values, key=lambda t: t[0])
    vmax, amax = max(values, key=lambda t: t[0])
    return vmin, amin, vmax, amax


def rect_polygon(x0, x1, y0, y1) -> Polygon:
    return polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
