"""The integer homogeneous kernels of contactflow._polygon against the
Fraction kernels they replaced (tests/helpers.py).

Polygons are random rational convex hulls, half-planes random rational
lines plus planted ones: through a vertex, along an edge, keeping the whole
polygon and keeping nothing.  Slivers of exact area below 1e-16 ride along.
Results must agree as exact vertex cycles: the same points in the same
order, each in its normal form (W > 0, gcd(X, Y, W) = 1).
"""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from contactflow import _polygon as pg
from helpers import (
    affine_image,
    clip_convex,
    clip_halfplane,
    fraction_polygon,
    homogeneous_polygon,
    point_in_closed,
    quadratic_extrema_over_polygon,
    signed_area2,
    vertex,
)

# a coarse grid makes shared vertices and collinear edges common
coords = st.one_of(st.integers(-3, 3).map(lambda k: Fraction(k, 2)),
                   st.fractions(-3, 3, max_denominator=60))
points = st.tuples(coords, coords)
small = st.fractions(-4, 4, max_denominator=12)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(pts):
    """Counterclockwise hull without collinear vertices (monotone chain)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return []
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


@st.composite
def convex_polygons(draw):
    """A CCW rational convex polygon; about one in four is a sliver of
    exact area below 1e-16, the rest are hulls of random points."""
    if draw(st.integers(0, 3)) == 0:
        p, q = draw(points), draw(points)
        if p == q:
            q = (p[0] + 1, p[1])
        eps = Fraction(1, 10 ** draw(st.integers(18, 24)))
        m = ((p[0] + q[0]) / 2 - eps * (q[1] - p[1]), (p[1] + q[1]) / 2 + eps * (q[0] - p[0]))
        poly = [p, q, m]
        assert 0 < signed_area2(poly) / 2 < 1e-16
    else:
        poly = convex_hull(draw(st.lists(points, min_size=3, max_size=8)))
        if not poly:
            poly = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    start = draw(st.integers(0, len(poly) - 1))
    return poly[start:] + poly[:start]


def _value(line, p):
    a, b, c = line
    return a * p[0] + b * p[1] + c


@st.composite
def planted_lines(draw, poly):
    """A rational line (a, b, c), kept side a x + b y + c >= 0, planted
    against poly: through a vertex, along an edge, keeping all of it,
    keeping none of it, or at random."""
    kind = draw(st.sampled_from(["vertex", "edge", "whole", "empty", "random"]))
    n = len(poly)
    i = draw(st.integers(0, n - 1))
    if kind == "edge":
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % n]
        a, b = y0 - y1, x1 - x0
        line = (a, b, -(a * x0 + b * y0))
        return line if draw(st.booleans()) else tuple(-v for v in line)
    a, b = draw(st.tuples(small, small).filter(lambda ab: ab != (0, 0)))
    if kind == "vertex":
        return a, b, -(a * poly[i][0] + b * poly[i][1])
    if kind == "random":
        return a, b, draw(small)
    vals = [a * x + b * y for x, y in poly]
    gap = draw(st.fractions(Fraction(1, 10 ** 20), 1))
    return (a, b, gap - min(vals)) if kind == "whole" else (a, b, -gap - max(vals))


def int_line(a, b, c):
    """The line a x + b y + c = 0 as ints with the same kept side."""
    den = math.lcm(*(Fraction(v).denominator for v in (a, b, c)))
    return tuple(int(v * den) for v in (a, b, c))


def assert_normal(poly):
    for x, y, w in poly:
        assert w > 0 and math.gcd(x, y, w) == 1


@given(st.data())
def test_clip_halfplane_matches_fraction_reference(data):
    poly = data.draw(convex_polygons())
    line = data.draw(planted_lines(poly))
    got = pg.clip_halfplane(homogeneous_polygon(poly), int_line(*line))
    want = clip_halfplane(poly, *line)
    assert_normal(got)
    assert got == homogeneous_polygon(want)
    vals = [_value(line, p) for p in poly]
    if min(vals) > 0:
        assert fraction_polygon(got) == poly
    if max(vals) < 0:
        assert got == []


@given(st.data())
def test_clip_convex_matches_fraction_reference(data):
    clipper = data.draw(convex_polygons())
    kind = data.draw(st.sampled_from(["random", "itself", "shifted", "reflected"]))
    if kind == "random":
        subject = data.draw(convex_polygons())
    elif kind == "itself":
        subject = clipper[1:] + clipper[:1]
    elif kind == "shifted":
        # far enough away to keep nothing
        subject = [(x + 20, y) for x, y in clipper]
    else:
        # mirrored across one edge: the two share that edge and no area
        (x0, y0), (x1, y1) = clipper[0], clipper[1]
        a, b = y0 - y1, x1 - x0
        c = -(a * x0 + b * y0)
        k = a * a + b * b
        subject = [(x - 2 * a * (a * x + b * y + c) / k, y - 2 * b * (a * x + b * y + c) / k)
                   for x, y in reversed(clipper)]
    got = pg.clip_convex(homogeneous_polygon(subject), homogeneous_polygon(clipper))
    want = clip_convex(subject, clipper)
    assert_normal(got)
    assert got == homogeneous_polygon(want)
    if kind == "itself":
        assert fraction_polygon(got) == subject
    if kind in ("shifted", "reflected"):
        assert got == []


@given(st.data())
def test_affine_image_matches_fraction_reference(data):
    poly = data.draw(convex_polygons())
    m = data.draw(st.tuples(st.tuples(small, small), st.tuples(small, small)).filter(
        lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0]))
    offset = data.draw(st.tuples(small, small))
    got = pg.affine_image(homogeneous_polygon(poly), pg.affine(m, offset))
    assert_normal(got)
    assert got == homogeneous_polygon(affine_image(poly, m, offset))


@given(st.data())
def test_point_in_closed_matches_fraction_reference(data):
    poly = data.draw(convex_polygons())
    i = data.draw(st.integers(0, len(poly) - 1))
    (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % len(poly)]
    t = data.draw(st.fractions(0, 1, max_denominator=20))
    # a vertex, a point on an edge, or anywhere
    p = data.draw(st.sampled_from([(x0, y0), (x0 + t * (x1 - x0), y0 + t * (y1 - y0))]) | points)
    assert pg.point_in_closed(homogeneous_polygon(poly), vertex(*p)) == point_in_closed(poly, p)


quadratics = st.fixed_dictionaries({}, optional={
    k: small for k in ("const", "lx", "ly", "qxx", "qxy", "qyy")})


@given(st.data())
def test_quadratic_extrema_match_fraction_reference(data):
    poly = data.draw(convex_polygons())
    coeffs = data.draw(quadratics)
    vmin, _, vmax, _ = quadratic_extrema_over_polygon(coeffs, poly)
    assert pg.quadratic_extrema_over_polygon(coeffs, homogeneous_polygon(poly)) == (vmin, vmax)
