"""Small shared utilities for the test suite."""

import json
import math
from fractions import Fraction

import numpy as np

from contactflow import EmptyCell, RoofFunction, SuspensionFlow, standard_map, transfer
from contactflow._quadrature import gl_interval
from contactflow._rng import DEFAULT_CHUNK, spawn_rng


# exact (n, D_b, D_e, cells_b, cells_e) of the standard map at the CLI
# defaults (n_max = 8)
COMPLEXITY_ROWS = [
    (1, 4, 4, 4, 4), (2, 9, 7, 12, 12), (3, 11, 9, 34, 34),
    (4, 13, 11, 90, 90), (5, 15, 13, 204, 204), (6, 17, 15, 432, 432),
    (7, 19, 17, 912, 912), (8, 21, 19, 1920, 1920),
]


def wrap_diff(a, b):
    """Signed torus difference a - b folded into [-1/2, 1/2)."""
    return (np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5


def constant_roof_flow(h=Fraction(6, 5)):
    """The standard map under the constant roof tau = h.

    A suspension with a constant roof preserves no contact form and does
    not mix (e^{2 pi i z / h} is an eigenfunction): the control that the
    contact and mixing checks must tell apart from the standard flow.
    """
    base = standard_map()
    h = Fraction(h)
    n = len(base.pieces)
    roof = RoofFunction(coeffs=[{"const": h} for _ in base.pieces],
                        tau_minus=float(h), tau_max=float(h),
                        per_piece_inf=[h] * n, per_piece_max=[h] * n, volume=h)
    return SuspensionFlow(base, roof)


def interior_points(flow, n, seed, margin=1e-3):
    """n invariant-measure samples away from discontinuities and the roof.

    Oversamples and filters; callers get exactly n points (the acceptance
    fraction is high enough at the default margin).
    """
    batch = flow.sample_invariant(seed, 6 * n)
    x, y, z = batch.x, batch.y, batch.z
    tau = flow.roof.tau_arrays(x, y, batch.piece_id)
    dist = flow.base.distance_to_boundary_arrays(x, y)
    ok = (dist > margin) & (z > margin) & (z < tau - margin)
    idx = np.nonzero(ok)[0]
    assert idx.size >= n, f"only {idx.size} interior points at margin {margin}"
    idx = idx[:n]
    return x[idx], y[idx], z[idx]


def grid_points(flow, n):
    """n marked points spread over the torus, heights below the roof floor.

    Deterministic and cheap (no rejection sampling, which is slow on the
    perturbed roof)."""
    s = (np.arange(n) + 0.5) / n
    return flow.flow_points((0.37 + 0.61 * s) % 1.0, (0.13 + 2.03 * s) % 1.0,
                            0.95 * flow.tau_minus * s)


def backward_orbit_reference(flow, x, y, z, pid, ts):
    """Per-point walk along one backward orbit at sorted times ts >= 0.

    The reference for SuspensionFlow.backward_orbit_eval: one scalar
    inverse-map step per section crossing, positions closed-form between
    crossings, and a node at exactly a crossing time stays in the old box.
    Returns arrays (x, y, z, pid) aligned with ts.
    """
    ts = np.asarray(ts, dtype=float)
    n = len(ts)
    ox, oy, oz = np.empty(n), np.empty(n), np.empty(n)
    op = np.empty(n, dtype=np.int64)
    t0 = 0.0
    i = 0
    while i < n:
        hi = t0 + z  # orbit stays in this box for ts in [t0, t0 + z]
        j = int(np.searchsorted(ts, hi, side="right"))
        ox[i:j] = x
        oy[i:j] = y
        oz[i:j] = z - (ts[i:j] - t0)
        op[i:j] = pid
        i = j
        if i >= n:
            break
        t0 = hi
        x, y, pid = flow.base.apply_inverse(x, y)
        z = flow.roof.tau(x, y, pid)
    return ox, oy, oz, op


def sample_invariant_reference(flow, seed, n):
    """Chunk-and-concatenate rejection sampler: the reference for
    SuspensionFlow.sample_invariant.

    Keeps every accepted point of each chunk and concatenates the chunks.
    Returns the first n of (x, y, z, pid), a prefix of the output for any
    larger n, and the accepted count of each chunk drawn.
    """
    chunks = []
    total = ci = 0
    while total < n:
        u = spawn_rng(seed, 0, ci).random((3, DEFAULT_CHUNK))
        x, y = u[0], u[1]
        z = u[2] * flow.tau_max
        pid = flow.base.piece_of_arrays(x, y)
        acc = z < flow.roof.tau_arrays(x, y, pid)
        chunks.append((x[acc], y[acc], z[acc], pid[acc]))
        total += int(acc.sum())
        ci += 1
    return (tuple(np.concatenate(c)[:n] for c in zip(*chunks)),
            [c[0].size for c in chunks])


def sample_directions_reference(cone, n):
    """Cone2.sample_directions one ray at a time, each normalised by
    np.linalg.norm."""
    t, ax = np.asarray(cone.transverse), np.asarray(cone.axial)
    dirs = []
    for ui in np.linspace(-cone.aperture, cone.aperture, n):
        f = t - ui * ax
        d = np.array([-f[1], f[0]])
        dirs.append(d / np.linalg.norm(d))
    return np.stack(dirs)


def ulam_sampler_reference(flow, cells, partition, samples_per_cell, seed):
    """Per-cell rejection loop: the reference for transfer._sample_cells.

    Cell by cell, rounds of max(256, samples_per_cell) draws from the cell's
    own stream until it holds samples_per_cell points below the roof or has
    drawn 256 * samples_per_cell.  Returns per-cell (kept, accepted, drawn)
    counts and the kept points (x, y, z, pid) in cell order.
    """
    nx, ny, nz = partition
    dz = flow.tau_max / nz
    zlow = np.arange(nz) * dz
    cap = 256 * samples_per_cell
    counts = []
    sx, sy, sz, spid = [], [], [], []
    for (i, j, k) in cells:
        rng = spawn_rng(seed, 1, (i * ny + j) * nz + k)
        got = drawn = acc_total = 0
        while got < samples_per_cell and drawn < cap:
            m = max(256, samples_per_cell)
            u = rng.random((3, m))
            x = (i + u[0]) / nx
            y = (j + u[1]) / ny
            z = zlow[k] + u[2] * dz
            pid = flow.base.piece_of_arrays(x, y)
            acc = z < flow.roof.tau_arrays(x, y, pid)
            drawn += m
            acc_total += int(acc.sum())
            take = min(int(acc.sum()), samples_per_cell - got)
            sx.append(x[acc][:take])
            sy.append(y[acc][:take])
            sz.append(z[acc][:take])
            spid.append(pid[acc][:take])
            got += take
        counts.append((got, acc_total, drawn))
    got, accepted, drawn = np.array(counts, dtype=np.int64).reshape(-1, 3).T
    return (got, accepted, drawn, np.concatenate(sx), np.concatenate(sy),
            np.concatenate(sz), np.concatenate(spid))


def ulam_cells(flow, partition):
    """The cells (i, j, k) whose box reaches below the column's roof max:
    the cells ulam_build samples."""
    nx, ny, nz = partition
    dz = flow.tau_max / nz
    col = transfer._column_roof_max(flow, nx, ny)
    return np.argwhere(col[:, :, None] > (np.arange(nz) * dz)[None, None, :])


def ulam_destinations_reference(flow, t, partition, points):
    """Flat destination index (i * ny + j) * nz + k of every kept point,
    with all of them moved to time t by one flow._advance."""
    nx, ny, nz = partition
    dz = flow.tau_max / nz
    x, y, z, pid = (np.array(v) for v in points)
    flow._advance(x, y, z, pid, flow.roof.tau_arrays(x, y, pid),
                  np.full(x.size, float(t)))
    di = np.minimum((x * nx).astype(np.int64), nx - 1)
    dj = np.minimum((y * ny).astype(np.int64), ny - 1)
    dk = np.minimum((z / dz).astype(np.int64), nz - 1)
    return (di * ny + dj) * nz + dk


def ulam_matrix_reference(flow, t, partition, samples_per_cell, seed):
    """Whole-batch Ulam build: the reference for transfer.ulam_build.

    Every kept point of ulam_sampler_reference is moved by one _advance and
    the transition matrix is a COO matrix of 1/count per point, summed into
    CSR by tocsr.  Returns (states, matrix, volumes, eigenvalues), the
    eigenvalues chosen as ulam_build chooses them.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    nx, ny, nz = partition
    cells = ulam_cells(flow, partition)
    got, accepted, drawn, *points = ulam_sampler_reference(
        flow, cells, partition, samples_per_cell, seed)
    kept = got > 0
    states = cells[kept]
    n_states = len(states)
    idx3 = -np.ones((nx, ny, nz), dtype=np.int64)
    idx3[states[:, 0], states[:, 1], states[:, 2]] = np.arange(n_states)
    flat = ulam_destinations_reference(flow, t, partition, points)
    di, dj, dk = np.unravel_index(flat, (nx, ny, nz))
    dest = idx3[di, dj, dk]
    if np.any(dest < 0):
        bad = np.nonzero(dest < 0)[0][0]
        raise EmptyCell(
            f"mass mapped into dropped cell ({di[bad]}, {dj[bad]}, {dk[bad]})")
    row_counts = got[kept]
    rows = np.repeat(np.arange(n_states), row_counts)
    data = np.repeat(1.0 / row_counts, row_counts)
    matrix = sp.coo_matrix((data, (rows, dest)),
                           shape=(n_states, n_states)).tocsr()
    dz = flow.tau_max / nz
    volumes = (1.0 / nx) * (1.0 / ny) * dz * accepted[kept] / drawn[kept]
    if n_states <= 600:
        eigvals = np.linalg.eigvals(matrix.toarray())
    else:
        eigvals = spla.eigs(matrix, k=min(6, n_states - 2), v0=np.ones(n_states),
                            which="LM", maxiter=50_000, return_eigenvectors=False)
    order = np.argsort(-np.abs(eigvals), kind="stable")
    return states, matrix, volumes, eigvals[order][: min(8, len(eigvals))]


def column_roof_max_reference(flow, nx, ny):
    """Roof max over each grid rectangle with every piece clipped exactly in
    Fractions: the reference for the exact branch of transfer._column_roof_max."""
    out = np.empty((nx, ny))
    pieces = [fraction_polygon(piece.polygon) for piece in flow.base.pieces]
    for i in range(nx):
        for j in range(ny):
            rect = rect_polygon(Fraction(i, nx), Fraction(i + 1, nx),
                                Fraction(j, ny), Fraction(j + 1, ny))
            best = None
            for cf, piece in zip(flow.roof.coeffs, pieces):
                inter = clip_convex(rect, piece)
                if len(inter) >= 3:
                    _, _, mx, _ = quadratic_extrema_over_polygon(cf, inter)
                    best = mx if best is None else max(best, mx)
            out[i, j] = float(best)
    return out


# the standard map's half-open pieces 1a, 1b, 2a, 2b as (a, b, op, c) for
# a * x + b * y op c, written out here so that a changed side in the map
# itself shows up against them
STANDARD_HALFPLANES = [
    [(1.0, 1.0, "<=", 1.0), (1.0, 3.0, "<", 2.0)],
    [(1.0, 1.0, "<=", 1.0), (1.0, 3.0, ">=", 2.0)],
    [(1.0, 1.0, ">", 1.0), (1.0, 3.0, "<", 3.0)],
    [(1.0, 1.0, ">", 1.0), (1.0, 3.0, ">=", 3.0)],
]
_OPS = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def piece_of_reference(halfplanes, x, y):
    """Per-piece loop: the reference for piece_of_arrays.

    Piece i claims the points that no earlier piece claims and where all its
    half-planes hold, with a * x + b * y computed as the map computes it (a
    unit factor skipped); a piece without half-planes claims every point,
    NaN included.  Unclaimed points get -1.
    """
    pid = np.full(np.shape(x), -1, dtype=np.int64)
    for i, hps in enumerate(halfplanes):
        ok = True
        for a, b, op, c in hps:
            f = (x if a == 1.0 else a * x) + (y if b == 1.0 else b * y)
            ok = ok & _OPS[op](f, c)
        pid[(pid < 0) & ok] = i
    return pid


def forward_reference(flow, x, y, z, pid, t):
    """Whole-batch event stepping: the reference for SuspensionFlow.forward_arrays.

    Every pass evaluates the roof at every point and moves each point to
    its roof (crossing onto its image) or by its remaining time; a height
    that rounds up onto its roof crosses on the next pass.
    """
    x, y, z = (np.array(v, dtype=float) for v in (x, y, z))
    pid = np.array(pid, dtype=np.int64)
    rem = np.broadcast_to(np.asarray(t, dtype=float), x.shape).copy()
    while True:
        tau = flow.roof.tau_arrays(x, y, pid)
        gap = tau - z
        cross = rem >= gap
        if not np.any(cross | (z + rem >= tau)):
            z += rem
            return x, y, z, pid
        stay = ~cross
        z[stay] += rem[stay]
        rem[stay] = 0.0
        rem[cross] -= gap[cross]
        xc, yc = x[cross], y[cross]  # the source piece is looked up, not carried
        x[cross], y[cross], pid[cross] = flow.base.apply_arrays(xc, yc, flow.base.piece_of_arrays(xc, yc))
        z[cross] = 0.0


def max_incidence_reference(cells):
    """All-pairs closure incidence in Fractions: the reference for
    hyperbolicity._max_incidence.

    Every cell vertex and each of its 9 integer translates that falls in
    [0,1]^2 (to 1e-9) is tested exactly against every cell whose float
    bounding box holds it; returns the most cells meeting one vertex.
    """
    if not cells:
        return 0
    cells = [fraction_polygon(c) for c in cells]
    vlist = list({(v[0], v[1]) for c in cells for v in c})
    vf = np.array([[float(a), float(b)] for a, b in vlist])
    boxes = np.array([
        [min(float(v[0]) for v in c), min(float(v[1]) for v in c),
         max(float(v[0]) for v in c), max(float(v[1]) for v in c)]
        for c in cells
    ])
    incid = [set() for _ in vlist]
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            pts = vf + np.array([dx, dy])
            cand_idx = np.nonzero(np.all((pts >= -1e-9) & (pts <= 1 + 1e-9), axis=1))[0]
            sub = pts[cand_idx]
            for ci, c in enumerate(cells):
                b = boxes[ci]
                near = ((sub[:, 0] >= b[0] - 1e-9) & (sub[:, 0] <= b[2] + 1e-9)
                        & (sub[:, 1] >= b[1] - 1e-9) & (sub[:, 1] <= b[3] + 1e-9))
                for vi in cand_idx[near]:
                    if ci not in incid[vi] and point_in_closed(
                            c, (vlist[vi][0] + dx, vlist[vi][1] + dy)):
                        incid[vi].add(ci)
    return max(len(s) for s in incid)


# ---------------------------------------------------------------------------
# Fraction geometry: the reference for contactflow._polygon
# ---------------------------------------------------------------------------
#
# Points are (Fraction, Fraction) pairs and polygons lists of them.  These
# Fraction versions of the _polygon kernels are the reference that
# test_polygon.py holds the integer homogeneous ones to: the same vertex
# cycles and the same extrema.


def vertex(x, y):
    """The homogeneous vertex (X, Y, W) of the rational point (x, y)."""
    x, y = Fraction(x), Fraction(y)
    w = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def homogeneous_polygon(points):
    return [vertex(x, y) for x, y in points]


def fraction_polygon(poly):
    """The Fraction points of a homogeneous polygon."""
    return [(Fraction(x, w), Fraction(y, w)) for x, y, w in poly]


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def polygon(points):
    return ensure_ccw([(frac(x), frac(y)) for x, y in points])


def signed_area2(poly):
    """Twice the signed area (positive for counterclockwise)."""
    s = Fraction(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return s


def ensure_ccw(poly):
    if signed_area2(poly) < 0:
        return poly[::-1]
    return poly


def rect_polygon(x0, x1, y0, y1):
    return polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def dedupe(poly):
    """Drop repeated and collinear vertices (clipping can produce both)."""
    pts = [p for i, p in enumerate(poly) if p != poly[(i - 1) % len(poly)]]
    out = []
    n = len(pts)
    for i in range(n):
        a, b, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if cross != 0:
            out.append(b)
    return out


def clip_halfplane(poly, a, b, c):
    """Clip to {(x, y): a*x + b*y + c >= 0}.  Subject must be convex CCW."""
    out = []
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


def clip_convex(subject, clipper):
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


def affine_image(poly, m, offset):
    m00, m01 = frac(m[0][0]), frac(m[0][1])
    m10, m11 = frac(m[1][0]), frac(m[1][1])
    ox, oy = frac(offset[0]), frac(offset[1])
    return ensure_ccw(
        [(m00 * x + m01 * y + ox, m10 * x + m11 * y + oy) for x, y in poly]
    )


def point_in_closed(poly, p):
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        cross = (x1 - x0) * (p[1] - y0) - (y1 - y0) * (p[0] - x0)
        if cross < 0:
            return False
    return True


def _eval_quadratic(coeffs, x, y):
    return (
        frac(coeffs.get("const", 0))
        + frac(coeffs.get("lx", 0)) * x
        + frac(coeffs.get("ly", 0)) * y
        + frac(coeffs.get("qxx", 0)) * x * x
        + frac(coeffs.get("qxy", 0)) * x * y
        + frac(coeffs.get("qyy", 0)) * y * y
    )


def quadratic_extrema_over_polygon(coeffs, poly):
    """Exact (min, argmin, max, argmax) of a quadratic over a convex polygon.

    Candidates: vertices, one-dimensional critical points on each edge, and
    the interior critical point when the Hessian is invertible.
    """
    qxx, qxy, qyy = (frac(coeffs.get(k, 0)) for k in ("qxx", "qxy", "qyy"))
    lx, ly = frac(coeffs.get("lx", 0)), frac(coeffs.get("ly", 0))
    candidates = list(poly)
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


def dense_grid(f):
    """The N^3 samples values[i, j] * line[k] of a GridFunction3."""
    return f.values[:, :, None] * f.line[None, None, :]


def aniso_norm_reference(f, sym):
    """Dense weighted transform norm: the reference for aniso.aniso_norm_p2.

    Takes the fftn of the N^3 samples and weights every bin with the
    symbol at its own signed frequency.
    """
    n, length = f.n, f.length
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    weights = np.asarray(sym(freqs[:, None, None], freqs[None, :, None],
                             freqs[None, None, :]), dtype=float)
    total = float(np.sum((weights * np.abs(np.fft.fftn(dense_grid(f)))) ** 2))
    return (length ** 1.5 / n ** 3) * np.sqrt(total)


def perturbed_roof_reference(roof):
    """Whole-lift line integrals: the reference for flow.PerturbedRoof.

    Every leg evaluates both 1-form components through
    ``lift_components`` at every (point, node) pair and keeps one, and the
    x-leg runs once per point.  Returns ``potential_raw(x, y, branch, m,
    x_first)``, ``tau_arrays(x, y, pid)`` and ``grad_arrays(x, y, pid)``
    on the roof's map, nodes, anchor and constants.
    """
    pmap = roof.pmap

    def ab(x, y, branch, m):
        f1, f2, df1 = pmap.lift_components(x, y, branch, m)
        return y - f2 * df1[0], -f2 * df1[1]

    def potential_raw(x, y, branch, m, x_first=True):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ax, ay = roof.anchor
        t, w = gl_interval(0.0, 1.0, roof.nodes)

        def leg_x(x0, x1, yc):
            xs = x0[..., None] + (x1 - x0)[..., None] * t
            a, _ = ab(xs, yc[..., None], branch, m)
            return (x1 - x0) * np.sum(a * w, axis=-1)

        def leg_y(y0, y1, xc):
            ys = y0[..., None] + (y1 - y0)[..., None] * t
            _, b = ab(xc[..., None], ys, branch, m)
            return (y1 - y0) * np.sum(b * w, axis=-1)

        ax_a = np.full(x.shape, ax)
        ay_a = np.full(x.shape, ay)
        if x_first:
            return leg_x(ax_a, x, ay_a) + leg_y(ay_a, y, x)
        return leg_y(ay_a, y, ax_a) + leg_x(ax_a, x, y)

    def tau_arrays(x, y, pid):
        out = np.empty(np.shape(x))
        for (b, k, m), i in pmap._index.items():
            sel = pid == i
            if np.any(sel):
                f1, _, _ = pmap.lift_components(x[sel], y[sel], b, m)
                out[sel] = (potential_raw(x[sel], y[sel], b, m)
                            + roof._const[(b, m)] + k * f1)
        return out

    def grad_arrays(x, y, pid):
        gx = np.empty(np.shape(x))
        gy = np.empty(np.shape(x))
        for (b, k, m), i in pmap._index.items():
            sel = pid == i
            if np.any(sel):
                a, bb = ab(x[sel], y[sel], b, m)
                _, _, df1 = pmap.lift_components(x[sel], y[sel], b, m)
                gx[sel] = a + k * df1[0]
                gy[sel] = bb + k * df1[1]
        return gx, gy

    return potential_raw, tau_arrays, grad_arrays


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def load_strict_json(path):
    """Parse a JSON file, rejecting the NaN and Infinity tokens that
    Python's json module writes and reads by default."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)
