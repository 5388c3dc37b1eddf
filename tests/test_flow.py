import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactflow import (
    ClosednessViolation,
    FlowDiag,
    NonFinite,
    PathDependence,
    UnnormalizedRegion,
    build_perturbed_map,
    build_roof,
    single_piece_map,
    standard_flow,
    standard_map,
)
from contactflow import _polygon as pg
from contactflow._rng import spawn_rng
from contactflow.flow import PerturbedRoof, PerturbedTorusMap
from helpers import (
    STANDARD_HALFPLANES,
    backward_orbit_reference,
    forward_reference,
    fraction_polygon,
    grid_points,
    interior_points,
    perturbed_roof_reference,
    piece_of_reference,
    sample_invariant_reference,
    signed_area2,
    vertex,
    wrap_diff,
)

MAT = np.array([[1.0, 1.0], [0.5, 1.5]])
STANDARD_MAP = standard_map()
SINGLE_PIECE_MAP = single_piece_map()


def test_piece_determinants_exactly_one():
    base = standard_map()
    assert len(base.pieces) == 4
    for piece in base.pieces:
        assert piece.det() == Fraction(1)
        assert np.allclose(piece.matrix_f, MAT)


def test_piece_assignment_total_and_single_valued():
    base = standard_map()
    rng = spawn_rng(23, 0)
    x = rng.random(20_000)
    y = rng.random(20_000)
    pid = base.piece_of_arrays(x, y)
    assert pid.min() >= 0 and pid.max() < 4
    # scalar and vector assignment agree
    for i in range(100):
        assert base.piece_of(float(x[i]), float(y[i])) == pid[i]
    # closed lower boundary: the antidiagonal belongs to the first group
    t = rng.random(200)
    pid_edge = base.piece_of_arrays(t, 1.0 - t)
    assert set(np.unique(pid_edge)) <= {0, 1}


def test_piece_lookup_matches_piece_polygons():
    base = standard_map()
    h, t = Fraction(1, 2), Fraction(2, 3)
    literal = {"1a": {(0, 0), (1, 0), (h, h), (0, t)},
               "1b": {(h, h), (0, t), (0, 1)},
               "2a": {(1, 0), (1, t), (0, 1)},
               "2b": {(0, 1), (1, t), (1, 1)}}
    assert {p.name: set(fraction_polygon(p.polygon)) for p in base.pieces} == literal
    for piece in base.pieces:
        assert signed_area2(fraction_polygon(piece.polygon)) > 0  # counterclockwise
    rng = spawn_rng(31, 0)
    x = rng.random(4000)
    y = rng.random(4000)
    pid = base.piece_of_arrays(x, y)
    checked = 0
    for xi, yi, i in zip(x, y, pid):
        p = vertex(xi, yi)
        closed = [pg.point_in_closed(piece.polygon, p) for piece in base.pieces]
        if sum(closed) != 1:  # on an edge: two closures share the point
            continue
        assert closed.index(True) == i
        checked += 1
    assert checked > 3990
    # dyadic points lie on the interior edges exactly, in floats too
    names = [piece.name for piece in base.pieces]
    want = {"x+y=1": {"1a", "1b"}, "x+3y=2": {"1b"}, "x+3y=3": {"2b"}}
    seen = {key: 0 for key in want}
    for k in range(1, 64):
        for m in range(1, 64):
            px, py = Fraction(k, 64), Fraction(m, 64)
            for key, on in (("x+y=1", px + py == 1),
                            ("x+3y=2", px + 3 * py == 2 and px + py <= 1),
                            ("x+3y=3", px + 3 * py == 3)):
                if not on:
                    continue
                i = int(base.piece_of_arrays(np.array([float(px)]),
                                             np.array([float(py)]))[0])
                assert names[i] in want[key], (key, px, py)
                assert pg.point_in_closed(base.pieces[i].polygon, vertex(px, py))
                seen[key] += 1
    assert min(seen.values()) >= 3
    nx = np.array([np.nan, 0.5, np.nan])
    ny = np.array([0.5, np.nan, np.nan])
    assert list(base.piece_of_arrays(nx, ny)) == [-1, -1, -1]


_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest float below 1
_DYADIC = st.integers(0, 2 ** 20 - 1).map(lambda k: k / 2 ** 20)


def _on_line(b, c):
    """Points exactly on x + b y = c: a dyadic y and x = c - b y in [0, 1)."""
    return _DYADIC.map(lambda y: (c - b * y, y)).filter(lambda p: 0.0 <= p[0] < 1.0)


_LOOKUP_POINTS = st.one_of(
    st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True)),
    _on_line(1.0, 1.0), _on_line(3.0, 2.0), _on_line(3.0, 3.0),
    st.tuples(st.sampled_from([0.0, _BELOW_ONE]), _DYADIC),
    st.tuples(_DYADIC, st.sampled_from([0.0, _BELOW_ONE])),
    st.tuples(st.just(np.nan), _DYADIC | st.just(np.nan)),
    st.tuples(_DYADIC, st.just(np.nan)),
)


@given(st.lists(_LOOKUP_POINTS, min_size=1, max_size=40))
def test_sign_table_lookup_matches_per_piece_reference(pts):
    base = STANDARD_MAP
    assert base._table.size == 4 ** 3  # three distinct lines
    x, y = (np.array(v) for v in zip(*pts))
    want = piece_of_reference(STANDARD_HALFPLANES, x, y)
    assert np.array_equal(base.piece_of_arrays(x, y), want)
    assert np.array_equal(want < 0, np.isnan(x) | np.isnan(y))
    # the images of the claimed points, as the map step looks them up
    ok = want >= 0
    u, v, upid = base.apply_arrays(x[ok], y[ok], want[ok])
    assert np.array_equal(upid, piece_of_reference(STANDARD_HALFPLANES, u, v))
    assert np.array_equal(base.piece_of_arrays(u, v), upid)
    # the control map's piece has no half-planes and claims every point, NaN too
    single = SINGLE_PIECE_MAP.piece_of_arrays(x, y)
    assert np.array_equal(single, piece_of_reference([()], x, y))
    assert single.dtype == np.int64 and not single.any()


def test_forward_arrays_rejects_a_neighbours_piece_id(flow):
    # (1/8, 5/8) lies on x + 3y = 2 and (1/4, 3/4) on x + y = 1; piece 1b
    # (id 1) owns both, against 1a (id 0) and 2a (id 2)
    for (x, y), other in (((0.125, 0.625), 0), ((0.25, 0.75), 2)):
        assert flow.base.piece_of(x, y) == 1
        flow.forward_arrays([x], [y], [0.1], [1], 3.0)
        with pytest.raises(ValueError, match=f"piece id {other} does not claim"):
            flow.forward_arrays([x, x], [y, y], [0.1, 0.1], [1, other], 3.0)


@pytest.mark.parametrize("flow_name", ["flow", "pflow"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_kernels_reject_non_finite_positions(flow_name, bad, axis, request):
    f = request.getfixturevalue(flow_name)
    pos = [np.array([0.3, 0.3]), np.array([0.4, 0.4])]
    pos[axis][1] = bad
    pid = np.full(2, f.base.piece_of(0.3, 0.4))
    z = np.array([0.2, 0.2])
    calls = (lambda: f.forward_arrays(*pos, z, pid, 1.0),
             lambda: f.backward_arrays(*pos, z, pid, 1.0),
             lambda: f.backward_orbit_eval(*pos, z, pid, np.linspace(0.0, 3.0, 10)))
    for call in calls:
        with pytest.raises(NonFinite, match="positions"):
            call()


def test_forward_and_inverse_compose_to_identity():
    base = standard_map()
    rng = spawn_rng(29, 1)
    x = rng.random(10_000)
    y = rng.random(10_000)
    fx, fy, _ = base.apply_arrays(x, y, base.piece_of_arrays(x, y))
    bx, by, _ = base.apply_inverse_arrays(fx, fy)
    assert np.max(np.abs(wrap_diff(bx, x))) < 1e-12
    assert np.max(np.abs(wrap_diff(by, y))) < 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the forward map wraps the antidiagonal onto the seam "
    "x = 0, which no inverse piece claims; perfbench KNOWN_DEFECTS[0] is "
    "the same defect on the perturbed flow"))
@pytest.mark.parametrize("p", [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)])
def test_inverse_undoes_forward_on_the_seam(p):
    base = standard_map()
    x, y = np.array([p[0]]), np.array([p[1]])
    fx, fy, _ = base.apply_arrays(x, y, base.piece_of_arrays(x, y))
    assert fx[0] == 0.0  # the image sits on the seam
    bx, by, bp = base.apply_inverse_arrays(fx, fy)
    assert bp[0] >= 0
    assert (bx[0], by[0]) == p


def test_inverse_planar_block():
    base = standard_map()
    inv = np.linalg.inv(MAT)
    assert np.allclose(inv, [[1.5, -1.0], [-0.5, 1.0]])
    h = 1e-7
    for wx, wy in ((0.37, 0.41), (0.62, 0.19), (0.84, 0.73)):
        w0 = np.asarray(base.apply_inverse(wx, wy)[:2])
        cols = []
        for dx, dy in ((h, 0.0), (0.0, h)):
            wp = np.asarray(base.apply_inverse(wx + dx, wy + dy)[:2])
            cols.append(wrap_diff(wp, w0) / h)
        assert np.allclose(np.column_stack(cols), inv, atol=1e-5)


def test_inverse_jumps_across_x_zero():
    base = standard_map()
    d = 1e-9
    for y in (0.2, 0.5, 0.8):
        right = base.apply_inverse(d, y)[:2]
        left = base.apply_inverse(1.0 - d, y)[:2]
        gap = np.abs(wrap_diff(right, left))
        assert gap.max() > 0.05
    # the forward map itself only breaks along the antidiagonal
    labels = [s[2] for s in base.map_discontinuity_segments()]
    assert labels == ["antidiagonal"]


def test_roof_first_piece_quadratic():
    flow = standard_flow()
    coeff = flow.roof.coeffs[0]
    assert coeff["const"] == Fraction(7, 4)
    assert coeff["qxx"] == Fraction(-1, 4)
    assert coeff["qxy"] == Fraction(-1, 2)
    assert coeff["qyy"] == Fraction(-3, 4)
    assert coeff["lx"] == 0 and coeff["ly"] == 0
    x, y = 0.1, 0.2
    expect = 7.0 / 4.0 - (x * x + 2 * x * y + 3 * y * y) / 4.0
    assert flow.roof.tau(x, y, 0) == pytest.approx(expect, abs=1e-15)


def test_roof_extrema_exact():
    flow = standard_flow()
    assert flow.roof.per_piece_inf == [
        Fraction(11, 8),
        Fraction(2),
        Fraction(5, 4),
        Fraction(5, 4),
    ]
    assert flow.roof.per_piece_max == [
        Fraction(7, 4),
        Fraction(19, 8),
        Fraction(7, 4),
        Fraction(25, 12),
    ]
    assert flow.roof.tau_max == 19.0 / 8.0
    assert flow.roof.tau_minus == 1.0
    assert flow.volume == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_roof_gradient_matches_map():
    flow = standard_flow()
    base = flow.base
    rng = spawn_rng(31, 2)
    x = rng.random(2000)
    y = rng.random(2000)
    pid = base.piece_of_arrays(x, y)
    _, fy, _ = base.apply_arrays(x, y, pid)
    gx, gy = flow.roof.grad_arrays(x, y, pid)
    # grad tau = (y - f2 * d f1/dx, -f2 * d f1/dy) with both partials 1
    assert np.max(np.abs(gx - (y - fy))) < 1e-12
    assert np.max(np.abs(gy - (-fy))) < 1e-12


def test_roof_bounds_sampled(flow):
    batch = flow.sample_invariant(37, 50_000)
    tau = flow.roof.tau_arrays(batch.x, batch.y, batch.piece_id)
    assert tau.min() >= flow.roof.tau_minus - 1e-12
    assert tau.max() <= flow.roof.tau_max + 1e-12
    assert np.all(batch.z >= 0.0) and np.all(batch.z < tau)


def test_non_symplectic_piece_rejected():
    with pytest.raises(ClosednessViolation):
        build_roof(single_piece_map(matrix=((2, 0), (0, 1))), 1.0)


def test_flow_forward_below_roof_is_translation(flow):
    p = flow.flow_point(0.3, 0.4, 0.2)
    q = flow.forward(p, 0.5)
    assert (q.x, q.y, q.z) == (0.3, 0.4, 0.7)


def test_flow_forward_crossing_lands_on_image(flow):
    tau = flow.roof.tau(0.1, 0.2, flow.base.piece_of(0.1, 0.2))
    p = flow.flow_point(0.1, 0.2, 0.0)
    q = flow.forward(p, tau)
    assert q.x == pytest.approx(0.3, abs=1e-12)
    assert q.y == pytest.approx(0.35, abs=1e-12)
    assert q.z == pytest.approx(0.0, abs=1e-12)


def test_flow_forward_rejects_non_finite(flow):
    p = flow.flow_point(0.3, 0.4, 0.2)
    with pytest.raises(Exception):
        flow.forward(p, float("nan"))


def test_semigroup_and_inversion_vectorized(flow):
    batch = flow.sample_invariant(41, 10_000)
    rng = spawn_rng(41, 3)
    t1 = rng.uniform(0.3, 2.5, size=len(batch))
    t2 = rng.uniform(0.3, 2.5, size=len(batch))
    x, y, z, pid = batch.x, batch.y, batch.z, batch.piece_id

    ax, ay, az, apid = flow.forward_arrays(x, y, z, pid, t1 + t2)
    bx, by, bz, bpid = flow.forward_arrays(x, y, z, pid, t1)
    cx, cy, cz, cpid = flow.forward_arrays(bx, by, bz, bpid, t2)
    gap = np.maximum(
        np.abs(wrap_diff(ax, cx)),
        np.maximum(np.abs(wrap_diff(ay, cy)), np.abs(az - cz)),
    )
    assert gap.max() < 1e-10

    rx, ry, rz, _ = flow.backward_arrays(ax, ay, az, apid, t1 + t2)
    gap_inv = np.maximum(
        np.abs(wrap_diff(rx, x)),
        np.maximum(np.abs(wrap_diff(ry, y)), np.abs(rz - z)),
    )
    assert gap_inv.max() < 1e-10


@given(t1=st.floats(0.0, 4.0), t2=st.floats(0.0, 4.0))
def test_semigroup_single_point(t1, t2):
    flow = standard_flow()
    p = flow.flow_point(0.37, 0.21, 0.6)
    one = flow.forward(p, t1 + t2)
    two = flow.forward(flow.forward(p, t1), t2)
    assert abs(wrap_diff(one.x, two.x)) < 1e-10
    assert abs(wrap_diff(one.y, two.y)) < 1e-10
    assert abs(one.z - two.z) < 1e-10


def test_backward_at_section_jumps_first(flow):
    # z = 0 belongs to the current box, so any backward motion crosses
    p = flow.flow_points([0.3], [0.35], [0.0])
    x, y, z, _ = flow.backward_arrays(p.x, p.y, p.z, p.piece_id, 1e-9)
    bx, by, _ = flow.base.apply_inverse(0.3, 0.35)
    assert x[0] == pytest.approx(bx, abs=1e-6)
    assert y[0] == pytest.approx(by, abs=1e-6)
    assert z[0] > 1.0  # just under the roof of the preimage piece


@pytest.mark.parametrize("flow_name", ["flow", "pflow"])
def test_backward_orbit_eval_matches_reference_walk(flow_name, request):
    f = request.getfixturevalue(flow_name)
    b = grid_points(f, 12)
    # first two crossing times of orbit 0, hit exactly by nodes
    px, py, ppid = f.base.apply_inverse(float(b.x[0]), float(b.y[0]))
    t1 = float(b.z[0])
    t2 = t1 + f.roof.tau(px, py, ppid)
    cases = [
        np.linspace(0.0, float(b.z.min()), 7),  # no orbit crosses
        np.sort(np.concatenate([np.linspace(0.0, 6.0, 97), [t1, t2]])),
    ]
    for ts in cases:
        got = f.backward_orbit_eval(b.x, b.y, b.z, b.piece_id, ts)
        crossings = set()
        for i in range(len(b)):
            ref = backward_orbit_reference(f, float(b.x[i]), float(b.y[i]),
                                           float(b.z[i]), int(b.piece_id[i]), ts)
            for g, r in zip(got, ref):
                assert np.array_equal(g[i], r)
            crossings.add(int(np.sum(np.diff(ref[2]) > 0.0)))
        if ts[-1] <= b.z.min():
            assert crossings == {0}
        else:
            assert len(crossings) > 1


@pytest.mark.parametrize("kernel", ["backward_orbit_eval", "backward_arrays"])
def test_backward_orbit_eval_rejects_unclaimed_start(flow, kernel):
    # a NaN start is refused at entry, before any inverse step
    pid = flow.base.piece_of(0.3, 0.4)
    t = np.linspace(0.0, 3.0, 10) if kernel == "backward_orbit_eval" else 3.0
    with pytest.raises(NonFinite, match="positions"):
        getattr(flow, kernel)(np.array([0.3, np.nan]), np.array([0.4, 0.4]),
                              np.array([0.2, 0.2]), np.array([pid, pid]), t)


def test_flow_diag_counts_crossings(flow):
    tau = flow.roof.tau(0.1, 0.2, flow.base.piece_of(0.1, 0.2))
    diag = FlowDiag()
    flow.forward(flow.flow_point(0.1, 0.2, 0.0), tau + 0.1, diag)
    assert diag.crossings == 1
    b = flow.flow_points([0.1, 0.2, 0.3], [0.2, 0.6, 0.4], [0.0, 0.0, 0.5])
    t = 3.0 * (flow.roof.tau_arrays(b.x, b.y, b.piece_id) - b.z)
    diags = {}
    for kernel in (flow.forward_arrays, flow.backward_arrays):
        summed, diag = FlowDiag(), FlowDiag()
        for i in range(len(b)):
            one = slice(i, i + 1)
            kernel(b.x[one], b.y[one], b.z[one], b.piece_id[one], t[i], summed)
        kernel(b.x, b.y, b.z, b.piece_id, t, diag)
        assert diag == summed and diag.crossings > len(b)
        diags[kernel.__name__] = diag
    # (0.2, 0.6, 0) flowed by its roof height lands on a piece boundary
    assert diags["forward_arrays"].min_boundary_dist < 1e-15


def test_scalar_and_batch_agree_on_a_boundary_hit(flow):
    p = flow.flow_point(0.2, 0.6, 0.0)
    t = flow.roof.tau(p.x, p.y, p.piece_id)
    q = flow.forward(p, t)
    x, y, z, pid = flow.forward_arrays([p.x], [p.y], [p.z], [p.piece_id], t)
    assert (q.x, q.y, q.z, q.piece_id) == (x[0], y[0], z[0], pid[0])
    assert q.piece_id == 3


def test_carried_roof_stepping_matches_repeated_forward_arrays(flow):
    # 60 grid steps of the boundary-hit point's roof height, as correlation
    # steps: the roof values are carried from step to step instead of
    # recomputed at each forward_arrays call
    p = flow.flow_point(0.2, 0.6, 0.0)
    h = flow.roof.tau(p.x, p.y, p.piece_id)
    b = flow.sample_invariant(5, 2000)
    start = [np.append(v, w) for v, w in ((p.x, b.x), (p.y, b.y), (p.z, b.z),
                                          (p.piece_id, b.piece_id))]
    ref = fwd = start
    cur = [v.copy() for v in start]
    tau = flow.roof.tau_arrays(*cur[:2], cur[3])
    for step in range(60):
        ref = forward_reference(flow, *ref, h)
        fwd = flow.forward_arrays(*fwd, h)
        flow._advance(*cur[:3], cur[3], tau, np.full(tau.size, h))
        for a, b, c in zip(ref, fwd, cur):
            assert a.dtype == b.dtype == c.dtype
            assert a.tobytes() == b.tobytes() == c.tobytes()
        if step == 0:
            assert cur[3][0] == 3  # the boundary hit
    assert tau.tobytes() == flow.roof.tau_arrays(*cur[:2], cur[3]).tobytes()


def test_forward_arrays_matches_reference_on_edge_heights(flow):
    # heights one ulp under the roof, and -0.0 heights moved by -0.0 while
    # other points cross, follow the whole-batch loop's rounding and sign
    b = flow.sample_invariant(9, 3000)
    tau = flow.roof.tau_arrays(b.x, b.y, b.piece_id)
    z = b.z.copy()
    z[:500] = np.nextafter(tau[:500], 0.0)
    z[500:1000] = -0.0
    t = 3.0 * spawn_rng(9, 1).random(z.size)
    t[500:1000:2] = -0.0
    t[1000:1200] = tau[1000:1200] - z[1000:1200]  # exactly onto the roof
    ref = forward_reference(flow, b.x, b.y, z, b.piece_id, t)
    got = flow.forward_arrays(b.x, b.y, z, b.piece_id, t)
    for a, c in zip(ref, got):
        assert a.dtype == c.dtype and a.tobytes() == c.tobytes()
    assert not np.signbit(got[2][500:1000]).any()


def test_height_rounded_onto_its_roof_crosses_without_company(flow):
    # rem < tau - z, but z + rem rounds up onto the roof: the point crosses
    # when advanced alone, as it does beside a point that crosses
    x, y, z = 0.967, 0.676, 1.15334
    pid = flow.base.piece_of(x, y)
    tau = flow.roof.tau(x, y, pid)
    rem = float(np.nextafter(tau - z, 0.0))
    assert rem < tau - z and z + rem >= tau
    alone = flow.forward_arrays([x], [y], [z], [pid], rem)
    q = flow.flow_point(0.3, 0.4, 0.0)
    beside = flow.forward_arrays([x, q.x], [y, q.y], [z, q.z], [pid, q.piece_id],
                                 [rem, 5.0])
    ref = forward_reference(flow, [x], [y], [z], [pid], rem)
    for a, b, c in zip(alone, beside, ref):
        assert a.dtype == b.dtype == c.dtype
        assert a.tobytes() == b[:1].tobytes() == c.tobytes()
    assert (alone[0][0], alone[1][0], alone[3][0]) == flow.base.apply(x, y)
    assert alone[2][0] == 0.0


def test_roof_rejects_unclaimed_piece_id(flow):
    # piece id -1 marks a point no piece claims; it must not index the last
    # piece's coefficients
    with pytest.raises(NonFinite, match="piece id < 0"):
        flow.roof.tau_arrays(np.array([0.3, 0.5]), np.array([0.4, 0.5]),
                             np.array([0, -1]))


def test_forward_rejects_heights_outside_the_flow_domain(flow):
    # a NaN height used to come back NaN, and one near 1e300 to loop for
    # about z / tau passes; a height a little above its roof crosses at once
    x, y = np.array([0.3]), np.array([0.4])
    pid = flow.base.piece_of_arrays(x, y)
    tau = flow.roof.tau_arrays(x, y, pid)
    for z in (np.nan, -1e-300, 1e300, tau[0] + flow.tau_max):
        with pytest.raises(NonFinite, match="heights"):
            flow.forward_arrays(x, y, np.array([z]), pid, 1.0)
    _, _, z, _ = flow.forward_arrays(x, y, tau + 1e-6, pid, 0.0)
    assert 0.0 < z[0] < 2e-6


def test_backward_rejects_heights_outside_the_flow_domain(flow):
    # a NaN height used to come back NaN, and 1e300 to come back as 1e300 - 1
    x, y = np.array([0.3]), np.array([0.4])
    pid = flow.base.piece_of_arrays(x, y)
    tau = flow.roof.tau_arrays(x, y, pid)
    for z in (np.nan, -1e-300, 1e300, tau[0] + flow.tau_max):
        with pytest.raises(NonFinite, match="heights"):
            flow.backward_arrays(x, y, np.array([z]), pid, 1.0)
    _, _, z, _ = flow.backward_arrays(x, y, tau + 1e-6, pid, 2e-6)
    assert z[0] == pytest.approx(tau[0] - 1e-6, abs=1e-12)


def test_return_map_time_is_roof_value(flow):
    # the first return to the section {z = 0} comes after exactly the roof
    # value of the starting piece and lands on the base-map image
    pid = flow.base.piece_of(0.1, 0.2)
    rt = flow.roof.tau(0.1, 0.2, pid)
    ix, iy, _ = flow.base.apply(0.1, 0.2)
    assert (ix, iy) == pytest.approx((0.3, 0.35), abs=1e-15)
    p = flow.flow_point(0.1, 0.2, 0.0)
    before, after = FlowDiag(), FlowDiag()
    q = flow.forward(p, rt - 1e-9, before)
    assert before.crossings == 0
    assert q.z == pytest.approx(rt, abs=1e-8)
    q = flow.forward(p, rt + 1e-9, after)
    assert after.crossings == 1
    assert (q.x, q.y) == pytest.approx((ix, iy), abs=1e-12)


def test_return_map_iterated_accumulates_roof(flow):
    # six returns to the section {z = 0} take the summed roof values and
    # land on the sixth base-map iterate
    x, y = 0.13, 0.57
    total = 0.0
    for _ in range(6):
        total += flow.roof.tau(x, y, flow.base.piece_of(x, y))
        x, y, _ = flow.base.apply(x, y)
    diag = FlowDiag()
    q = flow.forward(flow.flow_point(0.13, 0.57, 0.0), total + 0.5, diag)
    assert diag.crossings == 6
    assert (q.x, q.y, q.z) == pytest.approx((x, y, 0.5), abs=1e-10)


def test_return_map_area_preserving_by_finite_differences(flow):
    rng = spawn_rng(43, 4)
    h = 1e-6
    checked = 0
    while checked < 25:
        x, y = rng.random(2)
        if flow.base.distance_to_boundary_arrays(np.array([x]), np.array([y]))[0] < 10 * h:
            continue
        fx, fy, _ = flow.base.apply(x, y)
        jac = np.empty((2, 2))
        for j, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            px, py, _ = flow.base.apply(x + dx, y + dy)
            jac[0, j] = wrap_diff(px, fx) / h
            jac[1, j] = wrap_diff(py, fy) / h
        assert abs(abs(np.linalg.det(jac)) - 1.0) < 1e-6
        checked += 1


def test_sample_invariant_box_mass(flow):
    n = 100_000
    batch = flow.sample_invariant(47, n)
    box_mass = float(
        np.mean(
            (batch.x >= 0.1) & (batch.x < 0.4)
            & (batch.y >= 0.2) & (batch.y < 0.6)
            & (batch.z >= 0.15) & (batch.z < 0.65)
        )
    )
    p = 0.3 * 0.4 * 0.5 / flow.volume
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(box_mass - p) <= 3 * sigma


def test_sample_invariant_z_uniform_in_cell(flow):
    batch = flow.sample_invariant(53, 200_000)
    sel = (np.abs(batch.x - 0.3) < 0.05) & (np.abs(batch.y - 0.4) < 0.05)
    zs = batch.z[sel]
    tau_mid = flow.roof.tau(0.3, 0.4, flow.base.piece_of(0.3, 0.4))
    # z uniform on [0, tau]: mean tau/2, sd tau/sqrt(12)
    se = tau_mid / np.sqrt(12.0 * zs.size)
    assert abs(np.mean(zs) - tau_mid / 2.0) < 3 * se + 0.01 * tau_mid


def test_sample_invariant_depends_only_on_seed(flow):
    a = flow.sample_invariant(59, 40_000)
    b = flow.sample_invariant(59, 40_000)
    c = flow.sample_invariant(60, 40_000)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.piece_id, b.piece_id)
    assert not np.array_equal(a.x, c.x)


@pytest.mark.parametrize("flow_name", ["flow", "pflow"])
def test_sample_invariant_matches_chunk_reference(flow_name, request):
    # n = 1, 200, the last accepted point of chunk 0, the first of chunk 1,
    # and 200,000 (two chunks)
    f = request.getfixturevalue(flow_name)
    ref, counts = sample_invariant_reference(f, 13, 200_000)
    assert len(counts) == 2
    for n in (1, 200, counts[0], counts[0] + 1, 200_000):
        got = f.sample_invariant(13, n)
        for a, b in zip((got.x, got.y, got.z, got.piece_id), ref):
            assert a.dtype == b.dtype and a.shape == (n,)
            assert a.tobytes() == b[:n].tobytes()


def test_sample_invariant_peak_memory_below_16_mib(flow):
    # one chunk of draws is about 6 MiB; the accepted points of a whole
    # chunk are not kept when 200 are asked for
    flow.sample_invariant(3, 200)  # first-call caches
    tracemalloc.start()
    try:
        flow.sample_invariant(3, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_box_mass_preserved_under_flow(flow):
    n = 50_000
    batch = flow.sample_invariant(61, n)
    rng = spawn_rng(61, 5)
    floor = 1.25  # below every roof value, so z-boxes are unambiguous
    for t in (1.0, 5.0):
        for _ in range(5):
            lo = rng.random(3) * np.array([0.7, 0.7, floor * 0.5])
            hi = lo + np.array([0.25, 0.25, 0.3])
            hi[2] = min(hi[2], floor)
            fx, fy, fz, _ = flow.forward_arrays(
                batch.x, batch.y, batch.z, batch.piece_id, np.full(n, t)
            )

            def mass(x, y, z):
                return float(
                    np.mean(
                        (x >= lo[0]) & (x < hi[0])
                        & (y >= lo[1]) & (y < hi[1])
                        & (z >= lo[2]) & (z < hi[2])
                    )
                )

            m0, m1 = mass(batch.x, batch.y, batch.z), mass(fx, fy, fz)
            p = max(m0, 1e-4)
            sigma = np.sqrt(2.0 * p * (1 - p) / n)
            assert abs(m1 - m0) <= 3 * sigma + 1e-3


def test_perturbed_zero_epsilon_recovers_quadratic_roof(flow):
    zero = build_perturbed_map(0.0)
    rng = spawn_rng(67, 6)
    x = rng.random(500)
    y = rng.random(500)
    pid0 = flow.base.piece_of_arrays(x, y)
    tau0 = flow.roof.tau_arrays(x, y, pid0)
    pid1 = zero.base.piece_of_arrays(x, y)
    tau1 = zero.roof.tau_arrays(x, y, pid1)
    assert np.max(np.abs(tau1 - tau0)) < 1e-9
    fx0, fy0, _ = flow.base.apply_arrays(x, y, pid0)
    fx1, fy1, _ = zero.base.apply_arrays(x, y, pid1)
    assert np.max(np.abs(wrap_diff(fx1, fx0))) < 1e-12
    assert np.max(np.abs(wrap_diff(fy1, fy0))) < 1e-12


def test_perturbed_roof_field_closed(pflow):
    rng = spawn_rng(71, 7)
    h = 3e-5
    got = 0
    worst = 0.0
    while got < 1000:
        x = float(rng.random())
        y = float(rng.random())
        pts_x = np.array([x, x + h, x - h, x, x])
        pts_y = np.array([y, y, y, y + h, y - h])
        if np.min(pflow.base.distance_to_boundary_arrays(pts_x, pts_y)) < 10 * h:
            continue
        pid = pflow.base.piece_of_arrays(pts_x, pts_y)
        if len(set(pid.tolist())) > 1:
            continue
        gx, gy = pflow.roof.grad_arrays(pts_x, pts_y, pid)
        da_dy = (gx[3] - gx[4]) / (2 * h)
        db_dx = (gy[1] - gy[2]) / (2 * h)
        worst = max(worst, abs(da_dy - db_dx))
        got += 1
    assert worst < 1e-8


def test_perturbed_inverse_round_trip(pflow):
    rng = spawn_rng(73, 8)
    x = rng.random(5000)
    y = rng.random(5000)
    fx, fy, _ = pflow.base.apply_arrays(x, y, pflow.base.piece_of_arrays(x, y))
    bx, by, _ = pflow.base.apply_inverse_arrays(fx, fy)
    assert np.max(np.abs(wrap_diff(bx, x))) < 1e-10
    assert np.max(np.abs(wrap_diff(by, y))) < 1e-10


def test_perturbed_semigroup(pflow):
    batch = pflow.sample_invariant(79, 2000)
    rng = spawn_rng(79, 9)
    t1 = rng.uniform(0.3, 2.0, size=len(batch))
    t2 = rng.uniform(0.3, 2.0, size=len(batch))
    ax, ay, az, _ = pflow.forward_arrays(
        batch.x, batch.y, batch.z, batch.piece_id, t1 + t2
    )
    bx, by, bz, bpid = pflow.forward_arrays(
        batch.x, batch.y, batch.z, batch.piece_id, t1
    )
    cx, cy, cz, _ = pflow.forward_arrays(bx, by, bz, bpid, t2)
    gap = np.maximum(
        np.abs(wrap_diff(ax, cx)),
        np.maximum(np.abs(wrap_diff(ay, cy)), np.abs(az - cz)),
    )
    assert gap.max() < 1e-8


def test_perturbed_path_dependence_detected():
    with pytest.raises(PathDependence):
        PerturbedRoof(PerturbedTorusMap(0.03), 1.0, nodes=2)


# tau_max, volume and the (branch, m) constants of the perturbed roof,
# recorded from the roof that evaluated the whole lift at every node
PERTURBED_ROOF_VALUES = {
    0.02: (2.370881157893835, 1.6618492581113427,
           {(1, 0): 1.642766901138162, (1, 1): 0.9222784738322798,
            (2, -1): 1.6227669011381622, (2, 0): 1.652766901138162}),
    0.0: (2.3772537180627564, 1.6676445007324219,
          {(1, 0): 1.65625, (2, 0): 1.6562499999999998}),
}


def _roof_probe_points(eps):
    """Random points, 40 verticals of 25 points, the seam bands and the
    branch curve +- 1e-9."""
    rng = spawn_rng(89, 10)
    one = np.nextafter(1.0, 0.0)
    xv = np.repeat(rng.random(40), 25)
    xb = rng.random(500)
    band = max(eps, 1e-3) * rng.random(500)
    curve = (1.0 - xb - eps * np.sin(2.0 * np.pi * xb)) % 1.0
    px = [rng.random(2000), xv, xb, xb, xb, xb]
    py = [rng.random(2000), rng.random(xv.size), band, one - band,
          np.clip(curve - 1e-9, 0.0, one), np.clip(curve + 1e-9, 0.0, one)]
    return np.concatenate(px), np.concatenate(py)


@pytest.mark.parametrize("eps", [0.02, 0.0])
def test_perturbed_roof_matches_whole_lift_reference_bit_for_bit(eps):
    roof = build_perturbed_map(eps).roof
    assert (roof.tau_max, roof.volume, roof._const) == PERTURBED_ROOF_VALUES[eps]
    x, y = _roof_probe_points(eps)
    pid = roof.pmap.piece_of_arrays(x, y)
    potential_raw, tau_arrays, grad_arrays = perturbed_roof_reference(roof)
    for b, m in roof._const:
        for x_first in (True, False):
            assert np.array_equal(roof._potential_raw(x, y, b, m, x_first),
                                  potential_raw(x, y, b, m, x_first)), (b, m, x_first)
    assert np.array_equal(roof.tau_arrays(x, y, pid), tau_arrays(x, y, pid))
    for got, want in zip(roof.grad_arrays(x, y, pid), grad_arrays(x, y, pid)):
        assert np.array_equal(got, want)


def test_perturbed_roof_raises_on_a_region_without_constant(pflow):
    # label (1, k, -1) needs sin 2 pi x < 0, so x > 1/2, and that puts the
    # wrapped point in branch 2: no normalization point lies in it
    pid = pflow.base._index[(1, 0, -1)]
    with pytest.raises(UnnormalizedRegion, match=r"\(branch 1, m -1\)"):
        pflow.roof.tau_arrays(np.array([0.75]), np.array([0.01]), np.array([pid]))


def test_interior_point_helper_respects_margins(flow):
    x, y, z = interior_points(flow, 500, seed=83, margin=2e-3)
    assert x.shape == (500,)
    assert flow.base.distance_to_boundary_arrays(x, y).min() > 2e-3
    pid = flow.base.piece_of_arrays(x, y)
    tau = flow.roof.tau_arrays(x, y, pid)
    assert np.all(z > 2e-3) and np.all(z < tau - 2e-3)
