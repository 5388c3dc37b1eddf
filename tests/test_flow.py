from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactflow import (
    ClosednessViolation,
    FlowDiag,
    PathDependence,
    build_perturbed_map,
    build_roof,
    single_piece_map,
    standard_flow,
    standard_map,
)
from contactflow._rng import spawn_rng
from contactflow.flow import PerturbedRoof, PerturbedTorusMap
from helpers import backward_orbit_reference, grid_points, interior_points, wrap_diff

MAT = np.array([[1.0, 1.0], [0.5, 1.5]])


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


def test_forward_and_inverse_compose_to_identity():
    base = standard_map()
    rng = spawn_rng(29, 1)
    x = rng.random(10_000)
    y = rng.random(10_000)
    fx, fy, _ = base.apply_arrays(x, y)
    bx, by, _ = base.apply_inverse_arrays(fx, fy)
    assert np.max(np.abs(wrap_diff(bx, x))) < 1e-12
    assert np.max(np.abs(wrap_diff(by, y))) < 1e-12


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
    _, fy, _ = base.apply_arrays(x, y)
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
    p = flow.flow_point(0.3, 0.35, 0.0)
    q = flow.backward(p, 1e-9)
    bx, by, _ = flow.base.apply_inverse(0.3, 0.35)
    assert q.x == pytest.approx(bx, abs=1e-6)
    assert q.y == pytest.approx(by, abs=1e-6)
    assert q.z > 1.0  # just under the roof of the preimage piece


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
    pid = flow.base.piece_of(0.3, 0.4)
    t = np.linspace(0.0, 3.0, 10) if kernel == "backward_orbit_eval" else 3.0
    with pytest.raises(ValueError, match="no inverse piece claims"):
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
    for scalar, kernel in ((flow.forward, flow.forward_arrays),
                           (flow.backward, flow.backward_arrays)):
        summed, diag = FlowDiag(), FlowDiag()
        for i in range(len(b)):
            scalar(b[i], t[i], summed)
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


def test_return_map_time_is_roof_value(flow):
    (ix, iy), rt, pid = flow.return_map((0.1, 0.2))
    assert rt == flow.roof.tau(0.1, 0.2, pid)
    assert (ix, iy) == pytest.approx((0.3, 0.35), abs=1e-15)


def test_return_map_iterated_accumulates_roof(flow):
    pt = (0.13, 0.57)
    itinerary, total, end = flow.return_map_iter(pt, 6)
    acc = 0.0
    cur = pt
    for k in range(6):
        img, rt, pid = flow.return_map(cur)
        assert itinerary[k] == pid
        acc += rt
        cur = img
    assert total == pytest.approx(acc, abs=1e-10)
    assert end == pytest.approx(cur, abs=1e-10)


def test_return_map_area_preserving_by_finite_differences(flow):
    rng = spawn_rng(43, 4)
    h = 1e-6
    checked = 0
    while checked < 25:
        x, y = rng.random(2)
        if flow.min_distance_to_discontinuity(np.array([x]), np.array([y]))[0] < 10 * h:
            continue
        (fx, fy), _, _ = flow.return_map((x, y))
        jac = np.empty((2, 2))
        for j, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
            (px, py), _, _ = flow.return_map((x + dx, y + dy))
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


def test_trajectory_rows_and_config(flow):
    grid = [0.0, 0.5, 1.0, 1.5]
    rows = list(flow.trajectory_rows(flow.flow_point(0.3, 0.4, 0.1), grid))
    assert len(rows) == len(grid)
    assert [r[0] for r in rows] == grid
    for t, x, y, z, pid in rows:
        assert 0.0 <= x < 1.0 and 0.0 <= y < 1.0 and z >= 0.0
        assert pid == flow.base.piece_of(x, y)
    cfg = flow.to_config()
    assert cfg["tau_minus"] == 1.0
    assert cfg["map"] == "f0"
    assert len(cfg["pieces"]) == 4
    for piece in cfg["pieces"]:
        assert "matrix" in piece and "offset" in piece


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
    fx0, fy0, _ = flow.base.apply_arrays(x, y)
    fx1, fy1, _ = zero.base.apply_arrays(x, y)
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
    fx, fy, _ = pflow.base.apply_arrays(x, y)
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


def test_interior_point_helper_respects_margins(flow):
    x, y, z = interior_points(flow, 500, seed=83, margin=2e-3)
    assert x.shape == (500,)
    assert flow.min_distance_to_discontinuity(x, y).min() > 2e-3
    pid = flow.base.piece_of_arrays(x, y)
    tau = flow.roof.tau_arrays(x, y, pid)
    assert np.all(z > 2e-3) and np.all(z < tau - 2e-3)
