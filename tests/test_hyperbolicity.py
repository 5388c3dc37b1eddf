from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactflow import _polygon as pg
from contactflow import (
    Cone2,
    HyperbolicityParams,
    SuspensionFlow,
    build_roof,
    check_bunching,
    check_cone_invariance,
    check_transversality,
    complexity_counts,
    default_params,
    expansion_constants,
    single_piece_map,
    standard_map,
)
from contactflow.hyperbolicity import _max_incidence, _refine_level, _refinements, _word_products

from helpers import (
    COMPLEXITY_ROWS,
    fraction_polygon,
    homogeneous_polygon,
    max_incidence_reference,
    polygon,
    sample_directions_reference,
    signed_area2,
)


def test_boundary_rays_report_exact_aperture():
    for a in (0.01, 0.1, 1.0, 3.0):
        cone = Cone2(a)
        ap = cone.aperture_of(cone.boundary_rays())
        assert np.max(np.abs(ap - a)) < 1e-12


@given(
    c=st.floats(-1e4, 1e4).filter(lambda v: abs(v) > 1e-8),
    u=st.floats(-0.95, 0.95),
)
def test_cone_aperture_homogeneous(c, u):
    cone = Cone2(0.3)
    v = cone.sample_directions(9)[int((u + 1) * 4)]
    ap1 = float(cone.aperture_of(v))
    ap2 = float(cone.aperture_of(c * np.asarray(v)))
    assert ap2 == pytest.approx(ap1, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("cone,n", [
    (Cone2(1.0), 10_000),
    (Cone2(0.01), 4096),
    (Cone2(0.01).stable_partner(), 4096),
    (Cone2(0.3, transverse=(0.2, -1.3), axial=(1.7, 0.4)), 4096),
], ids=["unit", "narrow", "narrow-stable", "oblique"])
def test_sample_directions_match_per_ray_reference(cone, n):
    got = cone.sample_directions(n)
    want = sample_directions_reference(cone, n)
    assert got.dtype == want.dtype and got.shape == want.shape == (n, 2)
    assert got.tobytes() == want.tobytes()


def test_sample_directions_stay_inside():
    cone = Cone2(0.4)
    dirs = cone.sample_directions(101)
    assert np.all(cone.aperture_of(dirs) <= 0.4 + 1e-12)
    with pytest.raises(ValueError):
        cone.sample_directions(1)


def test_unit_cone_contracts_to_quarter_aperture():
    report = check_cone_invariance(standard_map(), Cone2(1.0), n_rays=64)
    assert report.ok
    assert report.max_image_aperture <= 0.25 + 1e-12
    assert report.margin >= 0.75 - 1e-12


def test_tenth_cone_contracts_to_fortieth():
    report = check_cone_invariance(standard_map(), Cone2(0.1), n_rays=64)
    assert report.max_image_aperture <= 0.025 * (1 + 1e-9)


def test_identity_map_margin_zero_constants_one():
    ident = single_piece_map()
    report = check_cone_invariance(ident, Cone2(1.0), n_rays=32)
    assert report.margin == pytest.approx(0.0, abs=1e-15)
    lam_u, lam_s, big_lam = expansion_constants(ident, Cone2(1.0))
    assert lam_u == pytest.approx(1.0, abs=1e-15)
    assert lam_s == pytest.approx(1.0, abs=1e-15)
    assert big_lam == pytest.approx(1.0, abs=1e-15)


def test_cone_invariance_requires_enough_rays():
    with pytest.raises(ValueError):
        check_cone_invariance(standard_map(), Cone2(1.0), n_rays=8)


def test_expansion_constants_near_planar_eigenvalues():
    lam_u, lam_s, big_lam = expansion_constants(standard_map(), Cone2(0.01))
    assert lam_u == pytest.approx(1.992329388425, rel=1e-9)
    assert lam_s == pytest.approx(0.503127543677, rel=1e-9)
    assert big_lam == pytest.approx(2.007323752993, rel=1e-9)
    assert lam_u > 1.0 > lam_s > 0.0
    assert big_lam >= lam_u
    # within 1% of the planar eigenvalues at this aperture
    assert abs(lam_u - 2.0) <= 0.02
    assert abs(lam_s - 0.5) <= 0.005


def test_expansion_submultiplicative():
    cone = Cone2(0.1)
    base = standard_map()
    lam = {n: expansion_constants(base, cone, n=n)[0] for n in (1, 2, 3, 4)}
    for n1, n2 in ((1, 1), (1, 2), (2, 2), (1, 3)):
        assert lam[n1 + n2] >= lam[n1] * lam[n2] - 1e-10


def test_word_products_enumerate_every_word_or_raise_above_the_cap():
    a, b = np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]])
    words = _word_products([a, b, a], 3, cap=8)  # the repeated a counts once
    assert len(words) == 8
    assert any(np.array_equal(w, b @ b @ b) for w in words)
    with pytest.raises(ValueError, match="exceed the cap"):
        _word_products([a, b], 3, cap=7)


def test_four_step_expansion_rate_pinned():
    lam_u4, _, _ = expansion_constants(standard_map(), Cone2(0.1), n=4)
    assert lam_u4 == pytest.approx(15.0878935326, rel=1e-8)


def test_bunching_arithmetic_true_case():
    params = HyperbolicityParams(
        lambda_u=2.0, lambda_s=0.5, Lambda_u=2.0, beta=0.0, t00=0.25
    )
    ok, margin = check_bunching(params)
    assert ok
    assert margin == pytest.approx(0.5, abs=1e-15)


def test_bunching_arithmetic_false_case():
    # beta ~ 1 fails for spread-out expansion rates; beta = 1 itself is
    # outside the admissible range and rejected by the parameter type
    params = HyperbolicityParams(
        lambda_u=2.0, lambda_s=0.9, Lambda_u=4.0, beta=0.99, t00=0.25
    )
    ok, margin = check_bunching(params)
    assert not ok
    value = 0.9 ** 0.01 / 2.0 * 4.0 ** 1.99
    assert margin == pytest.approx(1.0 - value, rel=1e-12)
    with pytest.raises(ValueError):
        HyperbolicityParams(
            lambda_u=2.0, lambda_s=0.9, Lambda_u=4.0, beta=1.0, t00=0.25
        )


def test_bunching_for_standard_flow_constants(flow):
    small = default_params(flow, beta=0.1, n=4)
    ok_small, margin_small = check_bunching(small)
    assert ok_small and margin_small > 0
    formula = (small.lambda_s ** 0.9 / small.lambda_u
               * small.Lambda_u ** 1.1)
    assert 1.0 - margin_small == pytest.approx(formula, abs=1e-12)
    assert 1.0 - margin_small == pytest.approx(0.684154, abs=5e-3)
    ok_big, margin_big = check_bunching(default_params(flow, beta=0.5, n=4))
    assert not ok_big
    assert 1.0 - margin_big == pytest.approx(1.103890, abs=5e-3)


def test_default_params_t00_quarter_of_floor(flow):
    params = default_params(flow, beta=0.1)
    assert params.t00 == pytest.approx(0.25)
    assert params.lambda_u > 1 > params.lambda_s > 0
    assert params.Lambda_u >= params.lambda_u


def test_transversality_of_discontinuity_images(flow):
    stable = Cone2(1.0).stable_partner()
    report = check_transversality(flow, stable, samples_per_segment=64)
    assert report.ok
    assert report.min_clearance > 0
    dense = check_transversality(flow, stable, samples_per_segment=128)
    assert dense.min_clearance == pytest.approx(
        report.min_clearance, rel=0.02
    )


def test_transversality_fails_for_unstable_axis_cone(flow):
    # image tangents live in the unstable cone, so using it as the
    # "stable" cone must report no clearance
    report = check_transversality(flow, Cone2(1.0), samples_per_segment=64)
    assert report.min_clearance <= 0
    assert not report.ok


def test_complexity_counts_exact_small(flow):
    reports = complexity_counts(flow, 8)
    assert [(r.n, r.D_b, r.D_e, r.cells_b, r.cells_e) for r in reports] == COMPLEXITY_ROWS
    for r in reports:
        assert r.rate_b == pytest.approx(np.log(r.D_b) / r.n)
        assert r.rate_e == pytest.approx(np.log(r.D_e) / r.n)
    # incidence counts never decrease with word length
    for a, b in zip(reports[:-1], reports[1:]):
        assert b.D_b >= a.D_b and b.D_e >= a.D_e


def test_complexity_single_piece_control():
    base = single_piece_map()
    control = SuspensionFlow(base, build_roof(base, 1.0))
    reports = complexity_counts(control, 6)
    assert [r.n for r in reports] == [1, 2, 3, 4, 5, 6]
    assert all(r.D_b == 1 and r.D_e == 1 for r in reports)


def test_refine_level_keeps_cells_of_tiny_exact_area():
    # a triangle of exact area 5e-17 inside the first piece's image is a real
    # cell: refinement pulls it back whole, with its area (det 1)
    base = standard_map()
    image = fraction_polygon(base.image_polygons[0])
    cx = sum(v[0] for v in image) / len(image)
    cy = sum(v[1] for v in image) / len(image)
    e = Fraction(1, 10 ** 8)
    tiny = homogeneous_polygon([(cx, cy), (cx + e, cy), (cx, cy + e)])
    branches = [(img, pg.affine(*p.inverse)) for p, img in zip(base.pieces, base.image_polygons)]
    out = _refine_level([tiny], branches)
    assert out == [pg.affine_image(tiny, pg.affine(*base.pieces[0].inverse))]
    assert signed_area2(fraction_polygon(out[0])) == e * e < Fraction(2, 10 ** 14)


def test_max_incidence_matches_all_pairs_reference_on_refined_cells():
    for cells_b, cells_e in _refinements(standard_map(), 6):
        assert _max_incidence(cells_b) == max_incidence_reference(cells_b)
        assert _max_incidence(cells_e) == max_incidence_reference(cells_e)


def _poly(*pts):
    return homogeneous_polygon(polygon([(Fraction(x), Fraction(y)) for x, y in pts]))


# the right half and five triangles fanned out of (0, 1/2)
WRAP_FAN = [_poly(("1/2", 0), (1, 0), (1, 1), ("1/2", 1))] + [
    _poly((0, "1/2"), a, b) for a, b in [
        ((0, 0), ("1/4", 0)), (("1/4", 0), ("1/2", 0)), (("1/2", 0), ("1/2", 1)),
        (("1/2", 1), ("1/4", 1)), (("1/4", 1), (0, 1))]]

# planted partitions of the unit square and the incidence each one has
PLANTED = {
    # five triangles fan out of (1/2, 1/2), a point in the relative interior
    # of the left half's edge: only the T-junction makes it six
    "t_junction": ([_poly((0, 0), ("1/2", 0), ("1/2", 1), (0, 1))]
                   + [_poly(("1/2", "1/2"), a, b) for a, b in [
                       (("1/2", 0), ("3/4", 0)), (("3/4", 0), (1, 0)),
                       ((1, 0), (1, 1)), ((1, 1), ("3/4", 1)),
                       (("3/4", 1), ("1/2", 1))]], 6),
    # (0, 1/2) = (1, 1/2) lies inside the right half's edge on x = 1: a
    # T-junction found only through the representative x = 1 (and y = 1
    # in the transpose)
    "wrap_t_junction": (WRAP_FAN, 6),
    "wrap_t_junction_y": ([_poly(*[(y, x) for x, y in fraction_polygon(c)])
                           for c in WRAP_FAN], 6),
    # bricks whose vertices sit on x = 0/1 and y = 0/1; (1/3, 1) lies inside
    # the top edge of the top-left brick, a T-junction across the wrap
    "square_sides": ([_poly((0, 0), ("1/3", 0), ("1/3", "1/2"), (0, "1/2")),
                      _poly(("1/3", 0), (1, 0), (1, "1/2"), ("1/3", "1/2")),
                      _poly((0, "1/2"), ("2/3", "1/2"), ("2/3", 1), (0, 1)),
                      _poly(("2/3", "1/2"), (1, "1/2"), (1, 1), ("2/3", 1))], 4),
    # four corner triangles meet only at (0, 0) = (1, 0) = (0, 1) = (1, 1)
    "corner": ([_poly((0, 0), ("1/4", 0), (0, "1/4")),
                _poly(("3/4", 0), (1, 0), (1, "1/4")),
                _poly((1, "3/4"), (1, 1), ("3/4", 1)),
                _poly((0, "3/4"), ("1/4", 1), (0, 1)),
                _poly(("1/4", 0), ("3/4", 0), (1, "1/4"), (1, "3/4"),
                      ("3/4", 1), ("1/4", 1), (0, "3/4"), (0, "1/4"))], 4),
    "single_piece": ([p.polygon for p in single_piece_map().pieces], 1),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_max_incidence_matches_reference_on_planted_cells(name):
    cells, expected = PLANTED[name]
    assert max_incidence_reference(cells) == expected
    assert _max_incidence(cells) == expected
