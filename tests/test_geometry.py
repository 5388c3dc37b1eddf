import numpy as np
import pytest

from contactflow import (
    ContactChart,
    DegenerateFrame,
    check_contact_chart,
    compose_charts,
    contact_translation,
    identity_chart,
    linear_contact_chart,
)
from contactflow._rng import spawn_rng


def _grid_points(n=7):
    xs = np.linspace(-0.9, 0.9, n)
    return [(x, y) for x in xs for y in xs]


def test_identity_chart_residuals_zero():
    report = check_contact_chart(identity_chart(), _grid_points())
    assert report.max_det_residual == 0.0
    assert report.max_cx_residual == 0.0
    assert report.max_cy_residual == 0.0
    assert report.ok and not report.flagged


def test_linear_chart_halving_x():
    chart = linear_contact_chart([[0.5, 0.0], [0.0, 2.0]])
    report = check_contact_chart(chart, _grid_points())
    assert report.max_residual < 1e-12
    a, b, c = chart.apply((0.6, 0.3, 0.1))
    assert a == pytest.approx(0.3)
    assert b == pytest.approx(0.6)
    assert c == pytest.approx(0.1)  # diagonal planar block needs no z shift


def test_linear_chart_rejects_non_unit_determinant():
    with pytest.raises(DegenerateFrame):
        linear_contact_chart([[2.0, 0.0], [0.0, 1.0]])


def test_determinant_violation_flagged_not_raised():
    stretch = ContactChart(
        a=lambda x, y: 2.0 * x,
        b=lambda x, y: y,
        c=lambda x, y: 0.0,
        grad_a=lambda x, y: (2.0, 0.0),
        grad_b=lambda x, y: (0.0, 1.0),
        grad_c=lambda x, y: (0.0, 0.0),
    )
    report = check_contact_chart(stretch, _grid_points())
    assert report.max_det_residual == 1.0
    assert report.flagged and not report.ok


def test_finite_difference_mode_matches_analytic():
    chart = linear_contact_chart([[1.0, 1.0], [0.5, 1.5]])
    analytic = check_contact_chart(chart, _grid_points())
    fd = check_contact_chart(chart, _grid_points(), fd_step=1e-6)
    assert analytic.max_residual < 1e-12
    assert fd.max_residual < 1e-6
    assert fd.fd_step == 1e-6


def test_translation_chart_moves_anchor_to_origin():
    anchor = (0.2, 0.3, 0.4)
    chart = contact_translation(anchor)
    assert chart.apply(anchor) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    report = check_contact_chart(chart, _grid_points())
    assert report.max_residual < 1e-14
    # K preserves alpha iff the two C equations hold; check at random points
    rng = spawn_rng(5, 2)
    assert check_contact_chart(chart, rng.random((20, 3))).max_residual < 1e-12


def test_compose_charts_matches_sequential_application():
    inner = contact_translation((0.1, -0.2, 0.05))
    outer = linear_contact_chart([[1.0, 0.5], [0.0, 1.0]])
    both = compose_charts(outer, inner)
    rng = spawn_rng(7, 3)
    pts = rng.random((20, 3))
    for p in pts:
        step = outer.apply(inner.apply(p))
        assert both.apply(p) == pytest.approx(step, abs=1e-12)
    # the composed analytic gradients preserve alpha
    assert check_contact_chart(both, pts).max_residual < 1e-10
