"""Contact geometry on R^3 with the standard form alpha = dz - y dx.

A chart here is a coordinate change K(x, y, z) = (A(x,y), B(x,y), z + C(x,y))
that pulls the standard contact form back to itself.  Such maps are exactly
those with unit planar Jacobian determinant and

    dC/dx = B * dA/dx - y,      dC/dy = B * dA/dy.

Charts are built from two testable elementary moves, a translation-with-shear
moving a point to the origin and a linear map with unit determinant, and
from compositions of charts.  check_contact_chart measures the residuals of
the three chart equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DegenerateFrame


@dataclass(frozen=True)
class ContactChart:
    """Planar components (A, B), vertical correction C, analytic gradients.

    grad_* callables return (d/dx, d/dy) pairs.
    """

    a: Callable[[float, float], float]
    b: Callable[[float, float], float]
    c: Callable[[float, float], float]
    grad_a: Callable[[float, float], tuple[float, float]]
    grad_b: Callable[[float, float], tuple[float, float]]
    grad_c: Callable[[float, float], tuple[float, float]]

    def apply(self, point: Sequence[float]) -> tuple[float, float, float]:
        x, y, z = (float(t) for t in point)
        return (self.a(x, y), self.b(x, y), z + self.c(x, y))


def identity_chart() -> ContactChart:
    return ContactChart(
        a=lambda x, y: x,
        b=lambda x, y: y,
        c=lambda x, y: 0.0,
        grad_a=lambda x, y: (1.0, 0.0),
        grad_b=lambda x, y: (0.0, 1.0),
        grad_c=lambda x, y: (0.0, 0.0),
    )


def linear_contact_chart(m) -> ContactChart:
    """Planar linear map with det 1 plus its forced quadratic z-correction.

    C = (m00*m10/2) x^2 + m01*m10 x y + (m01*m11/2) y^2 satisfies the chart
    PDEs identically when det m = 1.
    """
    m00, m01 = float(m[0][0]), float(m[0][1])
    m10, m11 = float(m[1][0]), float(m[1][1])
    det = m00 * m11 - m01 * m10
    if abs(det - 1.0) > 1e-12:
        raise DegenerateFrame(f"planar block must have det 1, got {det!r}")
    q20, q11, q02 = 0.5 * m00 * m10, m01 * m10, 0.5 * m01 * m11
    return ContactChart(
        a=lambda x, y: m00 * x + m01 * y,
        b=lambda x, y: m10 * x + m11 * y,
        c=lambda x, y: q20 * x * x + q11 * x * y + q02 * y * y,
        grad_a=lambda x, y: (m00, m01),
        grad_b=lambda x, y: (m10, m11),
        grad_c=lambda x, y: (2 * q20 * x + q11 * y, q11 * x + 2 * q02 * y),
    )


def contact_translation(anchor: Sequence[float]) -> ContactChart:
    """Move anchor to the origin: (x,y,z) -> (x-ax, y-ay, z-az-ay*(x-ax))."""
    ax_, ay_, az_ = (float(t) for t in anchor)
    return ContactChart(
        a=lambda x, y: x - ax_,
        b=lambda x, y: y - ay_,
        c=lambda x, y: -az_ - ay_ * (x - ax_),
        grad_a=lambda x, y: (1.0, 0.0),
        grad_b=lambda x, y: (0.0, 1.0),
        grad_c=lambda x, y: (-ay_, 0.0),
    )


def compose_charts(outer: ContactChart, inner: ContactChart) -> ContactChart:
    """outer after inner; the composite is again of the (A, B, z+C) shape."""

    def a(x, y):
        return outer.a(inner.a(x, y), inner.b(x, y))

    def b(x, y):
        return outer.b(inner.a(x, y), inner.b(x, y))

    def c(x, y):
        return inner.c(x, y) + outer.c(inner.a(x, y), inner.b(x, y))

    def _chain(grad_outer):
        def g(x, y):
            u, v = inner.a(x, y), inner.b(x, y)
            gu, gv = grad_outer(u, v)
            iax, iay = inner.grad_a(x, y)
            ibx, iby = inner.grad_b(x, y)
            return (gu * iax + gv * ibx, gu * iay + gv * iby)

        return g

    ga, gb, gc_outer = _chain(outer.grad_a), _chain(outer.grad_b), _chain(outer.grad_c)

    def gc(x, y):
        icx, icy = inner.grad_c(x, y)
        ocx, ocy = gc_outer(x, y)
        return (icx + ocx, icy + ocy)

    return ContactChart(a=a, b=b, c=c, grad_a=ga, grad_b=gb, grad_c=gc)


@dataclass
class ChartReport:
    """Max residuals of the three chart equations over the sampled points."""

    max_det_residual: float
    max_cx_residual: float
    max_cy_residual: float
    fd_step: float | None
    n_points: int
    tolerance: float = 1e-10
    flagged: list[str] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.max_det_residual, self.max_cx_residual, self.max_cy_residual)

    @property
    def ok(self) -> bool:
        return not self.flagged


def _fd_grad(f: Callable[[float, float], float], x: float, y: float, h: float) -> tuple[float, float]:
    return (
        (f(x + h, y) - f(x - h, y)) / (2 * h),
        (f(x, y + h) - f(x, y - h)) / (2 * h),
    )


def check_contact_chart(
    chart: ContactChart,
    sample_points: Sequence[Sequence[float]],
    fd_step: float | None = None,
    tolerance: float = 1e-10,
) -> ChartReport:
    """Residuals of det = 1, dC/dx = B dA/dx - y, dC/dy = B dA/dy.

    Residuals above tolerance are reported, never raised.  fd_step switches
    the derivative source from analytic gradients to central differences.
    """
    rd = rx = ry = 0.0
    for p in sample_points:
        x, y = float(p[0]), float(p[1])
        if fd_step is None:
            ax, ay = chart.grad_a(x, y)
            bx, by = chart.grad_b(x, y)
            cx, cy = chart.grad_c(x, y)
        else:
            ax, ay = _fd_grad(chart.a, x, y, fd_step)
            bx, by = _fd_grad(chart.b, x, y, fd_step)
            cx, cy = _fd_grad(chart.c, x, y, fd_step)
        bv = chart.b(x, y)
        rd = max(rd, abs(ax * by - ay * bx - 1.0))
        rx = max(rx, abs(cx - (bv * ax - y)))
        ry = max(ry, abs(cy - bv * ay))
    report = ChartReport(
        max_det_residual=rd,
        max_cx_residual=rx,
        max_cy_residual=ry,
        fd_step=fd_step,
        n_points=len(sample_points),
        tolerance=tolerance,
    )
    for name, val in (("det", rd), ("c_x", rx), ("c_y", ry)):
        if val > tolerance:
            report.flagged.append(f"{name} residual {val:.3e} > {tolerance:.1e}")
    return report
