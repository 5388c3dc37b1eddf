"""Anisotropic Fourier-multiplier norms on a periodic cube, at p = 2.

The weighted norm ``||F^{-1}(a * F v)||_{L^2}`` is exactly computable by
Plancherel, which is why p is fixed to 2 throughout.  Functions live on an
N^3 uniform grid over the cube [0, L]^3 with axis roles (u, s, 0): one
expanding direction, one contracting direction, one neutral (flow)
direction.  The forward transform uses the integral kernel
``exp(-i<xi, x>)``; its discrete surrogate samples frequencies 2*pi*k/L.
Continuous-space statements are approximated by compactly supported smooth
bumps, so every claim here is about refinement stability, not about the
continuum norm itself.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation, SupportEscape

AXIS_ROLES = ("u", "s", "0")

TRANSFORM_CONVENTION = (
    "forward kernel exp(-i<xi,x>) on [0,L]^3, discrete frequencies 2*pi*k/L"
)


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True)
class AnisoSymbol:
    """Weight a(xi) = (1+|xi|^2)^{r/2} (1+|xi_s|^2)^{s/2} (1+|xi_0|^2)^{q/2}.

    xi = (xi_u, xi_s, xi_0).  a(0) = 1 and a > 0 everywhere; r = s = q = 0
    gives the constant symbol 1.
    """

    r: float
    s: float
    q: float

    def __call__(self, xi_u, xi_s, xi_0):
        xu = np.asarray(xi_u, dtype=float)
        xs = np.asarray(xi_s, dtype=float)
        x0 = np.asarray(xi_0, dtype=float)
        full = 1.0 + xu * xu + xs * xs + x0 * x0
        out = full ** (0.5 * self.r)
        if self.s != 0.0:
            out = out * (1.0 + xs * xs) ** (0.5 * self.s)
        if self.q != 0.0:
            out = out * (1.0 + x0 * x0) ** (0.5 * self.q)
        return out

    def shifted_lower_order(self, r_prime: float, s_prime: float) -> "AnisoSymbol":
        """Companion symbol (r', s', q + r - r') used in two-term bounds."""
        return AnisoSymbol(r_prime, s_prime, self.q + self.r - r_prime)


def scale_bracket(x: float, lam: float):
    """Return (lam^{-1}(1+lam*x), 1+x, 2*lam^{-1}(1+lam*x)).

    For x >= 1 and lam >= 1 the middle value sits inside the bracket; this
    elementary inequality is what lets the symbol weights absorb bounded
    rescalings of the frequency variable.
    """
    anchor = (1.0 + lam * x) / lam
    return anchor, 1.0 + x, 2.0 * anchor


# ---------------------------------------------------------------------------
# grid functions


def frequency_axis(n: int, length: float) -> np.ndarray:
    """Angular frequencies 2*pi*k/L along one axis, in FFT order."""
    return 2.0 * math.pi * np.fft.fftfreq(n, d=length / n)


class GridFunction3:
    """Complex samples on an N^3 uniform grid over [0, L]^3.

    Axis i of the sample array carries the role ``axes[i]``; the default
    order is (u, s, 0).  Grid points are x_i = i*L/N (periodic, no endpoint
    duplication).  The raw FFT is cached, so repeated norms against
    different symbols reuse one transform.
    """

    __slots__ = ("values", "length", "axes", "name", "_fhat")

    def __init__(self, values, length: float, axes=AXIS_ROLES, name: str = "grid"):
        arr = np.ascontiguousarray(values, dtype=np.complex128)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError("samples must form a cubic N^3 array")
        if arr.shape[0] < 4:
            raise ValueError("grid must have at least 4 points per axis")
        if float(length) <= 0.0:
            raise ValueError("cube side length must be positive")
        if tuple(axes) != AXIS_ROLES and sorted(axes) != sorted(AXIS_ROLES):
            raise ValueError(f"axis roles must be a permutation of {AXIS_ROLES}")
        arr.setflags(write=False)
        self.values = arr
        self.length = float(length)
        self.axes = tuple(axes)
        self.name = name
        self._fhat = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_evaluator(cls, fn, n: int, length: float, axes=AXIS_ROLES,
                       name: str = "grid") -> "GridFunction3":
        """Sample fn(x0, x1, x2) on the grid; fn must broadcast over arrays."""
        pts = np.arange(n) * (length / n)
        x0 = pts[:, None, None]
        x1 = pts[None, :, None]
        x2 = pts[None, None, :]
        return cls(fn(x0, x1, x2), length, axes=axes, name=name)

    def raw_fft(self) -> np.ndarray:
        if self._fhat is None:
            self._fhat = np.fft.fftn(self.values)
            self._fhat.setflags(write=False)
        return self._fhat

    def l2_norm(self) -> float:
        """Discrete L^2 norm with cell-volume weight (L/N)^3."""
        cell = (self.length / self.n) ** 3
        return math.sqrt(cell * float(np.sum(np.abs(self.values) ** 2)))

    def scaled(self, c) -> "GridFunction3":
        return GridFunction3(c * self.values, self.length, self.axes,
                             name=self.name)

    def __add__(self, other: "GridFunction3") -> "GridFunction3":
        if not isinstance(other, GridFunction3):
            return NotImplemented
        if other.n != self.n or other.length != self.length \
                or other.axes != self.axes:
            raise ValueError("grids are not compatible")
        return GridFunction3(self.values + other.values, self.length,
                             self.axes, name=f"{self.name}+{other.name}")


def symbol_on_grid(sym: AnisoSymbol, n: int, length: float,
                   axes=AXIS_ROLES) -> np.ndarray:
    """Evaluate a symbol on the N^3 FFT frequency grid (real array)."""
    freqs = frequency_axis(n, length)
    comp = {}
    for i, role in enumerate(axes):
        shape = [1, 1, 1]
        shape[i] = n
        comp[role] = freqs.reshape(shape)
    return np.asarray(sym(comp["u"], comp["s"], comp["0"]), dtype=float)


def aniso_norm_p2(f: GridFunction3, sym: AnisoSymbol) -> float:
    """Weighted transform norm ||a * Ff||, normalized so that the constant
    function c has norm |c| * L^{3/2} for any symbol (a(0) = 1).

    At r = s = q = 0 this equals the discrete L^2 norm exactly (Parseval).
    """
    weights = symbol_on_grid(sym, f.n, f.length, f.axes)
    total = float(np.sum((weights * np.abs(f.raw_fft())) ** 2))
    return (f.length ** 1.5 / f.n ** 3) * math.sqrt(total)


# ---------------------------------------------------------------------------
# hyperbolic block maps


@dataclass(frozen=True)
class HyperbolicBlockMap:
    """Diagonal map diag(a_u, b_s, 1) expanding in u and contracting in s.

    Requires |a_u| >= 1 >= |b_s| > 0.  Equality is allowed so the identity
    map is expressible as a degenerate reference point; genuinely hyperbolic
    use has both inequalities strict.
    """

    au: float
    bs: float

    def __post_init__(self):
        if not (abs(self.au) >= 1.0 >= abs(self.bs) > 0.0):
            raise ValueError("need |a_u| >= 1 >= |b_s| > 0")

    @property
    def lambda_u(self) -> float:
        return abs(self.au)

    @property
    def lambda_s(self) -> float:
        return abs(self.bs)

    @property
    def det(self) -> float:
        return self.au * self.bs

    def power(self, k: int) -> "HyperbolicBlockMap":
        if k < 1:
            raise ValueError("power must be a positive integer")
        return HyperbolicBlockMap(self.au ** k, self.bs ** k)

    def contraction_factor(self, r: float, s: float) -> float:
        """max(lambda_u^{-r}, lambda_s^{-(r+s)}): the decay factor the
        two-term symbol bound attaches to the leading norm."""
        return max(self.lambda_u ** (-r), self.lambda_s ** (-(r + s)))

    def dual_inverse_xi(self, xi_u, xi_s, xi_0):
        """Pull a frequency triple back through the transpose inverse."""
        return (np.asarray(xi_u) / self.au, np.asarray(xi_s) / self.bs,
                np.asarray(xi_0))


def _check_exponent_hypotheses(r, s, q, r_prime, s_prime):
    """Exponent window for the two-term symbol bound."""
    msgs = []
    if not (0.0 <= r):
        msgs.append(f"need r >= 0, got r={r}")
    if not (s <= -r):
        msgs.append(f"need s <= -r, got s={s}, -r={-r}")
    if not (r_prime < r):
        msgs.append(f"need r' < r, got r'={r_prime}, r={r}")
    if not (s_prime <= s):
        msgs.append(f"need s' <= s, got s'={s_prime}, s={s}")
    if not (q >= 0.0):
        msgs.append(f"need q >= 0, got q={q}")
    return msgs


def _nonnegative_log_grid(xi_max: float, n_per_axis: int) -> np.ndarray:
    # Symbols are even in each coordinate, so one octant suffices.
    if n_per_axis < 4:
        raise ValueError("need at least 4 grid values per axis")
    return np.concatenate(
        [[0.0], np.geomspace(0.05, xi_max, n_per_axis - 1)])


@dataclass
class SymbolInequalityReport:
    """Empirical constants for b <= K1 * M * a + K2 * a' over a frequency
    grid, where b = a composed with the transpose-inverse map and
    M = max(lambda_u^{-r}, lambda_s^{-(r+s)})."""

    r: float
    s: float
    q: float
    r_prime: float
    s_prime: float
    au: float
    bs: float
    m_factor: float
    k1: float
    k2: float
    k1_prime: float
    k1_single_term: float
    xi_max: float
    n_per_axis: int
    k1_doubled: float
    k1_prime_doubled: float
    rel_change: float
    hypothesis_ok: bool
    hypothesis_messages: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "r", "s", "q", "r_prime", "s_prime", "au", "bs", "m_factor",
            "k1", "k2", "k1_prime", "k1_single_term", "xi_max",
            "n_per_axis", "k1_doubled", "k1_prime_doubled", "rel_change",
            "hypothesis_ok", "hypothesis_messages")}
        d["transform_convention"] = TRANSFORM_CONVENTION
        return d


def _symbol_sup_ratios(r, s, q, r_prime, s_prime, dmap, xi_max, n_per_axis,
                       k2_over_k1):
    vals = _nonnegative_log_grid(xi_max, n_per_axis)
    xu = vals[:, None, None]
    xs = vals[None, :, None]
    x0 = vals[None, None, :]
    sym = AnisoSymbol(r, s, q)
    low = sym.shifted_lower_order(r_prime, s_prime)
    a = sym(xu, xs, x0)
    a_low = low(xu, xs, x0)
    b = sym(*dmap.dual_inverse_xi(xu, xs, x0))
    m = dmap.contraction_factor(r, s)
    k1 = float(np.max(b / (m * a + k2_over_k1 * a_low)))
    k1_prime = float(np.max(b / a))
    k1_single = float(np.max(b / (m * a)))
    return k1, k1_prime, k1_single, m


def check_symbol_inequality(r: float, s: float, q: float, r_prime: float,
                            s_prime: float, dmap: HyperbolicBlockMap,
                            xi_max: float = 1e6, n_per_axis: int = 33,
                            k2_over_k1: float = 10.0,
                            enforce: bool = True) -> SymbolInequalityReport:
    """Measure the constants in the two-term symbol bound on a log grid.

    The bound only asserts existence of (K1, K2), so a reporting rule is
    needed: K1 is minimized subject to K2 = k2_over_k1 * K1.  K1' is the
    best single-term constant for b <= K1' * a, and k1_single_term drops
    the companion term entirely (b <= K * M * a), which is the quantity
    that degenerates when the exponent window is violated.  Stability is
    probed by doubling the frequency range.
    """
    msgs = _check_exponent_hypotheses(r, s, q, r_prime, s_prime)
    if msgs and enforce:
        raise HypothesisViolation("; ".join(msgs))
    k1, k1p, k1single, m = _symbol_sup_ratios(
        r, s, q, r_prime, s_prime, dmap, xi_max, n_per_axis, k2_over_k1)
    k1d, k1pd, _, _ = _symbol_sup_ratios(
        r, s, q, r_prime, s_prime, dmap, 2.0 * xi_max, n_per_axis + 4,
        k2_over_k1)
    rel = max(abs(k1d - k1) / k1 if k1 > 0 else 0.0,
              abs(k1pd - k1p) / k1p if k1p > 0 else 0.0)
    return SymbolInequalityReport(
        r=r, s=s, q=q, r_prime=r_prime, s_prime=s_prime,
        au=dmap.au, bs=dmap.bs, m_factor=m,
        k1=k1, k2=k2_over_k1 * k1, k1_prime=k1p, k1_single_term=k1single,
        xi_max=xi_max, n_per_axis=n_per_axis,
        k1_doubled=k1d, k1_prime_doubled=k1pd, rel_change=rel,
        hypothesis_ok=not msgs, hypothesis_messages=msgs)


def symbol_growth_diagnostic(r: float, s: float, q: float,
                             dmap: HyperbolicBlockMap,
                             powers=(1, 2, 3), xi_max: float = 64.0,
                             n_per_axis: int = 17):
    """Best single-term constants sup b/a across iterates of the map.

    Inside the exponent window (s <= -r) these stay bounded by 1; with
    r + s > 0 they grow without bound along the powers, which is exactly
    why the companion lower-order term is needed.
    """
    out = []
    sym = AnisoSymbol(r, s, q)
    vals = _nonnegative_log_grid(xi_max, n_per_axis)
    xu = vals[:, None, None]
    xs = vals[None, :, None]
    x0 = vals[None, None, :]
    a = sym(xu, xs, x0)
    for k in powers:
        dk = dmap.power(int(k))
        b = sym(*dk.dual_inverse_xi(xu, xs, x0))
        out.append(float(np.max(b / a)))
    return out


# ---------------------------------------------------------------------------
# closed-form bumps and hyperbolic composition


def _bump_profile(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


@dataclass(frozen=True)
class CubeBump:
    """Smooth compactly supported product bump on the cube, evaluable
    anywhere (so affine reparametrizations are sampled exactly, never
    interpolated)."""

    center: tuple
    halfwidths: tuple
    amplitude: float = 1.0
    name: str = "cube_bump"

    def __post_init__(self):
        if len(self.center) != 3 or len(self.halfwidths) != 3:
            raise ValueError("center and halfwidths must be 3-tuples")
        if any(h <= 0.0 for h in self.halfwidths):
            raise ValueError("halfwidths must be positive")

    def __call__(self, x0, x1, x2):
        c = self.center
        h = self.halfwidths
        val = _bump_profile((np.asarray(x0, dtype=float) - c[0]) / h[0])
        val = val * _bump_profile((np.asarray(x1, dtype=float) - c[1]) / h[1])
        val = val * _bump_profile((np.asarray(x2, dtype=float) - c[2]) / h[2])
        return self.amplitude * val

    def as_grid(self, n: int, length: float, axes=AXIS_ROLES) -> GridFunction3:
        return GridFunction3.from_evaluator(self, n, length, axes=axes,
                                            name=self.name)

    def composed_with_inverse(self, dmap: HyperbolicBlockMap,
                              length: float) -> "CubeBump":
        """Closed form of w(c0 + D^{-1}(x - c0)) with c0 the cube center.

        The dilation is anchored at the cube center so that supports stay
        inside [0, L]^3; the result is again a product bump with the u and
        s halfwidths scaled by |a_u| and |b_s|.
        """
        c0 = 0.5 * length
        cu = c0 + dmap.au * (self.center[0] - c0)
        cs = c0 + dmap.bs * (self.center[1] - c0)
        return CubeBump(
            center=(cu, cs, self.center[2]),
            halfwidths=(self.halfwidths[0] * dmap.lambda_u,
                        self.halfwidths[1] * dmap.lambda_s,
                        self.halfwidths[2]),
            amplitude=self.amplitude,
            name=f"{self.name}∘D^-1")


def _require_support_inside(bump: CubeBump, length: float):
    for c, h in zip(bump.center, bump.halfwidths):
        if c - h < -1e-12 or c + h > length + 1e-12:
            raise SupportEscape(
                f"support [{c - h:.6g}, {c + h:.6g}] leaves the cube "
                f"[0, {length:g}]")


@dataclass
class CompositionReport:
    """Measured norm of w∘D^{-1} against the two-term and unconditional
    change-of-variables bounds."""

    r: float
    s: float
    q: float
    r_prime: float
    s_prime: float
    au: float
    bs: float
    n: int
    length: float
    m_factor: float
    det: float
    norm_w: float
    norm_w_lower: float
    norm_mapped: float
    bound_two_term: float
    c_sharp_emp: float
    ratio_unconditional: float

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "r", "s", "q", "r_prime", "s_prime", "au", "bs", "n", "length",
            "m_factor", "det", "norm_w", "norm_w_lower", "norm_mapped",
            "bound_two_term", "c_sharp_emp", "ratio_unconditional")}
        d["transform_convention"] = TRANSFORM_CONVENTION
        return d


def check_composition_contraction(w: CubeBump, dmap: HyperbolicBlockMap,
                                  r: float, s: float, q: float,
                                  r_prime: float, s_prime: float,
                                  n: int = 128, length: float = 4.0,
                                  axes=AXIS_ROLES) -> CompositionReport:
    """Compare ||w∘D^{-1}|| with |det D|^{-1/2} (M ||w|| + ||w||_lower).

    w must be supported well inside the cube so that the u-stretched image
    still fits; otherwise SupportEscape is raised.  c_sharp_emp is the
    factor by which the measured norm exceeds (or undershoots) the
    two-term combination, and ratio_unconditional compares against
    |det D|^{-1/2} ||w|| alone.
    """
    _require_support_inside(w, length)
    mapped = w.composed_with_inverse(dmap, length)
    _require_support_inside(mapped, length)

    sym = AnisoSymbol(r, s, q)
    low = sym.shifted_lower_order(r_prime, s_prime)
    g = w.as_grid(n, length, axes=axes)
    gm = mapped.as_grid(n, length, axes=axes)
    norm_w = aniso_norm_p2(g, sym)
    norm_low = aniso_norm_p2(g, low)
    norm_mapped = aniso_norm_p2(gm, sym)
    m = dmap.contraction_factor(r, s)
    det_root = abs(dmap.det) ** -0.5
    bound = det_root * (m * norm_w + norm_low)
    return CompositionReport(
        r=r, s=s, q=q, r_prime=r_prime, s_prime=s_prime,
        au=dmap.au, bs=dmap.bs, n=n, length=length,
        m_factor=m, det=dmap.det,
        norm_w=norm_w, norm_w_lower=norm_low, norm_mapped=norm_mapped,
        bound_two_term=bound,
        c_sharp_emp=norm_mapped / bound,
        ratio_unconditional=norm_mapped / (det_root * norm_w))


def composition_iteration_sweep(w: CubeBump, dmap: HyperbolicBlockMap,
                                r: float, s: float, q: float,
                                k_max: int = 4, n: int = 192,
                                length: float = 4.0, slack: float = 2.0,
                                axes=AXIS_ROLES):
    """Track ||w∘D^{-k}|| / ||w|| for k = 1..k_max against M^k * slack.

    This is the contraction mechanism observed directly: iterating the
    hyperbolic map drives the weighted norm down geometrically at rate
    M = max(lambda_u^{-r}, lambda_s^{-(r+s)}) up to a fixed slack.
    """
    sym = AnisoSymbol(r, s, q)
    base = aniso_norm_p2(w.as_grid(n, length, axes=axes), sym)
    m = dmap.contraction_factor(r, s)
    rows = []
    for k in range(1, k_max + 1):
        mapped = w.composed_with_inverse(dmap.power(k), length)
        _require_support_inside(mapped, length)
        nk = aniso_norm_p2(mapped.as_grid(n, length, axes=axes), sym)
        rows.append({
            "N": n, "L": length, "r": r, "s": s, "q": q, "k": k,
            "ratio": nk / base, "bound": m ** k * slack,
        })
    return rows


# ---------------------------------------------------------------------------
# characteristic-function multipliers


@dataclass(frozen=True)
class HalfSpace:
    """Axis-aligned half space {x_axis <= threshold} (or >= with
    keep_below=False), used as a sharp spatial cutoff."""

    axis: str
    threshold: float
    keep_below: bool = True

    def __post_init__(self):
        if self.axis not in AXIS_ROLES:
            raise ValueError(f"axis must be one of {AXIS_ROLES}")

    def mask(self, n: int, length: float, axes=AXIS_ROLES) -> np.ndarray:
        pts = np.arange(n) * (length / n)
        keep = pts <= self.threshold if self.keep_below else pts >= self.threshold
        shape = [1, 1, 1]
        shape[tuple(axes).index(self.axis)] = n
        return np.broadcast_to(keep.reshape(shape), (n, n, n))


def multiplier_admissibility(r: float, s: float, q: float):
    """p = 2 window for sharp-cutoff boundedness.

    Requires -1/2 < s(1+q/r) <= 0 <= r(1+q/r) < 1/2; at r = 0 only q = 0
    is meaningful (the window degenerates to s in (-1/2, 0]).
    Returns (admissible, t_stable, t_unstable, messages).
    """
    msgs = []
    if r < 0.0:
        return False, float("nan"), float("nan"), [f"need r >= 0, got {r}"]
    if r == 0.0:
        if q != 0.0:
            return False, float("nan"), float("nan"), [
                "q must vanish when r = 0 (q/r undefined)"]
        t_s, t_u = s, 0.0
    else:
        t_s = s * (1.0 + q / r)
        t_u = r * (1.0 + q / r)
    if not (-0.5 < t_s <= 0.0):
        msgs.append(f"need -1/2 < s(1+q/r) <= 0, got {t_s}")
    if not (0.0 <= t_u < 0.5):
        msgs.append(f"need 0 <= r(1+q/r) < 1/2, got {t_u}")
    return not msgs, t_s, t_u, msgs


@dataclass
class MultiplierReport:
    """Ratios ||1_U w|| / ||w|| across bumps and grid sizes, with a
    bounded-under-refinement verdict."""

    r: float
    s: float
    q: float
    admissible: bool
    t_stable: float
    t_unstable: float
    rows: list
    max_rel_change: float
    bounded_under_refinement: bool
    hypothesis_messages: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "r", "s", "q", "admissible", "t_stable", "t_unstable", "rows",
            "max_rel_change", "bounded_under_refinement",
            "hypothesis_messages")}
        d["transform_convention"] = TRANSFORM_CONVENTION
        return d


def check_multiplier_charfun(half: HalfSpace, r: float, s: float, q: float,
                             bumps, ns=(64, 128), length: float = 4.0,
                             rel_tol: float = 0.05, enforce: bool = True,
                             axes=AXIS_ROLES) -> MultiplierReport:
    """Measure how a sharp half-space cutoff inflates the weighted norm.

    Inside the admissible exponent window the ratio stabilizes under grid
    refinement; outside it (e.g. r >= 1/2) the ratio keeps growing with N,
    which the report makes visible rather than hiding.  enforce=False
    downgrades inadmissible exponents from an error to a recorded flag so
    the divergence can be demonstrated.
    """
    admissible, t_s, t_u, msgs = multiplier_admissibility(r, s, q)
    if not admissible and enforce:
        raise HypothesisViolation("; ".join(msgs))
    if len(ns) < 2:
        raise ValueError("need at least two grid sizes for a refinement check")
    sym = AnisoSymbol(r, s, q)
    rows = []
    rel_changes = []
    for bump in bumps:
        ratios = []
        for n in ns:
            g = bump.as_grid(int(n), length, axes=axes)
            cut = GridFunction3(
                np.where(half.mask(int(n), length, axes), g.values, 0.0),
                length, axes=axes, name=f"1_U*{bump.name}")
            ratio = aniso_norm_p2(cut, sym) / aniso_norm_p2(g, sym)
            ratios.append(ratio)
            rows.append({"N": int(n), "L": length, "r": r, "s": s, "q": q,
                         "ratio": ratio, "bound": float("nan")})
        for lo, hi in zip(ratios[:-1], ratios[1:]):
            rel_changes.append(abs(hi - lo) / lo)
    max_rel = max(rel_changes)
    return MultiplierReport(
        r=r, s=s, q=q, admissible=admissible, t_stable=t_s, t_unstable=t_u,
        rows=rows, max_rel_change=max_rel,
        bounded_under_refinement=max_rel < rel_tol,
        hypothesis_messages=msgs)


# ---------------------------------------------------------------------------
# artifact output


def write_sweep_csv(path, rows):
    """Write sweep rows as CSV (N, L, r, s, q[, k], ratio, bound).

    The transform convention is recorded in a leading comment line so that
    numbers stay interpretable away from the code.
    """
    cols = ["N", "L", "r", "s", "q", "ratio", "bound"]
    if rows and "k" in rows[0]:
        cols = ["N", "L", "r", "s", "q", "k", "ratio", "bound"]
    with open(path, "w", newline="") as fh:
        fh.write(f"# transform: {TRANSFORM_CONVENTION}\n")
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: f"{row[c]:.17g}" if isinstance(row[c], float)
                             else row[c] for c in cols})


def write_symbol_report_json(path, report):
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
