"""Anisotropic transform-side norms, symbol bounds, and multipliers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contactflow import (
    AnisoSymbol,
    CubeBump,
    GridFunction3,
    HalfSpace,
    HyperbolicBlockMap,
    HypothesisViolation,
    SupportEscape,
    aniso_norm_p2,
    check_composition_contraction,
    check_multiplier_charfun,
    check_symbol_inequality,
    composition_iteration_sweep,
    multiplier_admissibility,
    write_sweep_csv,
)

from helpers import aniso_norm_reference, dense_grid

DMAP = HyperbolicBlockMap(2.0, 0.5)
EXPS = dict(r=0.3, s=-0.4, q=0.0, r_prime=0.1, s_prime=-0.5)
WIDE = CubeBump((2.0, 2.0, 2.0), (1.0, 1.0, 1.0), name="wb")


def _noise(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _noise_grid(n, seed, length=4.0, line=None):
    """A random plane times a random line (or the given line)."""
    rng = np.random.default_rng(seed)
    plane = _noise(rng, (n, n))
    if line is None:
        line = _noise(rng, n)
    return GridFunction3(plane, line, length, name=f"noise{seed}")


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------


def test_symbol_normalized_at_origin():
    for exps in [(0.3, -0.4, 0.0), (1.0, -1.0, 0.5), (0.0, 0.0, 0.0)]:
        assert AnisoSymbol(*exps)(0.0, 0.0, 0.0) == 1.0


def test_symbol_zero_exponents_is_constant_one():
    sym = AnisoSymbol(0.0, 0.0, 0.0)
    rng = np.random.default_rng(0)
    xi = rng.normal(scale=100.0, size=(3, 50))
    assert np.all(sym(*xi) == 1.0)


def test_symbol_opposite_exponents_cancel_on_stable_axis():
    # full factor (1+1)^{1/2} against stable factor (1+1)^{-1/2}
    assert AnisoSymbol(1.0, -1.0, 0.0)(0.0, 1.0, 0.0) == pytest.approx(
        1.0, abs=1e-15)


def test_symbol_monotone_in_exponents():
    f = _noise_grid(16, 3)
    low = aniso_norm_p2(f, AnisoSymbol(0.1, -0.4, 0.0))
    high = aniso_norm_p2(f, AnisoSymbol(0.3, -0.2, 0.1))
    assert low <= high * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# grid norms
# ---------------------------------------------------------------------------


def test_constant_grid_norm_for_any_symbol():
    length = 4.0
    c = -2.5 + 1.5j
    f = GridFunction3(np.full((16, 16), c), np.ones(16), length)
    target = abs(c) * length ** 1.5
    for exps in [(0.0, 0.0, 0.0), (0.3, -0.4, 0.0), (2.0, -2.0, 1.0)]:
        assert aniso_norm_p2(f, AnisoSymbol(*exps)) == pytest.approx(
            target, rel=1e-12)


def test_single_mode_norm_reads_off_symbol():
    n, length = 32, 4.0
    k = np.array([1.0, 2.0, 0.0])
    sym = AnisoSymbol(0.3, -0.4, 0.1)

    x = np.arange(n) * (length / n)
    plane = np.exp(2j * math.pi * (k[0] * x[:, None] + k[1] * x[None, :])
                   / length)
    f = GridFunction3(plane, np.exp(2j * math.pi * k[2] * x / length), length)
    xi = 2.0 * math.pi * k / length
    target = float(sym(*xi)) * length ** 1.5
    assert aniso_norm_p2(f, sym) == pytest.approx(target, rel=1e-10)


def test_flat_symbol_norm_is_parseval():
    f = _noise_grid(32, 7)
    flat = aniso_norm_p2(f, AnisoSymbol(0.0, 0.0, 0.0))
    assert flat == pytest.approx(f.l2_norm(), rel=1e-10)


@given(st.integers(0, 50), st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
def test_norm_homogeneous_and_triangle(seed, re, im):
    c = complex(re, im)
    sym = AnisoSymbol(0.3, -0.4, 0.0)
    f = _noise_grid(8, seed)
    g = _noise_grid(8, seed + 1000, line=f.line)
    nf = aniso_norm_p2(f, sym)
    cf = GridFunction3(c * f.values, f.line, f.length)
    assert aniso_norm_p2(cf, sym) == pytest.approx(
        abs(c) * nf, abs=1e-10, rel=1e-10)
    f_plus_g = GridFunction3(f.values + g.values, f.line, f.length)
    assert aniso_norm_p2(f_plus_g, sym) <= nf + aniso_norm_p2(g, sym) + 1e-10


@pytest.mark.parametrize("n", [15, 16, 33])
def test_folded_norm_matches_dense_fftn(n):
    # odd N, even N (with its Nyquist bin), symbols with q != 0 and
    # exponents outside the admissible windows
    symbols = [AnisoSymbol(0.3, -0.4, 0.0), AnisoSymbol(0.3, -0.4, 0.7),
               AnisoSymbol(2.0, -2.0, 1.0), AnisoSymbol(0.6, -0.3, 0.0),
               AnisoSymbol(-1.0, 1.5, -0.5), AnisoSymbol(0.0, 0.0, 0.0)]
    for seed in range(3):
        f = _noise_grid(n, seed, length=2.5 + seed)
        for sym in symbols:
            assert aniso_norm_p2(f, sym) == pytest.approx(
                aniso_norm_reference(f, sym), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# the two-term symbol inequality
# ---------------------------------------------------------------------------


def test_identity_map_has_unit_single_term_constant():
    rep = check_symbol_inequality(**EXPS, dmap=HyperbolicBlockMap(1.0, 1.0))
    assert rep.k1_prime == 1.0
    assert rep.hypothesis_ok


def test_symbol_constants_standard_exponents():
    rep = check_symbol_inequality(**EXPS, dmap=DMAP)
    assert rep.hypothesis_ok
    assert rep.k1 == pytest.approx(0.854800, rel=1e-3)
    assert rep.k2 == 10.0 * rep.k1
    assert rep.m_factor == pytest.approx(0.5 ** 0.1, rel=1e-12)
    assert 0.0 < rep.rel_change < 0.05


def test_symbol_hypotheses_violation_reported():
    bad = dict(EXPS, r=0.4, s=-0.3)  # violates s <= -r
    rep = check_symbol_inequality(**bad, dmap=DMAP)
    assert not rep.hypothesis_ok
    assert rep.hypothesis_messages == ["need s <= -r, got s=-0.3, -r=-0.4"]
    assert rep.k1 > 0.0


def test_growth_diagnostic_inside_and_outside_window():
    # k1_prime = sup b/a, the best single-term constant, across iterates
    def growth(r, s):
        return [check_symbol_inequality(r, s, 0.0, 0.1, -0.5, DMAP.power(k),
                                        xi_max=64.0, n_per_axis=17).k1_prime
                for k in (1, 2, 3)]

    inside = growth(0.3, -0.4)
    assert all(v <= 1.0 + 1e-12 for v in inside)
    outside = growth(0.4, -0.3)
    assert outside == pytest.approx([1.071764, 1.148685, 1.231130], rel=1e-3)
    assert outside[0] < outside[1] < outside[2]


# ---------------------------------------------------------------------------
# hyperbolic composition
# ---------------------------------------------------------------------------


def test_flat_exponents_recover_change_of_variables():
    comp = check_composition_contraction(
        WIDE, DMAP, 0.0, 0.0, 0.0, 0.0, 0.0, n=256)
    assert abs(comp.ratio_unconditional - 1.0) < 1e-8


def test_composition_contraction_below_two_term_bound():
    comp64 = check_composition_contraction(WIDE, DMAP, n=64, **EXPS)
    comp128 = check_composition_contraction(WIDE, DMAP, n=128, **EXPS)
    assert comp64.norm_mapped <= comp64.bound_two_term
    assert comp64.c_sharp_emp == pytest.approx(0.48614751, rel=1e-3)
    assert abs(comp128.c_sharp_emp - comp64.c_sharp_emp) \
        <= 0.1 * comp64.c_sharp_emp


def test_iteration_sweep_decays_within_bounds():
    w = CubeBump((2.0, 2.0, 2.0), (0.125, 1.0, 1.0), name="w")
    rows = composition_iteration_sweep(w, DMAP, 0.3, -0.4, 0.0,
                                       k_max=4, n=192)
    ratios = [row["ratio"] for row in rows]
    assert ratios == pytest.approx([0.744339, 0.587755, 0.508361, 0.465003],
                                   rel=1e-3)
    assert all(row["ratio"] <= row["bound"] for row in rows)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_stretched_support_escape_raises():
    fat = CubeBump((2.0, 2.0, 2.0), (1.5, 1.0, 1.0), name="fat")
    with pytest.raises(SupportEscape):
        check_composition_contraction(fat, DMAP, n=32, **EXPS)


# ---------------------------------------------------------------------------
# sharp-cutoff multipliers
# ---------------------------------------------------------------------------


def test_multiplier_admissibility_window():
    ok, t_s, t_u, msgs = multiplier_admissibility(0.3, -0.3, 0.0)
    assert ok and not msgs
    assert t_u == pytest.approx(0.3)
    ok, *_ , msgs = multiplier_admissibility(0.6, -0.3, 0.0)
    assert not ok and msgs
    ok, *_ , msgs = multiplier_admissibility(0.0, -0.2, 0.1)
    assert not ok  # q/r undefined at r = 0


def test_whole_cube_cutoff_is_identity():
    half = HalfSpace("u", 4.0)
    rep = check_multiplier_charfun(half, 0.3, -0.3, 0.0, [WIDE], ns=(16, 32))
    assert all(row["ratio"] == 1.0 for row in rep.rows)
    assert rep.max_rel_change == 0.0
    assert rep.bounded_under_refinement


@pytest.mark.parametrize("axis", ["u", "s", "0"])
def test_cut_is_the_dense_half_space_mask(axis):
    # the cutoff lands on the plane for u and s and on the line for 0
    g = _noise_grid(8, 5)
    cut = HalfSpace(axis, 1.9).cut(g)
    shape = [1, 1, 1]
    shape[["u", "s", "0"].index(axis)] = 8
    keep = (np.arange(8) * 0.5 <= 1.9).reshape(shape)
    assert np.array_equal(dense_grid(cut), np.where(keep, dense_grid(g), 0.0))
    assert cut.name == "1_U*noise5"


def test_multiplier_stable_in_admissible_window():
    half = HalfSpace("u", 2.0)
    other = CubeBump((2.3, 1.8, 2.1), (0.8, 1.2, 0.9), name="wb2")
    rep = check_multiplier_charfun(half, 0.3, -0.3, 0.0, [WIDE, other],
                                   ns=(64, 128))
    assert rep.admissible
    assert rep.max_rel_change < 0.05
    assert rep.bounded_under_refinement


def test_multiplier_grows_outside_window():
    half = HalfSpace("u", 2.0)
    with pytest.raises(HypothesisViolation):
        check_multiplier_charfun(half, 0.6, -0.3, 0.0, [WIDE], ns=(64, 128))
    rep = check_multiplier_charfun(half, 0.6, -0.3, 0.0, [WIDE],
                                   ns=(64, 128), enforce=False)
    assert not rep.admissible
    by_n = {row["N"]: row["ratio"] for row in rep.rows}
    assert by_n[128] > 1.02 * by_n[64]


def test_sweep_csv_includes_iterate_column(tmp_path):
    w = CubeBump((2.0, 2.0, 2.0), (0.25, 1.0, 1.0), name="w")
    rows = composition_iteration_sweep(w, DMAP, 0.3, -0.4, 0.0,
                                       k_max=2, n=32)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",") == ["N", "L", "r", "s", "q", "k",
                                   "ratio", "bound"]
    assert len(lines) == 4
    assert float(lines[2].split(",")[6]) == pytest.approx(rows[0]["ratio"])
