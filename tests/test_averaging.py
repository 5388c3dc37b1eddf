"""Stable leaves, the oscillatory-cancellation sweep, and leaf decompositions."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from contactflow import (
    ConeNotInvariant,
    PieceExplosion,
    default_dolgopyat_params,
    dolgopyat_experiment,
    dolgopyat_value,
    flow_box_bump,
    leaf_through,
    stable_decomposition_stats,
    stable_direction,
    write_decomposition_csv,
    write_dolgopyat_csv,
)
from contactflow import constant_observable
from contactflow.averaging import _LeafPiece, _rebase, measured_lambda_bar
from helpers import grid_points

PSI = dict(center=(0.3, 0.4, 0.5), halfwidths=(0.2, 0.2, 0.3))


# ---------------------------------------------------------------------------
# stable leaves
# ---------------------------------------------------------------------------


def test_stable_direction_of_standard_base(flow):
    assert stable_direction(flow.base) == pytest.approx((1.0, -0.5),
                                                        abs=1e-14)


def test_leaf_closed_form_and_kernel_residual(flow):
    w = (0.3, 0.4, 0.5)
    leaf = leaf_through(flow, w, 0.1)
    assert leaf.point(0.0) == pytest.approx(w, abs=1e-15)
    for s in (-0.07, 0.03, 0.09):
        x, y, z = leaf.point(s)
        assert x == pytest.approx((0.3 + s) % 1.0, abs=1e-14)
        assert y == pytest.approx((0.4 - 0.5 * s) % 1.0, abs=1e-14)
        assert z == pytest.approx(0.5 + 0.4 * s - 0.25 * s * s, abs=1e-14)
    assert leaf.kernel_residual() < 1e-12


# ---------------------------------------------------------------------------
# oscillatory cancellation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flow_name", [
    "flow",
    pytest.param("pflow", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: the decomposition cuts and rebases pieces along a "
        "hard-coded (1, -1/2), while the perturbed flow's stable direction "
        "is about (1, -0.663)"))),
])
def test_rebased_piece_lies_on_the_flows_own_leaf(flow_name, request):
    f = request.getfixturevalue(flow_name)
    b = grid_points(f, 1)
    w = (float(b.x[0]), float(b.y[0]), float(b.z[0]))
    leaf = leaf_through(f, w, 0.1)
    for s in (-0.05, 0.05):
        piece = _rebase(_LeafPiece(*w, 0.1), s, 0.01)
        x, y, z = leaf.point(s)
        assert (piece.x, piece.y, piece.z) == pytest.approx(
            (float(x), float(y), float(z)), abs=1e-12)


def test_default_cancellation_params(flow):
    params = default_dolgopyat_params(flow)
    assert (params.a, params.m, params.gamma) == (2.0, 2, 0.7)
    assert params.lambda_bar == pytest.approx(1.512226, rel=1e-4)
    assert params.resolvent_params(8.0).t_max == 12.0
    assert params.resolvent_params(8.0).tolerance == math.inf
    assert 0.0 < params.nu_a < 1.0
    assert params.nu_a == pytest.approx(
        1.0 / (1.0 + math.log(params.lambda_bar) / 2.0), abs=1e-15)
    assert params.delta_for(8.0) == pytest.approx(8.0 ** -0.7, abs=1e-15)
    assert params.delta_for(-8.0) == params.delta_for(8.0)
    assert params.delta_for(0.0) == 0.25
    assert params.nodes_per_unit_for(128.0) == 131


@pytest.mark.xfail(strict=True, raises=ConeNotInvariant, reason=(
    "ROADMAP item 3: measured_lambda_bar fixes the cone aperture at 0.01, "
    "which the perturbed map widens to 0.0144, so every perturbed "
    "dolgopyat ends in ConeNotInvariant"))
def test_measured_lambda_bar_on_the_perturbed_flow(pflow):
    assert measured_lambda_bar(pflow) > 1.0


def test_cancellation_anchor_constant_observable(flow):
    # R(a+ib)^{2m} 1 = (a+ib)^{-2m}: leaf averaging must not disturb it
    one = constant_observable(1.0)
    w = (0.4, 0.6, 0.5)
    params = default_dolgopyat_params(flow)
    (val,), (budget,) = dolgopyat_value(flow, one, params, [w], 2.0)
    target = (2.0 + 2.0j) ** -4
    assert abs(val - target) <= budget
    assert abs(target) == pytest.approx((4.0 + 4.0) ** -2, abs=1e-18)

    params1 = default_dolgopyat_params(flow, m=1)
    (val1,), (budget1,) = dolgopyat_value(flow, one, params1, [w], 2.0)
    assert abs(abs(val1) - 0.125) <= budget1


def test_cancellation_values_conjugate_in_b(flow):
    psi = flow_box_bump(**PSI)
    params = default_dolgopyat_params(flow)
    ws = [(0.4, 0.6, 0.5), (0.25, 0.3, 0.8)]
    plus, _ = dolgopyat_value(flow, psi, params, ws, 8.0)
    minus, _ = dolgopyat_value(flow, psi, params, ws, -8.0)
    assert np.all(np.abs(plus - minus.conjugate()) < 1e-12)
    for w, v in zip(ws, plus):  # a batch row is the single-point value
        assert dolgopyat_value(flow, psi, params, [w], 8.0)[0][0] == v


def test_cancellation_sweep_small(flow):
    psi = flow_box_bump(**PSI)
    params = default_dolgopyat_params(flow)
    table = dolgopyat_experiment(flow, psi, params, (4.0, 8.0),
                                 eval_points=3, seed=1)
    assert len(table.rows) == 2
    for row in table.rows:
        assert not row.flagged
        assert row.delta == pytest.approx(min(0.25, row.b ** -0.7),
                                          abs=1e-15)
        assert row.ratio > 0.0
        assert row.sup_value <= row.trivial_bound
    assert math.isnan(table.rows[0].gamma0_hat_running)
    assert math.isfinite(table.gamma0_hat)


def test_cancellation_strengthens_with_power(flow):
    psi = flow_box_bump(**PSI)
    params = default_dolgopyat_params(flow)
    tables = [dolgopyat_experiment(flow, psi, replace(params, m=m), [8.0],
                                   eval_points=10, seed=3) for m in (1, 2)]
    assert [table.m for table in tables] == [1, 2]
    rows = [table.rows[0] for table in tables]
    assert rows[0].ratio > rows[1].ratio > 0.0
    assert not any(row.flagged for row in rows)


def test_cancellation_csv_round_trip(flow, tmp_path):
    psi = flow_box_bump(**PSI)
    params = default_dolgopyat_params(flow)
    table = dolgopyat_experiment(flow, psi, params, (4.0,), eval_points=2,
                                 seed=2)
    path = tmp_path / "sweep.csv"
    write_dolgopyat_csv(path, table)
    with open(path) as fh:
        comment = fh.readline()
        rows = list(csv.DictReader(fh))
    assert comment.startswith("# a=2")
    assert len(rows) == 1
    assert float(rows[0]["ratio"]) == pytest.approx(table.rows[0].ratio,
                                                    rel=1e-12)
    assert rows[0]["flagged"] == "0"


# ---------------------------------------------------------------------------
# leaf decomposition statistics
# ---------------------------------------------------------------------------


def test_decomposition_counts_and_masses(flow):
    stats = stable_decomposition_stats(flow, 0.05, 0.002, 12, seed=3)
    rows = stats.rows
    assert rows[0] == {"ell": 0, "piece_count": 1,
                       "boundary_mass_r": pytest.approx(0.04, abs=1e-12)}
    counts = [row["piece_count"] for row in rows]
    assert counts == sorted(counts)  # cutting never merges pieces
    assert counts[-1] > counts[0]
    assert all(0.0 <= row["boundary_mass_r"] <= 1.0 for row in rows)
    incs = stats.log_count_increments()
    assert len(incs) == 12
    assert all(0.0 <= inc <= math.log(4.0) + 1e-12 for inc in incs)


def test_decomposition_piece_cap_raises(flow):
    with pytest.raises(PieceExplosion) as info:
        stable_decomposition_stats(flow, 0.05, 0.002, 12, seed=3,
                                   piece_cap=2)
    assert info.value.partial_rows[0]["piece_count"] == 1


def test_decomposition_csv_round_trip(flow, tmp_path):
    stats = stable_decomposition_stats(flow, 0.05, 0.002, 4, seed=3)
    path = tmp_path / "leafstats.csv"
    write_decomposition_csv(path, stats)
    with open(path) as fh:
        comment = fh.readline()
        rows = list(csv.DictReader(fh))
    assert comment.startswith("# delta=0.05")
    assert len(rows) == 5
    assert int(rows[0]["piece_count"]) == 1
    assert float(rows[0]["boundary_mass_r"]) == pytest.approx(0.04,
                                                              abs=1e-12)
