"""Transfer-operator tools: observables, resolvents, Ulam models, correlations."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from contactflow import (
    CorrelationSeries,
    EmptyCell,
    FlowPointBatch,
    NoiseFloor,
    ResolventParams,
    constant_observable,
    correlation,
    fit_decay,
    flow_box_bump,
    resolvent_observable,
    resolvent_power_detailed,
    transfer,
    ulam_build,
    write_resolvent_csv,
)
from contactflow._quadrature import bump, wrap_delta
from contactflow._rng import spawn_rng
from contactflow.transfer import (
    _BLOCK_ELEMENTS,
    _column_roof_max,
    _rule_nodes,
    _sample_cells,
    resolvent_power_points,
)
from helpers import (
    column_roof_max_reference,
    grid_points,
    ulam_cells,
    ulam_destinations_reference,
    ulam_matrix_reference,
    ulam_sampler_reference,
)

BUMP = dict(center=(0.3, 0.4, 0.5), halfwidths=(0.2, 0.2, 0.3))


def _points(flow, n, seed=11):
    batch = flow.sample_invariant(seed, n)
    return [(float(batch.x[i]), float(batch.y[i]), float(batch.z[i]))
            for i in range(n)]


def _transfer(flow, psi, t, batch):
    """(L_t psi) at the batch: psi along the time-t backward flow."""
    bx, by, bz, bpid = flow.backward_arrays(batch.x, batch.y, batch.z,
                                            batch.piece_id, t)
    return psi(bx, by, bz), FlowPointBatch(bx, by, bz, bpid)


def _resolvent(flow, psi, params, w, n=1):
    return resolvent_power_detailed(flow, psi, params, n, w).value


# ---------------------------------------------------------------------------
# observables and the Koopman action
# ---------------------------------------------------------------------------


def test_constant_observable_fixed_by_transfer(flow):
    one = constant_observable(1.0)
    moved, _ = _transfer(flow, one, 3.7, flow.sample_invariant(11, 50))
    assert np.all(moved == 1.0)


def test_transfer_semigroup_vectorized(flow):
    psi = flow_box_bump(**BUMP)
    batch = flow.sample_invariant(4, 10_000)
    # L_2.4 L_1.3 psi: psi at the time-1.3 backward image of the time-2.4 one
    _, mid = _transfer(flow, psi, 2.4, batch)
    a, _ = _transfer(flow, psi, 1.3, mid)
    b, _ = _transfer(flow, psi, 3.7, batch)
    assert np.max(np.abs(a - b)) < 1e-10


def test_transfer_preserves_invariant_mean(flow):
    # paired differences under the time-2 action; invariance kills the mean
    psi = flow_box_bump(**BUMP)
    batch = flow.sample_invariant(9, 200_000)
    before = psi.values(batch)
    after, _ = _transfer(flow, psi, 2.0, batch)
    diff = np.real(after - before)
    stderr = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.0 * stderr + 1e-4


def test_flow_box_bump_metadata(flow):
    psi = flow_box_bump(**BUMP, amplitude=2.0, name="probe")
    assert psi.name == "probe"
    assert psi(0.3, 0.4, 0.5) == pytest.approx(2.0, abs=1e-14)
    assert psi.sup_norm == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("amplitude", [1.5, -2.0])
def test_flow_box_bump_support_limited_equals_full_evaluation(amplitude):
    psi = flow_box_bump(**BUMP, amplitude=amplitude)
    (cx, cy, cz), (rx, ry, rz) = BUMP["center"], BUMP["halfwidths"]
    rng = spawn_rng(5, 0)
    x, y = rng.random((2, 20_000))
    z = 2.5 * rng.random(20_000)
    z[:4] = [cz - rz, cz + rz, np.nextafter(cz + rz, 0.0), np.nan]
    x[4:7], y[4:7], z[4:7] = [np.nan, cx + rx, cx], [cy, cy, cy - ry], cz
    full = (amplitude * bump(wrap_delta(x - cx) / rx) * bump(wrap_delta(y - cy) / ry)
            * bump((z - cz) / rz))
    got = psi(x, y, z)
    assert got.tobytes() == full.tobytes()
    zeros = got == 0.0
    assert zeros.sum() > 10_000
    assert np.all(np.signbit(got[zeros]) == (amplitude < 0))


def test_flow_box_bump_rejects_non_finite_amplitude():
    with pytest.raises(ValueError, match="amplitude"):
        flow_box_bump(**BUMP, amplitude=math.inf)


def test_flow_box_bump_partial_matches_fd():
    psi = flow_box_bump(**BUMP)
    h = 1e-6
    for axis in range(3):
        d = psi.partial(axis)
        for w in [(0.32, 0.45, 0.55), (0.25, 0.38, 0.42), (0.4, 0.35, 0.6)]:
            lo = list(w)
            hi = list(w)
            lo[axis] -= h
            hi[axis] += h
            fd = (psi(*hi) - psi(*lo)) / (2 * h)
            assert d(*w) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# resolvent quadrature
# ---------------------------------------------------------------------------


def test_resolvent_of_constant_is_one_over_z(flow):
    params = ResolventParams(a=2.0, b=3.0)
    one = constant_observable(1.0)
    target = 1.0 / params.z
    for w in _points(flow, 5):
        rv = resolvent_power_detailed(flow, one, params, 1, w)
        assert abs(rv.value - target) < 1e-8
        assert rv.error_budget >= 0.0


@pytest.mark.parametrize("flow_name", ["flow", "pflow"])
def test_resolvent_single_point_is_row_of_batch(flow_name, request):
    f = request.getfixturevalue(flow_name)
    params = ResolventParams(a=2.0, b=3.0, nodes_per_unit=128,
                             tolerance=1e-4)
    psi = flow_box_bump(**BUMP)
    gen = params.z * psi + psi.partial(2)
    batch = grid_points(f, 12)  # spans more than one orbit block
    rv = resolvent_power_points(f, gen, params, 1, batch)
    for i in range(len(batch)):
        w = (batch.x[i], batch.y[i], batch.z[i])
        one = resolvent_power_detailed(f, gen, params, 1, w)
        assert one.value == rv.value[i]
        assert one.rule_error == rv.rule_error[i]


def test_rule_nodes_cached_read_only():
    ts, ws = _rule_nodes(3.5, 4)
    assert _rule_nodes(3.5, 4)[0] is ts
    for arr in (ts, ws):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_resolvent_power_one_matches_apply(flow):
    params = ResolventParams(a=2.0, b=1.0, tolerance=1e-4)
    psi = flow_box_bump(**BUMP)
    for w in _points(flow, 5):
        assert abs(_resolvent(flow, psi, params, w)
                   - resolvent_observable(flow, psi, params, 1)(*w)) < 1e-12


def test_resolvent_powers_of_constant_and_modulus(flow):
    params = ResolventParams(a=2.0, b=0.0, tolerance=1e-4)
    one = constant_observable(1.0)
    psi = flow_box_bump(**BUMP)
    pts = _points(flow, 5)
    for n in (1, 2, 3):
        bound = psi.sup_norm / params.a ** n
        for w in pts:
            assert abs(_resolvent(flow, one, params, w, n)
                       - params.z ** (-n)) < 1e-7
            assert abs(_resolvent(flow, psi, params, w, n)) <= bound + 1e-8


def test_resolvent_inverts_generator_on_bump(flow):
    # (zI - X) psi evaluates as z*psi + d/dz psi; applying R(z) returns psi
    params = ResolventParams(a=2.0, b=3.0, nodes_per_unit=128,
                             tolerance=1e-4)
    psi = flow_box_bump(**BUMP)
    gen = params.z * psi + psi.partial(2)
    worst = 0.0
    for w in _points(flow, 20, seed=6):
        rv = resolvent_power_detailed(flow, gen, params, 1, w)
        worst = max(worst, abs(rv.value - psi(*w)))
    assert worst < 1e-4


def test_nested_resolvent_matches_power_two(flow):
    params = ResolventParams(a=2.0, b=3.0, tolerance=1e-4)
    psi = flow_box_bump(**BUMP)
    inner = ResolventParams(a=2.0, b=3.0, nodes_per_unit=32, tolerance=5e-3)
    outer = ResolventParams(a=2.0, b=3.0, nodes_per_unit=16, t_max=6.0,
                            tolerance=1e-2)
    inner_obs = resolvent_observable(flow, psi, inner, 1)
    worst = 0.0
    for w in _points(flow, 50, seed=12):
        nested = _resolvent(flow, inner_obs, outer, w)
        closed = _resolvent(flow, psi, params, w, 2)
        worst = max(worst, abs(nested - closed))
    assert worst < 1e-3


def test_resolvent_identity(flow):
    # first resolvent identity R(z1) - R(z2) = (z2 - z1) R(z1) R(z2)
    p1 = ResolventParams(a=2.0, b=1.0, nodes_per_unit=32, tolerance=5e-3)
    p2 = ResolventParams(a=3.0, b=-2.0, nodes_per_unit=32, tolerance=5e-3)
    outer = ResolventParams(a=2.0, b=1.0, nodes_per_unit=16, t_max=6.0,
                            tolerance=1e-2)
    psi = flow_box_bump(**BUMP)
    r2_obs = resolvent_observable(flow, psi, p2, 1)
    worst = 0.0
    for w in _points(flow, 20, seed=8):
        lhs = _resolvent(flow, psi, p1, w) - _resolvent(flow, psi, p2, w)
        rhs = (p2.z - p1.z) * _resolvent(flow, r2_obs, outer, w)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-5


def test_resolvent_csv_round_trip(flow, tmp_path):
    params = ResolventParams(a=2.0, b=3.0)
    psi = flow_box_bump(**BUMP)
    rows = []
    for i, w in enumerate(_points(flow, 3)):
        rv = resolvent_power_detailed(flow, psi, params, 1, w)
        rows.append({"point_id": i, "a": params.a, "b": params.b, "n": 1,
                     "value_re": rv.value.real, "value_im": rv.value.imag,
                     "error_budget": rv.error_budget})
    path = tmp_path / "resolvent.csv"
    write_resolvent_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["point_id", "a"]
    assert len(lines) == 4
    back = float(lines[1].split(",")[4])
    assert back == pytest.approx(rows[0]["value_re"], rel=1e-12)


# ---------------------------------------------------------------------------
# Ulam discretization
# ---------------------------------------------------------------------------


def test_ulam_small_model_stochastic(flow):
    model = ulam_build(flow, 3.0, (12, 12, 4), samples_per_cell=120, seed=2)
    m = model.matrix
    assert model.n_states == m.shape[0] == m.shape[1]
    assert m.data.min() >= 0.0
    row_sums = np.asarray(m.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums - 1.0)) < 1e-12
    assert abs(model.leading - 1.0) < 1e-9
    assert model.second_modulus < 1.0


def _record_advance(monkeypatch, f):
    """Copies of the (x, y, z, pid, tau) each f._advance call starts from."""
    calls = []
    advance = f._advance

    def spy(x, y, z, pid, tau, rem, diag=None):
        calls.append(tuple(np.array(v) for v in (x, y, z, pid, tau)))
        return advance(x, y, z, pid, tau, rem, diag)

    monkeypatch.setattr(f, "_advance", spy)
    return calls


@pytest.mark.parametrize("samples_per_cell", [100, 300])
def test_ulam_sampler_matches_per_cell_reference(flow, samples_per_cell, monkeypatch):
    # 6 x 6 x 40 has top cells that yield no point (dropped) and too few
    # (starved); the cells pass through the sampler pool several times over
    part, spc, t = (6, 6, 40), samples_per_cell, 2.0
    cells = ulam_cells(flow, part)
    with monkeypatch.context() as mp:
        moved = _record_advance(mp, flow)
        got = _sample_cells(flow, cells, part, spc, seed=7, t=t)
    ref = ulam_sampler_reference(flow, cells, part, spc, seed=7)
    for a, b in zip(got[:3], ref[:3]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    counts, accepted, drawn = ref[:3]
    kept = counts > 0
    starved = kept & (counts < spc)
    assert (~kept).any() and starved.any()
    # each kept point is moved once, from the reference's position
    points = [np.concatenate(v) for v in zip(*moved)]
    mine, theirs = np.lexsort(points[2::-1]), np.lexsort(ref[5:2:-1])
    for a, b in zip(points, ref[3:]):
        assert a.dtype == b.dtype and a[mine].tobytes() == b[theirs].tobytes()
    # and lands where the whole batch moved at once lands, in (cell, round,
    # draw) order; unfilled slots hold nx * ny * nz
    dest = got[3]
    filled = np.arange(spc) < counts[:, None]
    # int32 ids: the 6 x 6 x 40 cell ids fit
    assert dest.dtype == np.int32 and dest.shape == (len(cells), spc)
    want = ulam_destinations_reference(flow, t, part, ref[3:])
    assert dest[filled].tobytes() == want.astype(np.int32).tobytes()
    assert np.all(dest[~filled] == np.prod(part))

    model = ulam_build(flow, t, part, spc, seed=7)
    assert np.array_equal(model.states, cells[kept])
    assert model.n_dropped == np.prod(part) - kept.sum()
    assert model.n_starved == starved.sum()
    assert model.min_row_samples == counts[kept].min()
    box_vol = (1.0 / part[0]) * (1.0 / part[1]) * (flow.tau_max / part[2])
    volumes = [box_vol * int(a) / int(d) for a, d in zip(accepted[kept], drawn[kept])]
    assert model.volumes.tobytes() == np.array(volumes).tobytes()


@pytest.mark.parametrize("flow_name", ["flow", "pflow"])
def test_sample_cells_returns_the_roof_at_its_kept_points(flow_name, request, monkeypatch):
    # the sampler hands _advance the roof at each kept point, from which
    # _advance steps it
    f = request.getfixturevalue(flow_name)
    part = (5, 4, 6)
    with monkeypatch.context() as mp:
        moved = _record_advance(mp, f)
        got = _sample_cells(f, ulam_cells(f, part), part, 100, seed=3, t=2.0)[0]
    x, y, z, pid, tau = (np.concatenate(v) for v in zip(*moved))
    assert tau.dtype == np.float64 and tau.size == got.sum() > 1000
    assert tau.tobytes() == f.roof.tau_arrays(x, y, pid).tobytes()
    assert np.all(z < tau)


# (flow, partition, samples_per_cell, t): dropped and starved cells with the
# Arnoldi spectrum; kept points over three blocks, so the buffer flushes
# several times; the perturbed flow with the dense spectrum
ULAM_CASES = [
    ("flow", (6, 6, 40), 100, 2.0),
    ("flow", (12, 12, 8), 300, 5.0),
    ("pflow", (8, 8, 4), 100, 5.0),
]


@pytest.mark.parametrize("flow_name,part,spc,t", ULAM_CASES)
def test_ulam_build_matches_whole_batch_reference(flow_name, part, spc, t, request,
                                                  monkeypatch):
    f = request.getfixturevalue(flow_name)
    with monkeypatch.context() as mp:
        moved = _record_advance(mp, f)
        model = ulam_build(f, t, part, spc, seed=7)
    states, matrix, volumes, eigvals = ulam_matrix_reference(f, t, part, spc, seed=7)
    if part == (12, 12, 8):
        assert sum(c[0].size for c in moved) > 3 * _BLOCK_ELEMENTS
    assert model.matrix.shape == matrix.shape
    for a, b in [(model.states, states), (model.matrix.data, matrix.data),
                 (model.matrix.indices, matrix.indices),
                 (model.matrix.indptr, matrix.indptr),
                 (model.volumes, volumes), (model.eigenvalues, eigvals)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_ulam_build_memory_grows_less_than_24_bytes_a_sample(flow, monkeypatch):
    # a kept sample keeps only its destination (4 bytes) in ulam_build;
    # points are moved and binned a block at a time
    part, t = (12, 12, 4), 5.0
    kept = []
    advance = flow._advance

    def count(x, *rest):
        kept[-1] += x.size
        return advance(x, *rest)

    monkeypatch.setattr(flow, "_advance", count)
    kept.append(0)
    ulam_build(flow, t, part, 100, seed=7)  # first-call imports and caches
    peak = []
    for spc in (100, 400):
        kept.append(0)
        tracemalloc.start()
        try:
            ulam_build(flow, t, part, spc, seed=7)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert kept[2] > 3 * kept[1]
    assert (peak[1] - peak[0]) / (kept[2] - kept[1]) < 24


def test_ulam_mass_into_a_dropped_cell_names_the_cell(flow, monkeypatch):
    # column (2, 3) planted as lying above the roof: its cells are dropped,
    # and at t = 2 mass still reaches them
    col = _column_roof_max(flow, 6, 6)
    col[2, 3] = 0.0
    monkeypatch.setattr(transfer, "_column_roof_max", lambda f, nx, ny: col)
    with pytest.raises(EmptyCell) as want:
        ulam_matrix_reference(flow, 2.0, (6, 6, 4), 100, seed=7)
    with pytest.raises(EmptyCell, match=r"^mass mapped into dropped cell \(2, 3, \d\)$") as got:
        ulam_build(flow, 2.0, (6, 6, 4), 100, seed=7)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("nx,ny", [(24, 24), (48, 48), (7, 5), (6, 4)])
def test_column_roof_max_classification_matches_full_clipping(flow, nx, ny):
    # 24 x 24 and 6 x 4 put rectangle corners on piece edges (x + y = 1 and
    # x + 3y = 2); 7 x 5 has unequal widths; 48 x 48 is the grid of ulam's
    # default refinement
    got = _column_roof_max(flow, nx, ny)
    assert got.tobytes() == column_roof_max_reference(flow, nx, ny).tobytes()


def test_ulam_same_seed_reproduces(flow):
    a = ulam_build(flow, 3.0, (12, 12, 4), samples_per_cell=120, seed=2)
    b = ulam_build(flow, 3.0, (12, 12, 4), samples_per_cell=120, seed=2)
    assert np.array_equal(a.states, b.states)
    assert (a.matrix != b.matrix).nnz == 0
    assert a.leading == b.leading
    assert a.second_modulus == b.second_modulus


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_correlation_against_constant_vanishes(flow):
    psi1 = flow_box_bump(**BUMP)
    one = constant_observable(1.0)
    series = correlation(flow, psi1, one, [0.0, 1.0, 2.5], 40_000, seed=7)
    # covariance with a constant cancels exactly within each batch
    assert np.max(np.abs(series.values)) == 0.0


def test_correlation_zero_lag_is_covariance(flow):
    psi = flow_box_bump(**BUMP)
    series = correlation(flow, psi, psi, [0.0], 40_000, seed=3)
    batch = flow.sample_invariant(99, 40_000)
    v = np.real(psi.values(batch))
    direct = v.var()
    se_direct = v.var() / math.sqrt(v.size / 2)
    got = float(np.real(series.values[0]))
    assert got >= -3.0 * float(series.stderr[0])
    assert abs(got - direct) <= 3.0 * (float(series.stderr[0]) + se_direct)


def test_correlation_bounded_by_sup_norms(flow):
    psi1 = flow_box_bump(**BUMP, amplitude=1.5)
    psi2 = flow_box_bump((0.7, 0.2, 0.9), (0.1, 0.15, 0.2))
    series = correlation(flow, psi1, psi2, np.arange(0, 5.0, 0.5),
                         50_000, seed=1)
    bound = psi1.sup_norm * psi2.sup_norm
    assert np.all(np.abs(series.values) <= bound + 3.0 * series.stderr)
    assert np.all(series.stderr > 0.0)


def test_correlation_csv_round_trip(flow, tmp_path):
    psi = flow_box_bump(**BUMP, name="probe")
    series = correlation(flow, psi, psi, [0.0, 0.5, 1.0], 5_000, seed=4)
    path = tmp_path / "corr.csv"
    series.to_csv(path)
    with open(path, newline="") as fh:
        meta = dict(tok.split("=", 1) for tok in fh.readline()[1:].split())
        rows = list(csv.DictReader(fh))
    assert np.array_equal([float(r["t"]) for r in rows], series.t)
    values = [complex(float(r["C_re"]), float(r["C_im"])) for r in rows]
    assert np.array_equal(values, series.values)
    assert np.array_equal([float(r["stderr"]) for r in rows], series.stderr)
    assert int(meta["n_samples"]) == series.n_samples
    assert int(meta["seed"]) == series.seed
    assert meta["psi1"] == "probe"


# ---------------------------------------------------------------------------
# decay-rate extraction
# ---------------------------------------------------------------------------


def _synthetic_series(sigma, k=0.5, noise=1e-4, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, 30.0 + 1e-9, 0.5)
    clean = k * np.exp(-sigma * t)
    values = scale * (clean + rng.normal(0.0, noise, t.size))
    stderr = np.full(t.size, scale * noise)
    return CorrelationSeries(t=t, values=values.astype(complex),
                             stderr=stderr, n_samples=10_000, seed=seed,
                             n_batches=64)


def test_fit_decay_recovers_planted_rate():
    series = _synthetic_series(0.3, seed=17)
    fit = fit_decay(series, seed=0)
    assert abs(fit.sigma_hat - 0.3) <= 0.02
    assert fit.ci_low <= fit.sigma_hat <= fit.ci_high
    assert fit.n_used >= 8


def test_fit_decay_constant_series_reports_no_decay():
    t = np.arange(0.0, 30.0 + 1e-9, 0.5)
    series = CorrelationSeries(
        t=t, values=np.full(t.size, 0.25, dtype=complex),
        stderr=np.full(t.size, 1e-4), n_samples=10_000, seed=0, n_batches=64)
    fit = fit_decay(series, seed=1)
    # rate is zero to roundoff; the bootstrap CI collapses to the jitter
    # scale around zero instead of supporting any real decay
    assert abs(fit.sigma_hat) < 1e-12
    assert fit.ci_low <= fit.ci_high
    assert max(abs(fit.ci_low), abs(fit.ci_high)) < 1e-3


def test_fit_decay_noise_floor_raises():
    series = _synthetic_series(0.3, k=1e-6, noise=1e-4, seed=5)
    with pytest.raises(NoiseFloor):
        fit_decay(series, seed=0)


def test_fit_decay_scale_invariant_rate():
    base = fit_decay(_synthetic_series(0.3, seed=23), seed=2)
    scaled = fit_decay(_synthetic_series(0.3, seed=23, scale=2.0), seed=2)
    assert scaled.sigma_hat == pytest.approx(base.sigma_hat, abs=1e-9)
    assert scaled.k_hat == pytest.approx(2.0 * base.k_hat, rel=1e-9)
