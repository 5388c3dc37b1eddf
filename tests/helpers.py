"""Small shared utilities for the test suite."""

import numpy as np


def wrap_diff(a, b):
    """Signed torus difference a - b folded into [-1/2, 1/2)."""
    return (np.asarray(a) - np.asarray(b) + 0.5) % 1.0 - 0.5


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
