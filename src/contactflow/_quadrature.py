"""Numeric helpers shared across modules: Gauss-Legendre quadrature (cached
nodes, composite panels), the smooth bump, the torus offset and the
round-trip float format of every CSV artifact."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    return x.copy(), w.copy()


def gl_interval(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [a, b]."""
    x, w = gl_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def composite_panels(t_max: float, nodes_per_unit: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, t_max]: unit-length panels, GL nodes per panel.

    The final panel is shortened to end exactly at t_max.  Nodes are returned
    in increasing order.
    """
    n_full = int(np.floor(t_max))
    edges = list(range(n_full + 1))
    if edges[-1] < t_max:
        edges.append(t_max)
    ts, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gl_interval(float(a), float(b), nodes_per_unit)
        ts.append(x)
        ws.append(w)
    return np.concatenate(ts), np.concatenate(ws)


def bump(u: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - u^2)) for |u| < 1, zero outside."""
    out = np.zeros_like(u, dtype=float)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def wrap_delta(d):
    """Offset folded to [-1/2, 1/2): nearest representative on the torus."""
    return (d + 0.5) % 1.0 - 0.5


def fmt17(v) -> str:
    """Shortest-safe round-trip text of a float (17 significant digits)."""
    return f"{float(v):.17g}"
