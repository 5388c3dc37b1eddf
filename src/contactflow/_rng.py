"""Reproducible, scheduler-independent random streams.

Every stochastic routine draws from Philox generators keyed by
(seed, stream path).  Work is split into fixed-size chunks whose stream key
depends only on the chunk index, so results are bit-identical for any worker
count.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CHUNK = 1 << 18


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given stream path under a 64-bit root seed."""
    seq = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seq))

