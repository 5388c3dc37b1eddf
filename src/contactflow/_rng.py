"""Reproducible random streams.

Every stochastic routine draws from Philox generators keyed by
(seed, stream path).  Samplers draw in fixed-size chunks (or per cell) whose
stream key depends only on the chunk (or cell) index, so the draws depend
only on the seed and the sizes asked for.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CHUNK = 1 << 18


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given stream path under a 64-bit root seed."""
    seq = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(seq))

