"""Project-wide pseudo-random source.

One fixed generator algorithm (NumPy PCG64 seeded through SeedSequence) is
used everywhere. Independent per-trial streams are derived as child streams
keyed by (master seed, *key), so serial and parallel runs see identical
randomness regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for the child stream (seed, *key)."""
    entropy = [int(seed)] + [int(k) for k in key]
    if min(entropy) < 0:
        raise InvalidArgumentError(f"seed {seed} and stream key {key} must be >= 0")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
