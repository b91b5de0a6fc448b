"""Deterministic stream derivation: one master seed, one tree of streams.

Every random draw in the package comes from a Generator produced here.
Distinct components (noise path, MCMC chain, ensemble member i, ...) get
disjoint spawn keys, so runs are reproducible bit-for-bit on a platform
from the single seed recorded in the config.
"""

import numpy as np

from .errors import RangeError


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for stream `key` under `master_seed`.

    derive_rng(s) is the root stream; derive_rng(s, 3, 1) is substream
    (3, 1). Streams with different keys are statistically independent.
    RangeError if master_seed is negative.
    """
    if master_seed < 0:
        raise RangeError(f"need a seed >= 0, got {master_seed}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(seq)
